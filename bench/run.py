#!/usr/bin/env python3
"""Benchmark nsconic on one workload: time to solution, iterations, memory.

    python3 bench/run.py --workload lp_sparse --seed 1 --seconds 50 --trace 0

Run from anywhere; the solver is imported from ``src/`` next to this
directory, and the run exits with code 2 when it is not there. The run
generates the workload's instances from ``--seed`` (workloads.py), writes
conic instances to problem files, makes one short untimed warm-up solve, then sets
up (reads the file back) and solves every instance in passes until
``--seconds`` is used up. Every answer is kept and, once the timed passes and
the peak-memory reading are done, checked independently (check.py), so the
checker's imports and work stay out of the measured process state.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
spends half the time untraced and half traced (spans.py) and reports the
per-layer metrics, including the tracing overhead between the two halves.
Every metric is printed by name with its unit, then per-instance records,
and the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any answer check fails.

BLAS is pinned to one thread before numpy loads; the environment is printed.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import GENERATORS, WHY  # noqa: E402

SETUP_REPS = 15  # timed set-up calls before each untraced solve; the median is reported
WARMUP_ITERS = 10

END_TO_END = {"solve_s", "setup_s", "iters", "ms_per_iter", "peak_rss_mb"}


def _import_solver():
    """Import nsconic from this checkout's src/, or exit 2 without a result."""
    try:
        import nsconic
    except ImportError as exc:
        print(f"error: cannot import nsconic from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(nsconic.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: nsconic was imported from {nsconic.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return nsconic


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Workload:
    """Turns generated instances into solver input and solves them."""

    def __init__(self, ns, instances, workdir: Path):
        self.ns = ns
        self.instances = instances
        self.paths = {}
        for inst in instances:
            if inst.V is None:
                path = workdir / f"{inst.name}.json"
                # save_problem needs a SparseMatrix; it rejects scipy sparse input
                A = inst.A.tocoo()
                mat = ns.linalg.SparseMatrix(A.shape[0], A.shape[1], A.row, A.col, A.data)
                cones = [ns.cones.ConeSpec(k, d, w) for k, d, w in inst.cones]
                ns.fileio.save_problem(path, inst.c, mat, inst.b, cones)
                self.paths[inst.name] = path

    def setup(self, inst):
        """The set-up call: load_problem, or build_edesign for E-design."""
        if inst.V is not None:
            return self.ns.edesign.build_edesign(inst.V)
        return self.ns.fileio.load_problem(self.paths[inst.name])

    def solve(self, inst, data, **options):
        opts = self.ns.solver.SolverOptions(optim_tol=inst.optim_tol, **options)
        if inst.V is not None:
            prob, barrier, x0 = data
            return self.ns.solver.solve(prob, barrier, x0, opts)
        c, A, b, cones, x0 = data
        return self.ns.cones.solve_cones(c, A, b, cones, x0, opts)


class Runner:
    """Timed passes over the instances; every answer is kept for the checks."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.answers: list = []  # (instance, result) of every solve, in order
        self.failures: list[str] = []
        self.failed_instances: set[str] = set()

    def fail(self, name: str, errs: list[str]):
        if errs:
            self.failed_instances.add(name)
            self.failures += [f"{name}: {e}" for e in errs]

    def check(self, checker) -> int:
        """Check every kept answer; return how many failed.

        Besides the answer itself, every solve of an instance, traced or
        not, must take the iteration count of its first solve.
        """
        failed = 0
        iters: dict[str, int] = {}
        for inst, res in self.answers:
            errs = checker.check(inst, res.status.value, res.x, res.y, res.s)
            first = iters.setdefault(inst.name, res.iterations)
            if res.iterations != first:
                errs.append(f"{res.iterations} iterations, {first} on the first solve")
            failed += bool(errs)
            self.fail(inst.name, errs)
        return failed

    def passes(self, budget: float, setup_times=None, tracer=None):
        """Solve all instances pass after pass while the budget allows.

        Each solve is preceded by its set-up call, timed SETUP_REPS times
        into ``setup_times`` when given, so set-up is sampled across the
        whole run rather than in one burst. With a tracer the set-up is
        traced once and counted in the traced wall time, and the relres
        check time is taken out of the solve time.

        Returns per-instance solve times, the last pass's results, the
        number of passes and the traced wall time.
        """
        times = {inst.name: [] for inst in self.wl.instances}
        results = {}
        wall = 0.0
        start = time.perf_counter()
        last = 0.0
        npass = 0
        while npass == 0 or time.perf_counter() - start + last <= budget:
            t_pass = time.perf_counter()
            for inst in self.wl.instances:
                for _ in range(SETUP_REPS if setup_times is not None else 1):
                    t0 = time.perf_counter()
                    data = self.wl.setup(inst)
                    dt = time.perf_counter() - t0
                    if setup_times is not None:
                        setup_times[inst.name].append(dt)
                    wall += dt
                check0 = tracer.check_s if tracer is not None else 0.0
                t0 = time.perf_counter()
                res = self.wl.solve(inst, data)
                dt = time.perf_counter() - t0
                wall += dt
                if tracer is not None:
                    dt -= tracer.check_s - check0
                times[inst.name].append(dt)
                results[inst.name] = res
                self.answers.append((inst, res))
            last = time.perf_counter() - t_pass
            npass += 1
        return times, results, npass, wall


def _median_sum(times: dict) -> float:
    return sum(statistics.median(v) for v in times.values())


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    ns = _import_solver()

    env = _environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {WHY[args.workload]}")

    instances = GENERATORS[args.workload](args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = Workload(ns, instances, workdir)
        # untimed warm-up; a few iterations take the first-call costs, and the
        # cap keeps an instance that runs to the iteration limit from doubling
        wl.solve(instances[0], wl.setup(instances[0]), max_iter=WARMUP_ITERS)
        runner = Runner(wl)
        budget = args.seconds / 2 if args.trace else args.seconds
        setup_times = {inst.name: [] for inst in instances}
        times, results, npass, _ = runner.passes(budget, setup_times)
        solve_s = _median_sum(times)
        iters = sum(r.iterations for r in results.values())
        metrics = {
            "solve_s": (solve_s, "s"),
            "setup_s": (_median_sum(setup_times), "s"),
            "iters": (iters, "count"),
            "ms_per_iter": (solve_s * 1e3 / iters, "ms"),
            # read before the checker is imported or has run
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"untraced: {npass} pass(es); times are per-instance medians")
        for inst in instances:
            r = results[inst.name]
            print(
                f"instance {inst.name} expected={inst.expected} status={r.status.value} "
                f"iters={r.iterations} solve_s={statistics.median(times[inst.name]):.4f} "
                f"setup_s={statistics.median(setup_times[inst.name]):.5f}"
            )

        if args.trace:
            metrics = _traced(args, runner, solve_s, metrics)

        from check import Checker

        failed = runner.check(Checker())
        for f in runner.failures:
            print(f"FAILED {f}")
        fail_frac = len(runner.failed_instances) / len(instances)
        print(f"metric fail_frac {fail_frac!r} ratio")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {_fmt(value)} {unit}")
        out = {
            "correct": not runner.failures,
            "attempted": len(runner.answers),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
                if (name in END_TO_END) != bool(args.trace)
            },
        }
        print(json.dumps(out))
        return 0 if not runner.failures else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only succeeds once it is empty
            workdir.parent.rmdir()


def _traced(args, runner, untraced_solve_s, metrics):
    """The traced half: per-layer metrics, overhead and coverage.

    A traced name missing from the solver fails the run, so a renamed or
    inlined function cannot read as a layer whose time dropped to 0.
    """
    from spans import PER_LAYER_UNITS, MissingTargets, Tracer, layer_metrics

    tracer = Tracer()
    try:
        with tracer.installed():
            times, results, npass, wall = runner.passes(args.seconds / 2, tracer=tracer)
    except MissingTargets as exc:
        runner.failures.append(f"trace: traced names missing from nsconic: {exc}")
        return metrics
    per_layer, layer_self = layer_metrics(tracer, npass, list(results.values()), wall)
    per_layer["trace.overhead_frac"] = _median_sum(times) / untraced_solve_s - 1.0
    print(f"traced: {npass} pass(es); layer self time per pass (s): "
          + " ".join(f"{k}={v:.4f}" for k, v in layer_self.items()))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(span_file, {"workload": args.workload, "seed": args.seed, "passes": npass})
    print(f"spans written to {span_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    for name, value in per_layer.items():
        metrics[name] = (value, PER_LAYER_UNITS[name])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
