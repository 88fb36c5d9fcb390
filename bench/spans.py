"""Outside-in tracing of nsconic: spans around the public functions of each module.

``Tracer.installed()`` replaces each traced name in the namespace its caller
looks it up in (for example ``nsconic.solver.newton_solve``, which is where
the solver finds it) with a wrapper, and restores the original on exit, so
nothing under ``src/`` changes. When a name no longer exists, ``installed()``
raises ``MissingTargets`` before patching anything, so a refactor fails the
traced run instead of showing up as a layer whose count dropped to 0.

Each span records its name, start, end and parent span. Spans are held in
memory and written out by ``dump`` when the run ends. A layer is the prefix
of a span name before the first dot; a span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

import nsconic.barriers
import nsconic.cones
import nsconic.edesign
import nsconic.fileio
import nsconic.hsd
import nsconic.linalg
import nsconic.solver

LAYERS = ("solver", "hsd", "linalg", "barriers", "edesign", "cones", "fileio")

# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    "solver.self_s": "s",
    "solver.corrector_steps": "count",
    "solver.pred_step.p50": "ratio",
    "solver.ls_trials": "count",
    "solver.ls_accept_ratio": "ratio",
    "hsd.newton_calls": "count",
    "hsd.newton_s": "s",
    "hsd.newton_self_s": "s",
    "hsd.proximity_s": "s",
    "hsd.residuals_s": "s",
    "hsd.newton_relres.max": "ratio",
    "linalg.normal_chol_calls": "count",
    "linalg.normal_chol_s": "s",
    "linalg.trsv_calls": "count",
    "linalg.trsv_s": "s",
    "linalg.matvec_calls": "count",
    "linalg.matvec_s": "s",
    "linalg.densify_calls": "count",
    "linalg.flops_computed": "flop",
    "linalg.normal_shift_count": "count",
    "barriers.eval_calls": "count",
    "barriers.eval_o3_calls": "count",
    "barriers.eval_s": "s",
    "barriers.eval_ms.p50": "ms",
    "barriers.eval_ms.p90": "ms",
    "barriers.exterior_frac": "ratio",
    "barriers.hess_chol_calls": "count",
    "barriers.hess_chol_s": "s",
    "edesign.eval_calls": "count",
    "edesign.eval_s": "s",
    "cones.build_s": "s",
    "cones.lift_s": "s",
    "fileio.load_s": "s",
    "fileio.load_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

# (owner, attribute, span name); the owner is the namespace the caller reads
_TARGETS = (
    (nsconic.fileio, "load_problem", "fileio.load"),
    (nsconic.edesign, "build_edesign", "edesign.build"),
    (nsconic.cones, "solve_cones", "cones.solve_cones"),
    (nsconic.cones, "build_cones", "cones.build"),
    (nsconic.cones, "lift", "cones.lift"),
    (nsconic.cones, "solve", "solver.solve"),
    (nsconic.solver, "solve", "solver.solve"),
    (nsconic.solver, "newton_solve", "hsd.newton"),
    (nsconic.solver, "proximity", "hsd.proximity"),
    (nsconic.solver, "residuals", "hsd.residuals"),
    (nsconic.hsd, "try_chol", "linalg.normal_chol"),
    (nsconic.hsd, "solve_lower", "linalg.trsv"),
    (nsconic.hsd, "solve_lower_t", "linalg.trsv"),
    (nsconic.barriers, "try_chol", "barriers.hess_chol"),
    (nsconic.barriers.Barrier, "eval", "barriers.eval"),
    (nsconic.linalg.SparseMatrix, "matvec", "linalg.matvec"),
    (nsconic.linalg.SparseMatrix, "toarray", "linalg.densify"),
)


class MissingTargets(LookupError):
    """Traced names that the solver no longer defines."""


class Tracer:
    """Span recorder plus the counters that spans alone cannot give."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.relres: list[float] = []
        self.check_s = 0.0  # time spent computing relres, excluded everywhere
        self._stack: list[int] = []
        self._paused = False

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            rec = [span, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _after_eval(self, args, kwargs, out):
        order = kwargs.get("order", args[2] if len(args) > 2 else 3)
        layer = "edesign" if isinstance(args[0], nsconic.edesign.EDesignBarrier) else "barriers"
        if order >= 3:
            self.counts[f"{layer}.eval_o3"] += 1
        if not out.in_interior:
            self.counts["barriers.exterior"] += 1

    def _after_normal_chol(self, args, kwargs, out):
        k = np.shape(args[0])[0]
        self.counts["linalg.flops"] += k**3 / 3.0
        if out is None:
            self.counts["linalg.normal_shift"] += 1

    def _after_trsv(self, args, kwargs, out):
        k = np.shape(args[0])[0]
        rhs = np.shape(args[1])
        self.counts["linalg.flops"] += k * k * (rhs[1] if len(rhs) > 1 else 1)

    def _after_load(self, args, kwargs, out):
        self.counts["fileio.bytes"] += os.path.getsize(args[0])

    def _after_newton(self, args, kwargs, d):
        """Relative residual of d against the full embedding Newton system.

        Runs in a ``trace.check`` span with recording paused, so its cost is
        kept out of every layer's self time and out of the traced wall time.
        """
        prob, z, mu, ev, rhs = args[:5]
        t0 = time.perf_counter()
        rec = ["trace.check", t0, t0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._paused = True
        try:
            A, b, c = prob.A, prob.b, prob.c
            r1 = A.matvec(d.dx) - b * d.dtau - rhs.r1
            r2 = -A.matvec(d.dy, transpose=True) + c * d.dtau - d.ds - rhs.r2
            r3 = b @ d.dy - c @ d.dx - d.dkappa - rhs.r3
            r4 = d.ds + mu * (ev.hessian @ d.dx) - rhs.r4
            r5 = d.dkappa + mu / z.tau**2 * d.dtau - rhs.r5
            num = np.sqrt(r1 @ r1 + r2 @ r2 + r3**2 + r4 @ r4 + r5**2)
            den = np.sqrt(
                rhs.r1 @ rhs.r1 + rhs.r2 @ rhs.r2 + rhs.r3**2 + rhs.r4 @ rhs.r4 + rhs.r5**2
            )
            self.relres.append(float(num / den) if den > 0.0 else 0.0)
        finally:
            self._paused = False
            rec[2] = time.perf_counter()
            self.check_s += rec[2] - rec[1]

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in _TARGETS
            if attr not in owner.__dict__
        ]
        if missing:
            raise MissingTargets(", ".join(missing))
        saved = []
        try:
            for owner, attr, original, wrapper in self._patches():
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patches(self):
        after = {
            "barriers.eval": self._after_eval,
            "linalg.normal_chol": self._after_normal_chol,
            "linalg.trsv": self._after_trsv,
            "fileio.load": self._after_load,
            "hsd.newton": self._after_newton,
        }
        edesign = nsconic.edesign.EDesignBarrier

        def eval_name(args):
            return "edesign.eval" if isinstance(args[0], edesign) else "barriers.eval"

        for owner, attr, span in _TARGETS:
            original = owner.__dict__[attr]
            name = eval_name if span == "barriers.eval" else span
            yield owner, attr, original, self._wrap(name, original, after.get(span))

    # ------------------------------------------------------------- analysis

    def self_times(self):
        """Duration and self time of every span, as two arrays."""
        n = len(self.spans)
        dur = np.fromiter((s[2] - s[1] for s in self.spans), float, n)
        child = np.zeros(n)
        parents = np.fromiter((s[3] for s in self.spans), int, n)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur, dur - child

    def dump(self, path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["names"] = names
        doc["spans"] = [
            [index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]] for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, passes: int, results: list, traced_wall: float):
    """Per-layer metrics per pass over the workload's instances.

    ``results`` are one pass's solver results (every pass solves the same
    instances to the same iteration counts); ``traced_wall`` is the
    benchmark-measured wall time of all traced calls, relres checks included.
    Returns the metrics and each layer's self time per pass.
    """
    hist = [h for r in results for h in r.history]
    iters = sum(r.iterations for r in results)
    corrector_steps = sum(h.corrector_steps for h in hist)
    dur, self_t = tracer.self_times()
    names = [s[0] for s in tracer.spans]
    by_name = defaultdict(list)
    for i, nm in enumerate(names):
        by_name[nm].append(i)

    def total(name, arr=dur):
        idx = by_name.get(name, [])
        return float(arr[idx].sum()) if idx else 0.0

    def calls(name):
        return len(by_name.get(name, []))

    layer_self = defaultdict(float)
    for nm, idx in by_name.items():
        layer_self[nm.split(".", 1)[0]] += float(self_t[idx].sum())

    evals = by_name.get("barriers.eval", []) + by_name.get("edesign.eval", [])
    eval_ms = dur[evals] * 1e3 if evals else np.zeros(1)
    n_eval = len(evals)
    per = 1.0 / passes
    o3 = tracer.counts["barriers.eval_o3"] + tracer.counts["edesign.eval_o3"]
    trials = o3 * per - len(results)  # one order-3 call per solve is the start
    m = {
        "solver.self_s": layer_self["solver"] * per,
        "solver.corrector_steps": corrector_steps,
        "solver.pred_step.p50": float(np.median([h.step for h in hist])),
        "solver.ls_trials": trials,
        "solver.ls_accept_ratio": (iters + corrector_steps) / trials,
        "hsd.newton_calls": calls("hsd.newton") * per,
        "hsd.newton_s": total("hsd.newton") * per,
        "hsd.newton_self_s": total("hsd.newton", self_t) * per,
        "hsd.proximity_s": total("hsd.proximity") * per,
        "hsd.residuals_s": total("hsd.residuals") * per,
        "hsd.newton_relres.max": max(tracer.relres) if tracer.relres else 0.0,
        "linalg.normal_chol_calls": calls("linalg.normal_chol") * per,
        "linalg.normal_chol_s": total("linalg.normal_chol") * per,
        "linalg.trsv_calls": calls("linalg.trsv") * per,
        "linalg.trsv_s": total("linalg.trsv") * per,
        "linalg.matvec_calls": calls("linalg.matvec") * per,
        "linalg.matvec_s": total("linalg.matvec") * per,
        "linalg.densify_calls": calls("linalg.densify") * per,
        "linalg.flops_computed": tracer.counts["linalg.flops"] * per,
        "linalg.normal_shift_count": tracer.counts["linalg.normal_shift"] * per,
        "barriers.eval_calls": n_eval * per,
        "barriers.eval_o3_calls": o3 * per,
        "barriers.eval_s": float(dur[evals].sum()) * per if evals else 0.0,
        "barriers.eval_ms.p50": float(np.percentile(eval_ms, 50)),
        "barriers.eval_ms.p90": float(np.percentile(eval_ms, 90)),
        "barriers.exterior_frac": tracer.counts["barriers.exterior"] / n_eval if n_eval else 0.0,
        "barriers.hess_chol_calls": calls("barriers.hess_chol") * per,
        "barriers.hess_chol_s": total("barriers.hess_chol") * per,
        "edesign.eval_calls": calls("edesign.eval") * per,
        "edesign.eval_s": total("edesign.eval") * per,
        "cones.build_s": total("cones.build") * per,
        "cones.lift_s": total("cones.lift") * per,
        "fileio.load_s": total("fileio.load") * per,
        "fileio.load_bytes": tracer.counts["fileio.bytes"] * per,
    }
    covered = sum(layer_self[layer] for layer in LAYERS)
    m["trace.coverage"] = covered / (traced_wall - tracer.check_s)
    return m, {layer: layer_self[layer] * per for layer in LAYERS}
