"""Solve and check every ``cone_blocks`` instance of a range of seeds.

    python3 tools/cone_sweep.py FIRST LAST [TOL]

For each seed from FIRST to LAST (inclusive) it builds the ``cone_blocks``
instances of ``bench/workloads.py``, solves each through ``solve_cones`` at
the instance's tolerance, or at TOL when given, and checks the answer with
``bench/check.py``'s ``Checker`` at that same tolerance, a new one for each
seed. It prints one line per instance (seed:instance, status, iterations,
seconds and the check's verdict), then the pass count, and exits 1 when any
instance fails its check. ``bench/`` is imported read only and left
without bytecode, and BLAS is pinned to one thread, as in ``bench/run.py``.
Seeds 0-40 take a few minutes, so this is not part of the test suite.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
# leave no bytecode cache inside bench/
sys.dont_write_bytecode, _saved = True, sys.dont_write_bytecode
try:
    from check import Checker
    from workloads import cone_blocks
finally:
    sys.dont_write_bytecode = _saved

from nsconic import ConeSpec, solve_cones  # noqa: E402
from nsconic.solver import SolverOptions  # noqa: E402


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) not in (2, 3):
        print("usage: cone_sweep.py FIRST LAST [TOL]", file=sys.stderr)
        return 2
    first, last = int(args[0]), int(args[1])
    tol = float(args[2]) if len(args) == 3 else None
    passed = total = 0
    for seed in range(first, last + 1):
        # Checker caches references by instance name, and names repeat across seeds
        checker = Checker()
        for i, inst in enumerate(cone_blocks(seed)):
            if tol is not None:
                inst = dataclasses.replace(inst, optim_tol=tol)
            cones = [ConeSpec(k, d, w) for k, d, w in inst.cones]
            opts = SolverOptions(optim_tol=inst.optim_tol)
            t0 = time.perf_counter()
            res = solve_cones(inst.c, inst.A, inst.b, cones, None, opts)
            dt = time.perf_counter() - t0
            errs = checker.check(inst, res.status.value, res.x, res.y, res.s)
            verdict = "ok" if not errs else "FAIL: " + "; ".join(errs)
            print(
                f"{seed}:{i} {res.status.value} {res.iterations} iters"
                f" {dt:.2f} s {verdict}",
                flush=True,
            )
            total += 1
            passed += not errs
    print(f"passed {passed}/{total}")
    return 0 if passed == total else 1


if __name__ == "__main__":
    sys.exit(main())
