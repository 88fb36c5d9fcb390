"""Traced memory peaks of the E-design oracle, as multiples of its Hessian.

Run from anywhere:

    python3 tools/oracle_memory.py

For E-design at n = 100, 200 and 400 with p = 2n (``random_design_matrix``
with seed 0), it prints the ``tracemalloc`` peak of one evaluation at the
``build_edesign`` start and of one full solve at optim_tol 1e-8, each in MB
and as a multiple of 8(1+p)^2 bytes, the size of one dense (1+p) x (1+p)
Hessian. Only memory allocated after the problem is built is traced, and one
untraced evaluation runs first, so lazy imports and first-call set-up stay
out of the figures. The evaluation's peak includes the factored Hessian that
it returns.

The script calls no more of nsconic than ``build_edesign``,
``random_design_matrix``, ``solve`` and the returned oracle's ``eval``, so
one copy of it runs on older checkouts too. BLAS is pinned to one thread,
as in ``bench/run.py``. The n = 400 solve takes a few seconds.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nsconic import build_edesign, random_design_matrix, solve  # noqa: E402
from nsconic.solver import SolverOptions  # noqa: E402

SIZES = (100, 200, 400)


def _traced_peak(fn) -> int:
    """Bytes of the tracemalloc peak while fn runs, tracing only fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    print(f"{'n':>4} {'p':>4} {'hessian MB':>10} {'eval MB':>8} {'eval x':>6}"
          f" {'solve MB':>8} {'solve x':>7} {'status':>8} {'iters':>5}")
    for n in SIZES:
        prob, barrier, x0 = build_edesign(random_design_matrix(n, seed=0))
        p = barrier.dim - 1
        unit = 8.0 * (1 + p) ** 2
        barrier.eval(x0)  # warm-up, untraced
        eval_peak = _traced_peak(lambda: barrier.eval(x0))
        results = []
        opts = SolverOptions(optim_tol=1e-8)
        solve_peak = _traced_peak(lambda: results.append(solve(prob, barrier, x0, opts)))
        res = results[0]
        print(f"{n:>4} {p:>4} {unit / 1e6:>10.2f} {eval_peak / 1e6:>8.2f}"
              f" {eval_peak / unit:>6.2f} {solve_peak / 1e6:>8.2f}"
              f" {solve_peak / unit:>7.2f} {res.status.value:>8} {res.iterations:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
