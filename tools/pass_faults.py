"""Wall time, minor page faults and system time of one warmed workload pass.

Run from anywhere:

    python3 tools/pass_faults.py lp_sparse 1101

It builds the instances of WORKLOAD (``lp_sparse``, ``cone_blocks`` or
``edesign``) for SEED from ``bench/workloads.py``, read only, solves each once
untimed, then solves each once more and prints that pass's wall seconds, its
minor page faults and system seconds (``resource.getrusage`` of this
process), and its total iterations. A pass that pages in fresh memory on
every Newton step shows as tens of thousands of faults and tenths of a
second of system time, which the benchmark's end-to-end times show only as
a slower solve.

Conic instances go to ``solve_cones`` with their scipy A, so every solve
converts A to a ``SparseMatrix`` and builds what that caches, as
``bench/run.py`` does when it reads the problem file back. The script uses
no more of nsconic than ``solve``, ``solve_cones``, ``build_edesign``,
``ConeSpec`` and ``solver.SolverOptions``, so one copy of it runs on older
checkouts too. BLAS is pinned to one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import os
import resource
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
    from workloads import GENERATORS
finally:
    sys.dont_write_bytecode = _saved

from nsconic import ConeSpec, build_edesign, solve, solve_cones  # noqa: E402
from nsconic.solver import SolverOptions  # noqa: E402


def _solve(inst):
    opts = SolverOptions(optim_tol=inst.optim_tol)
    if inst.V is not None:
        prob, barrier, x0 = build_edesign(inst.V)
        return solve(prob, barrier, x0, opts)
    cones = [ConeSpec(k, d, w) for k, d, w in inst.cones]
    return solve_cones(inst.c, inst.A, inst.b, cones, None, opts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in GENERATORS:
        print(f"usage: pass_faults.py {{{','.join(sorted(GENERATORS))}}} SEED", file=sys.stderr)
        return 2
    instances = GENERATORS[argv[0]](int(argv[1]))
    for inst in instances:  # untimed pass: first-call costs and lazy imports
        _solve(inst)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    iters = sum(_solve(inst).iterations for inst in instances)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(f"workload {argv[0]} seed {argv[1]}: {len(instances)} instances, {iters} iterations")
    print(f"wall_s {wall:.4f}")
    print(f"minor_faults {after.ru_minflt - before.ru_minflt}")
    print(f"system_s {after.ru_stime - before.ru_stime:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
