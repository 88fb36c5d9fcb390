"""Set-up shared by the scripts in ``tools/``; import it before numpy.

Importing it pins BLAS to one thread, as ``bench/run.py`` does, and puts
``src/`` first on ``sys.path``. ``bench_module`` imports a module of
``bench/`` read only, and ``solve_instance`` solves one instance of
``bench/workloads.py``. It uses no more of nsconic than ``solve``,
``solve_cones``, ``build_edesign``, ``ConeSpec`` and
``solver.SolverOptions``, so a copy of ``tools/`` runs on older checkouts
too.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nsconic import ConeSpec, build_edesign, solve, solve_cones  # noqa: E402
from nsconic.solver import SolverOptions  # noqa: E402


def bench_module(name: str):
    """``bench/<name>.py`` as a module, leaving no bytecode cache in bench/."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved


def solve_instance(inst):
    """Solve a ``bench/workloads.py`` instance at its tolerance: an E-design
    (``inst.V`` set) through ``build_edesign`` and ``solve``, any other
    through ``solve_cones`` with its scipy A, so every solve converts A to a
    ``SparseMatrix`` and builds what that caches, as ``bench/run.py`` does
    when it reads the problem file back."""
    opts = SolverOptions(optim_tol=inst.optim_tol)
    if inst.V is not None:
        prob, barrier, x0 = build_edesign(inst.V)
        return solve(prob, barrier, x0, opts)
    cones = [ConeSpec(k, d, w) for k, d, w in inst.cones]
    return solve_cones(inst.c, inst.A, inst.b, cones, None, opts)
