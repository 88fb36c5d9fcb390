"""Benchmark ``cone_blocks`` instances whose blocks approach their boundary.

Seed 6 instance 0 used to stall at mu ~1e-8 and return IterationLimit: near
the apex, potrf on the formed 3x3 exp Hessian broke down at interior points,
which read as exterior and cut every predictor step to nothing. At optim_tol
1e-8, seed 0 instance 2 and seed 6 instance 4 used to end NumericalError in
the corrector after about 40 iterations, while the Newton refinement took
its residual against a separately formed H rather than the factor LL' that
every solve uses. Each answer is checked with the benchmark's own
independent ``Checker`` at the tolerance it was solved to.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from nsconic import ConeSpec, solve_cones
from nsconic.solver import SolverOptions

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
# like bench/run.py, leave no bytecode cache inside bench/
sys.dont_write_bytecode, _saved = True, sys.dont_write_bytecode
try:
    from check import Checker
    from workloads import cone_blocks
finally:
    sys.dont_write_bytecode = _saved


@pytest.mark.parametrize(
    "seed, instance, tol", [(6, 0, 1e-6), (0, 2, 1e-8), (6, 4, 1e-8)]
)
def test_exp_blocks_near_the_apex_solve_and_check(seed, instance, tol):
    inst = dataclasses.replace(cone_blocks(seed)[instance], optim_tol=tol)
    cones = [ConeSpec(k, d, w) for k, d, w in inst.cones]
    opts = SolverOptions(optim_tol=inst.optim_tol)
    res = solve_cones(inst.c, inst.A, inst.b, cones, None, opts)
    assert Checker().check(inst, res.status.value, res.x, res.y, res.s) == []
    assert res.iterations < 100
