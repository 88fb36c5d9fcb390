"""A benchmark ``cone_blocks`` instance whose exp blocks approach the apex.

Seed 6 instance 0 used to stall at mu ~1e-8 and return IterationLimit: near
the apex, potrf on the formed 3x3 exp Hessian broke down at interior points,
which read as exterior and cut every predictor step to nothing. The answer
is checked with the benchmark's own independent ``Checker``.
"""

import sys
from pathlib import Path

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


def test_exp_blocks_near_the_apex_solve_and_check():
    inst = cone_blocks(6)[0]
    cones = [ConeSpec(k, d, w) for k, d, w in inst.cones]
    opts = SolverOptions(optim_tol=inst.optim_tol)
    res = solve_cones(inst.c, inst.A, inst.b, cones, None, opts)
    assert Checker().check(inst, res.status.value, res.x, res.y, res.s) == []
    assert res.iterations < 100
