"""The traced benchmark (bench/spans.py) wraps solver functions by name.

A refactor that renames or drops one of them, or changes what the wrappers
read (the Newton residual check multiplies by ``ev.hessian``), must fail
here rather than only in a traced benchmark run.
"""

import sys
from pathlib import Path

import nsconic.solver
from nsconic.barriers import NonnegativeBarrier
from nsconic.edesign import build_edesign, random_design_matrix
from nsconic.generators import random_lp
from nsconic.solver import SolverOptions, SolverStatus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
# like bench/run.py, leave no bytecode cache inside bench/
sys.dont_write_bytecode, _saved = True, sys.dont_write_bytecode
try:
    import spans
finally:
    sys.dont_write_bytecode = _saved


def test_tracer_wraps_a_small_lp_solve():
    prob, x_hat = random_lp(5, 12, 0)
    tracer = spans.Tracer()
    with tracer.installed():  # raises MissingTargets when a name is gone
        res = nsconic.solver.solve(prob, NonnegativeBarrier(12), x_hat)
    assert res.status is SolverStatus.OPTIMAL
    assert len(tracer.relres) >= res.iterations
    assert max(tracer.relres) <= 1e-10
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve", "hsd.newton", "hsd.proximity", "barriers.eval"} <= names
    assert "linalg.densify" not in names


def test_tracer_wraps_a_small_edesign_solve():
    # the dense path: a DenseHessian factored in Barrier._finish, whose
    # try_chol the tracer wraps in the barriers namespace
    prob, barrier, x0 = build_edesign(random_design_matrix(5, 10, seed=3))
    tracer = spans.Tracer()
    with tracer.installed():
        res = nsconic.solver.solve(prob, barrier, x0, SolverOptions(optim_tol=1e-8))
    assert res.status is SolverStatus.OPTIMAL
    names = {span[0] for span in tracer.spans}
    assert {"edesign.eval", "barriers.hess_chol", "hsd.newton"} <= names
    assert len(tracer.relres) >= res.iterations
    assert max(tracer.relres) <= 1e-6
