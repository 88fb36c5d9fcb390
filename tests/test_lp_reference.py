"""Property test: standard-form LPs against scipy's HiGHS.

Each drawn LP min c'x, Ax = b, x >= 0 is solved by ``solve_cones`` at the
default tolerance and classed by two HiGHS feasibility solves, one for the
primal and one for the dual max b'y, A'y <= c. When both are feasible the
answer must be ``Optimal`` at HiGHS's optimum; otherwise it must be an
infeasibility status on a side HiGHS found infeasible, with a ray whose
residual is at most the tolerance times its objective.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from nsconic import ConeSpec, solve_cones  # noqa: E402
from nsconic.solver import SolverOptions, SolverStatus  # noqa: E402

TOL = SolverOptions().optim_tol


def _lp(seed, m, n, kind):
    """(A, b, c): integers in [-3, 3], standard normal, or normal with b = A x̂."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return (
            rng.integers(-3, 4, (m, n)).astype(float),
            rng.integers(-3, 4, m).astype(float),
            rng.integers(-3, 4, n).astype(float),
        )
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    if kind == "feasible":
        b = A @ rng.uniform(0.5, 2.0, n)
    return A, b, c


def _highs_feasible(nvar, **kw) -> bool:
    return linprog(np.zeros(nvar), method="highs", **kw).status == 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    extra=st.integers(1, 12),
    kind=st.sampled_from(["integer", "normal", "feasible"]),
)
def test_lp_status_and_answer_match_highs(seed, m, extra, kind):
    n = m + extra
    A, b, c = _lp(seed, m, n, kind)
    assume(np.linalg.matrix_rank(A) == m)
    result = solve_cones(c, A, b, [ConeSpec("lp", n)])
    primal_ok = _highs_feasible(n, A_eq=A, b_eq=b, bounds=(0, None))
    dual_ok = _highs_feasible(m, A_ub=A.T, b_ub=c, bounds=(None, None))
    status = result.status
    if primal_ok and dual_ok:
        assert status is SolverStatus.OPTIMAL, result.status_string
        f_star = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs").fun
        assert abs(result.p_obj - f_star) <= 10 * TOL * (1.0 + abs(f_star))
    elif status is SolverStatus.PRIMAL_INFEASIBLE:
        assert not primal_ok
        by = float(b @ result.y)
        assert by > 0.0
        assert np.linalg.norm(A.T @ result.y + result.s) <= TOL * by
    else:
        assert status is SolverStatus.DUAL_INFEASIBLE, result.status_string
        assert not dual_ok
        cx = float(c @ result.x)
        assert cx < 0.0
        assert np.linalg.norm(A @ result.x) <= TOL * -cx


def test_tight_tolerance_reaches_the_highs_optimum():
    A = np.array(
        [
            [-3.0, -1, 1, -3, -2, -1, 0, -1],
            [-3.0, -1, -2, 1, -3, 3, -3, -3],
            [2.0, 3, 1, 1, 2, 1, -1, -2],
            [0.0, 2, -2, 3, 1, 3, -3, 3],
        ]
    )
    b = np.array([-3.0, -2, 3, -2])
    c = np.array([1.0, -1, -3, 2, -2, 0, -2, 1])
    opts = SolverOptions(optim_tol=1e-8)
    result = solve_cones(c, A, b, [ConeSpec("lp", 8)], options=opts)
    assert result.status is SolverStatus.OPTIMAL, result.status_string
    assert result.p_obj == pytest.approx(-15.4, abs=10 * 1e-8 * (1.0 + 15.4))
