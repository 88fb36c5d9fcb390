import dataclasses

import numpy as np
import pytest

from nsconic.barriers import (
    Barrier,
    ExponentialBarrier,
    ExteriorPointError,
    NonnegativeBarrier,
    PowerBarrier,
    ProductBarrier,
    PullbackBarrier,
    SecondOrderBarrier,
)
import nsconic.hsd
import nsconic.solver
from nsconic.cones import ConeSpec, solve_cones
from nsconic.edesign import build_edesign, random_design_matrix
from nsconic.generators import random_lp
from nsconic.hsd import Iterate, ProblemData, SingularSystemError, gap, proximity
from nsconic.linalg import DimensionMismatch, SparseMatrix
from nsconic.solver import (
    LineSearchError,
    SolverOptions,
    SolverStatus,
    initial_iterate,
    solve,
)

from _util import count_calls


def lp_problem():
    # min x1 + 2 x2  s.t.  x1 + x2 = 2, x >= 0; optimum (2, 0), value 2
    return ProblemData(
        np.array([[1.0, 1.0]]), np.array([2.0]), np.array([1.0, 2.0])
    )


def test_options_validation():
    SolverOptions()
    with pytest.raises(ValueError):
        SolverOptions(optim_tol=2.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=bad)
    assert SolverOptions(max_iter=np.int32(3)).max_iter == 3
    assert type(SolverOptions(max_iter=4.0).max_iter) is int


@pytest.mark.parametrize(
    "oracle",
    [
        NonnegativeBarrier(6),
        SecondOrderBarrier(4),
        ExponentialBarrier(),
        PowerBarrier([0.25, 0.75]),
        ProductBarrier(
            [NonnegativeBarrier(3), SecondOrderBarrier(3), ExponentialBarrier()]
        ),
    ],
)
def test_initial_iterate_is_centered(oracle):
    n = oracle.dim
    prob = ProblemData(np.ones((1, n)), np.array([1.0]), np.zeros(n))
    z = initial_iterate(prob, oracle)
    assert z.tau == 1.0 and z.kappa == 1.0
    assert np.all(z.y == 0.0)
    mu0 = gap(z, oracle.nu)
    assert abs(mu0 - 1.0) <= 1e-14
    ev = oracle.eval(z.x)
    assert proximity(z, ev, oracle.nu) <= 1e-12


def test_initial_iterate_rejects_exterior_start():
    prob = lp_problem()
    with pytest.raises(ExteriorPointError):
        initial_iterate(prob, NonnegativeBarrier(2), x0=np.array([1.0, -1.0]))
    # a complex start is refused, not cast to its real part
    with pytest.raises(ValueError, match="x0 must be real"):
        initial_iterate(prob, NonnegativeBarrier(2), x0=np.array([1.0 + 1j, 1.0]))


def test_initial_iterate_requires_canonical_point():
    inner = NonnegativeBarrier(2)
    pb = PullbackBarrier(inner, np.diag([2.0, 3.0]))  # no initial point passed
    prob = ProblemData(np.ones((1, 2)), np.array([1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        initial_iterate(prob, pb)


def test_oracle_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(lp_problem(), NonnegativeBarrier(3))


def test_lp_analytic_solution():
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.OPTIMAL
    np.testing.assert_allclose(res.x, [2.0, 0.0], atol=1e-5)
    assert abs(res.p_obj - 2.0) <= 1e-5
    assert abs(res.p_obj - res.d_obj) <= 1e-5
    # de-homogenized residuals meet the advertised quality
    assert abs(res.x.sum() - 2.0) <= 1e-6 * 3.0
    assert res.tau > 0 and res.kappa < res.tau


def test_exp_cone_analytic_optimum():
    # min -x3 s.t. x1 = 1, x2 = 1, x in exp cone; optimum x3 = 0
    prob = ProblemData(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([1.0, 1.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    res = solve(prob, ExponentialBarrier(), options=SolverOptions(optim_tol=1e-8))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj) <= 1e-6


def test_gpow_geometric_mean_optimum():
    # max z s.t. x = (2, 8); boundary at z = sqrt(2 * 8) = 4
    prob = ProblemData(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([2.0, 8.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    res = solve(prob, PowerBarrier([0.5, 0.5]), options=SolverOptions(optim_tol=1e-8))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj + 4.0) <= 1e-6
    np.testing.assert_allclose(res.x, [2.0, 8.0, 4.0], atol=1e-5)


def test_socp_projection_problem():
    # min x0 s.t. x - x_fixed in {0}, i.e. smallest Lorentz-feasible x0 over
    # the ball fixed by equalities: A pins x1, x2; optimum x0 = ||(x1,x2)||
    prob = ProblemData(
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([3.0, 4.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    res = solve(prob, SecondOrderBarrier(3), options=SolverOptions(optim_tol=1e-8))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj - 5.0) <= 1e-6


def test_primal_infeasible_lp():
    prob = ProblemData(
        np.array([[1.0, 0.0]]), np.array([-1.0]), np.array([1.0, 1.0])
    )
    res = solve(prob, NonnegativeBarrier(2))
    assert res.status is SolverStatus.PRIMAL_INFEASIBLE
    assert res.iterations <= 200
    # Farkas certificate: A'y + s ~ 0 with b'y > 0
    assert prob.b @ res.y > 0
    cert = prob.A.matvec(res.y, transpose=True) + res.s
    assert np.linalg.norm(cert) <= 1e-6 * max(1.0, np.linalg.norm(res.y))


def test_dual_infeasible_lp():
    # min -x1 over the redundant system 0 x = 0: primal unbounded below
    prob = ProblemData(
        np.array([[0.0, 0.0]]), np.array([0.0]), np.array([-1.0, 0.0])
    )
    res = solve(prob, NonnegativeBarrier(2))
    assert res.status is SolverStatus.DUAL_INFEASIBLE
    assert res.iterations <= 200
    # improving ray: c'x < 0 with A x ~ 0, x in K
    assert prob.c @ res.x < 0
    assert np.linalg.norm(prob.A.matvec(res.x)) <= 1e-8


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_unbounded_lp_is_not_called_primal_infeasible(tol):
    # columns 6 and 7 are zero with cost -2 and the primal is feasible, so the
    # LP is unbounded; the dual iterate's b'y > 0 once read as a Farkas ray
    A = np.array([[3.0, 3, 1, -3, 1, 0, 0, -1], [-2.0, -2, 1, 3, -2, 0, 0, 1]])
    c = np.array([-1.0, 0, 3, 2, -2, -2, -2, -2])
    prob = ProblemData(A, np.array([-2.0, -2.0]), c)
    res = solve(prob, NonnegativeBarrier(8), options=SolverOptions(optim_tol=tol))
    assert res.status is SolverStatus.DUAL_INFEASIBLE
    cx = float(prob.c @ res.x)
    assert cx < 0 and res.x.min() > 0
    assert np.linalg.norm(A @ res.x) <= tol * -cx


@pytest.mark.parametrize("scale", [(1.0, 1e200), (1e155, 1e155)])
def test_overflowing_data_is_a_numerical_error(scale):
    b_scale, c_scale = scale
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    b = b_scale * np.array([2.0, 0.5])
    prob = ProblemData(A, b, c_scale * np.array([1.0, 2.0, 3.0]))
    res = solve(prob, NonnegativeBarrier(3))
    assert res.status is SolverStatus.NUMERICAL_ERROR
    assert res.iterations == 0
    assert "overflowed" in res.status_string


_Y_OPT = 1.0 - 1e-9


@pytest.mark.parametrize(
    "A, b, c, y, x, s, kappa, status",
    [
        ([1.0, 1.0], -1.0, [1.0, 1.0], -1.0, [1.0, 1.0], [1.0, 1.0], 1.0,
         SolverStatus.PRIMAL_INFEASIBLE),
        ([1.0, -1.0], 1.0, [-1.0, 0.0], 0.0, [1.0, 1.0], [1.0, 1.0], 1.0,
         SolverStatus.DUAL_INFEASIBLE),
        ([1.0, 1.0], 2.0, [1.0, 2.0], _Y_OPT, [2.0 - 1e-9, 1e-9],
         [1.0 - _Y_OPT, 2.0 - _Y_OPT], 10.0, SolverStatus.OPTIMAL),
    ],
    ids=["primal-infeasible", "dual-infeasible", "optimal-kappa-above-tau"],
)
def test_status_is_decided_by_its_certificate_alone(A, b, c, y, x, s, kappa, status):
    # each point passes one certificate test at tau = 1, with no convergence
    # relative to the start and, for the optimal one, kappa above tau
    prob = ProblemData(np.array([A]), np.array([b]), np.array(c))
    z = Iterate(np.array([y]), np.array(x), 1.0, np.array(s), kappa)
    res = nsconic.hsd.residuals(z, prob)
    assert nsconic.solver._classify(z, res, prob, 1e-6) is status


def test_mu_strictly_decreases_per_cycle():
    res = solve(lp_problem(), NonnegativeBarrier(2))
    mus = [rec.mu for rec in res.history]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert all(rec.prox <= 0.07 + 1e-12 for rec in res.history)
    assert all(0.0 < rec.step <= 1.0 for rec in res.history)


def test_solution_matches_embedding_ratio():
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.OPTIMAL
    assert res.residual_norms["mu"] <= 1e-6
    assert res.iterations == len(res.history)


def test_iteration_limit_status():
    res = solve(lp_problem(), NonnegativeBarrier(2), options=SolverOptions(max_iter=2))
    assert res.status is SolverStatus.ITERATION_LIMIT
    assert res.iterations == 2


def test_numerical_error_status_on_impossible_centering(monkeypatch):
    # an absurdly tight neighborhood with a single corrector step cannot be
    # satisfied; the failure must surface as a status, not an exception
    monkeypatch.setattr(nsconic.solver, "ETA", 1e-12)
    monkeypatch.setattr(nsconic.solver, "MAX_CORR_STEPS", 1)
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.NUMERICAL_ERROR
    assert "corrector" in res.status_string


@pytest.mark.parametrize(
    "module, name, value, detail",
    [
        # no trial point lies within the proximity bound
        (nsconic.solver, "proximity", lambda *a: np.inf, "predictor line search"),
        # the normal matrix fails to factor, shifted or not
        (nsconic.hsd, "try_chol", lambda mat, **kw: None, "normal-equations matrix"),
    ],
    ids=["predictor", "normal-matrix"],
)
def test_first_step_failures_are_numerical_errors(
    monkeypatch, module, name, value, detail
):
    monkeypatch.setattr(module, name, value)
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.NUMERICAL_ERROR
    assert res.iterations == 0
    assert detail in res.status_string


def test_failed_predictor_search_ends_at_the_halving_floor(monkeypatch):
    # one sequence from the cap by WARM_FACTOR, down to the floor 60 halvings
    # reach: its last trial is the last step of at least 2^-59 of the cap
    monkeypatch.setattr(nsconic.solver, "proximity", lambda *a: np.inf)
    alphas, caps = _record_line_searches(monkeypatch)
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.NUMERICAL_ERROR
    f, floor = nsconic.solver.WARM_FACTOR, nsconic.solver.MIN_STEP
    (cap,) = caps
    assert floor == 2.0**-59
    assert len(alphas) == 184 and alphas[0] == cap
    np.testing.assert_allclose(_ratios(alphas), f)
    assert alphas[-1] >= floor * cap > alphas[-1] * f


def test_deterministic_reruns():
    r1 = solve(lp_problem(), NonnegativeBarrier(2))
    r2 = solve(lp_problem(), NonnegativeBarrier(2))
    assert r1.status is r2.status
    np.testing.assert_array_equal(r1.x, r2.x)
    np.testing.assert_array_equal(r1.y, r2.y)
    assert [rec.mu for rec in r1.history] == [rec.mu for rec in r2.history]
    assert r1.p_obj == r2.p_obj


def test_custom_x0_is_respected():
    res = solve(lp_problem(), NonnegativeBarrier(2), x0=np.array([0.5, 1.5]))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj - 2.0) <= 1e-5


def test_verbose_log_shape(capsys):
    solve(lp_problem(), NonnegativeBarrier(2), options=SolverOptions(verbose=True))
    captured = capsys.readouterr()
    assert captured.out == ""
    out = captured.err.strip().splitlines()
    assert out[0].split() == [
        "iter", "mu", "|rP|", "|rD|", "|rG|", "step", "corr", "prox", "ptry", "ctry"
    ]
    assert out[-1].startswith("status: Optimal")
    # one line per iteration between header and status
    assert len(out) >= 4


def test_verbose_row_of_a_known_record(monkeypatch, capsys):
    record = nsconic.solver.IterationRecord(
        iteration=12,
        mu=1.25e-4,
        primal_norm=3.0e-9,
        dual_norm=0.5,
        gap_abs=1234.0,
        step=0.875,
        corrector_steps=3,
        prox=0.0625,
        pred_trials=2,
        corr_trials=17,
    )
    monkeypatch.setattr(nsconic.solver, "IterationRecord", lambda **_: record)
    solve(lp_problem(), NonnegativeBarrier(2), options=SolverOptions(verbose=True))
    header, *rows, status = capsys.readouterr().err.splitlines()
    row = "  12  1.250e-04  3.000e-09  5.000e-01  1.234e+03 8.75e-01    3 6.25e-02    2   17"
    assert rows and all(r == row for r in rows)
    # one right-aligned label per record field, over its column
    assert len(header.split()) == len(dataclasses.fields(record))
    assert len(header) == len(row)
    assert status.startswith("status: ")


def test_free_variable_lp_through_product():
    # min t s.t. t - x1 = 1 with x1 >= 0 free-standing: optimum t = 1 at x1 = 0.
    # The free variable t is modeled by a Lorentz block (dummy, t).
    oracle = ProductBarrier([SecondOrderBarrier(2), NonnegativeBarrier(1)])
    A = np.array([[0.0, 1.0, -1.0]])
    prob = ProblemData(A, np.array([1.0]), np.array([0.0, 1.0, 0.0]))
    res = solve(prob, oracle, options=SolverOptions(optim_tol=1e-8))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj - 1.0) <= 1e-6


@pytest.mark.parametrize("case", ["lp", "random_lp", "primal_infeasible"])
def test_residuals_computed_once_per_iterate(monkeypatch, case):
    if case == "lp":
        prob, oracle, x0 = lp_problem(), NonnegativeBarrier(2), None
    elif case == "random_lp":
        prob, x0 = random_lp(30, 80, 0)
        oracle = NonnegativeBarrier(80)
    else:
        prob = ProblemData(
            np.array([[1.0, 0.0]]), np.array([-1.0]), np.array([1.0, 1.0])
        )
        oracle, x0 = NonnegativeBarrier(2), None
    calls = []
    count_calls(monkeypatch, nsconic.solver, "residuals", calls)
    res = solve(prob, oracle, x0)
    assert res.iterations > 0
    # once at the start and once per recorded iterate; the result reuses them
    assert len(calls) == res.iterations + 1


def test_proximity_evaluated_once_per_oracle_result(monkeypatch):
    calls = []
    count_calls(monkeypatch, nsconic.solver, "proximity", calls)
    prob, x_hat = random_lp(30, 80, 0)
    res = solve(prob, NonnegativeBarrier(80), x_hat)
    assert res.status is SolverStatus.OPTIMAL
    # calls holds every oracle result alive, so no id is reused
    ids = [id(ev) for _, ev, _ in calls]
    assert len(ids) == len(set(ids))
    # every iteration accepts a predictor point whose proximity was computed
    assert len(calls) >= res.iterations


def _corrector_failing_at(monkeypatch, call, error=None):
    """Make the call-th corrector phase of the next solves raise error."""
    real = nsconic.solver._corrector
    count = [0]

    def failing(*args):
        count[0] += 1
        if count[0] == call:
            raise error or LineSearchError("corrector step stalled")
        return real(*args)

    monkeypatch.setattr(nsconic.solver, "_corrector", failing)


def test_corrector_failure_at_a_certifying_point_keeps_the_status(monkeypatch):
    # the last predictor step already lands on a point that certifies
    # optimality; a corrector failure there must not discard it
    clean = solve(lp_problem(), NonnegativeBarrier(2))
    _corrector_failing_at(monkeypatch, clean.iterations)
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.OPTIMAL
    assert res.iterations == clean.iterations == len(res.history)
    assert res.history[-1].corrector_steps == 0
    assert abs(res.p_obj - 2.0) <= 1e-5


def test_corrector_failure_short_of_certification_is_an_error(monkeypatch):
    clean = solve(lp_problem(), NonnegativeBarrier(2))
    _corrector_failing_at(monkeypatch, clean.iterations - 1)
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.NUMERICAL_ERROR
    assert "corrector step stalled" in res.status_string


def test_a_stalled_corrector_counts_its_trials(monkeypatch):
    # the predictor point has proximity 0.3, the first centering trial 0.2
    # and every later one 0.25, so the second centering search stalls
    values = iter([0.3, 0.2])
    monkeypatch.setattr(nsconic.solver, "proximity", lambda *args: next(values, 0.25))
    evals = []
    real_eval = Barrier.eval

    def counted_eval(self, x):
        evals.append(x)
        return real_eval(self, x)

    monkeypatch.setattr(Barrier, "eval", counted_eval)
    alphas, caps = _record_line_searches(monkeypatch)
    res = solve(lp_problem(), NonnegativeBarrier(2))
    assert res.status is SolverStatus.NUMERICAL_ERROR
    assert "corrector step stalled" in res.status_string
    (rec,) = res.history
    assert rec.corrector_steps == 0
    # halving from the cap to MIN_STEP of it: 60 trials
    n = 1 + round(-np.log2(nsconic.solver.MIN_STEP))
    assert n == 60 and rec.corr_trials == 1 + n
    assert len(evals) == 1 + rec.pred_trials + rec.corr_trials
    # one predictor and two corrector searches; the stalled one is the cold
    # search, from its cap halving down to 2^-59 of it
    assert len(caps) == 3 and len(alphas) == rec.pred_trials + 1 + n
    assert alphas[-n:] == [caps[-1] * 0.5**k for k in range(n)]


def test_singular_system_in_the_corrector_returns_the_last_recorded_iterate(
    monkeypatch,
):
    # the unrecorded predictor point of the failing iteration is dropped, so
    # the result reports the point of the last history record
    _corrector_failing_at(monkeypatch, 4, SingularSystemError("singular"))
    prob, x_hat = random_lp(10, 25, 0)
    res = solve(prob, NonnegativeBarrier(25), x_hat)
    assert res.status is SolverStatus.NUMERICAL_ERROR
    assert res.iterations == len(res.history) == 3
    assert res.residual_norms["primal"] == res.history[-1].primal_norm
    assert res.residual_norms["mu"] == res.history[-1].mu


def test_lp_solves_never_densify_A(monkeypatch):
    # the diagonal LP Hessian keeps the normal-matrix build sparse
    def densify(self):
        raise AssertionError("A was densified")

    monkeypatch.setattr(SparseMatrix, "toarray", densify)
    prob, x_hat = random_lp(30, 80, 0)
    res = solve(prob, NonnegativeBarrier(80), x_hat)
    assert res.status is SolverStatus.OPTIMAL
    cones = [ConeSpec("lp", 30), ConeSpec("lp", 50)]
    res = solve_cones(prob.c, prob.A, prob.b, cones)
    assert res.status is SolverStatus.OPTIMAL


@pytest.mark.parametrize("case", ["random_lp", "edesign"])
def test_one_oracle_evaluation_at_the_start_point(monkeypatch, case):
    if case == "random_lp":
        prob, x0 = random_lp(20, 50, 0)
        oracle = NonnegativeBarrier(50)
    else:
        prob, oracle, x0 = build_edesign(random_design_matrix(4, 8, seed=1))
    evals, trials = [], []
    real_eval, real_step = Barrier.eval, Iterate.step

    def counted_eval(self, x):
        evals.append(np.array(x))
        return real_eval(self, x)

    def counted_step(self, d, alpha):
        zt = real_step(self, d, alpha)
        if zt.tau > 0.0 and zt.kappa > 0.0:  # only these trials reach the oracle
            trials.append(alpha)
        return zt

    monkeypatch.setattr(Barrier, "eval", counted_eval)
    monkeypatch.setattr(Iterate, "step", counted_step)
    res = solve(prob, oracle, x0)
    assert res.status is SolverStatus.OPTIMAL
    assert len(evals) == 1 + len(trials)
    assert sum(np.array_equal(x, x0) for x in evals) == 1
    # the history counts every line-search trial
    assert len(evals) == 1 + sum(r.pred_trials + r.corr_trials for r in res.history)


def _record_line_searches(monkeypatch):
    """Record every trial step and every boundary cap, in call order."""
    alphas, caps = [], []
    real_step, real_cap = Iterate.step, nsconic.solver._boundary_cap

    def counted_step(self, d, alpha):
        alphas.append(alpha)
        return real_step(self, d, alpha)

    def counted_cap(z, d):
        caps.append(real_cap(z, d))
        return caps[-1]

    monkeypatch.setattr(Iterate, "step", counted_step)
    monkeypatch.setattr(nsconic.solver, "_boundary_cap", counted_cap)
    return alphas, caps


def _predictor_searches(res, alphas, caps):
    """(cap, trial steps) of each iteration's predictor search.

    Each iteration makes one search per predictor and corrector step, in that
    order, with the trial counts its record gives.
    """
    searches, a, c = [], 0, 0
    for rec in res.history:
        searches.append((caps[c], alphas[a : a + rec.pred_trials]))
        a += rec.pred_trials + rec.corr_trials
        c += 1 + rec.corrector_steps
    assert (a, c) == (len(alphas), len(caps))
    return searches


def _ratios(trials):
    return [b / a for a, b in zip(trials, trials[1:])]


def _lp_case():
    prob, x0 = random_lp(20, 50, 0)
    return prob, NonnegativeBarrier(50), x0


def _edesign_case():
    return build_edesign(random_design_matrix(4, 8, seed=1))


def _fitted_start(fit, p0):
    """The positive root a of fit a^2 + c a - c = 0, c = THETA * PRED_BETA - p0:
    where p0 + fit a^2 / (1 - a) reaches THETA * PRED_BETA."""
    c = nsconic.solver.THETA * nsconic.solver.PRED_BETA - p0
    return 2.0 * c / (c + np.sqrt(c * c + 4.0 * fit * c))


@pytest.mark.parametrize("case", [_lp_case, _edesign_case], ids=["random_lp", "edesign"])
def test_predictor_starts_near_its_last_step(monkeypatch, case):
    prob, oracle, x0 = case()
    accepted = []  # (step, proximity) each predictor search accepted
    real_predictor = nsconic.solver._predictor

    def predictor(*args):
        out = real_predictor(*args)
        accepted.append(out[2:4])
        return out

    monkeypatch.setattr(nsconic.solver, "_predictor", predictor)
    alphas, caps = _record_line_searches(monkeypatch)
    res = solve(prob, oracle, x0)
    assert res.status is SolverStatus.OPTIMAL
    searches = _predictor_searches(res, alphas, caps)
    assert len(accepted) == len(searches) == len(res.history)
    fit, p0, warm = 0.0, 0.0, 0
    for (cap, trials), rec, (alpha, p) in zip(searches, res.history, accepted):
        # every search starts at the root of the proximity model fitted to
        # the search before, never above the cap; the first has no fit, so
        # its root is 1 and it starts at the cap
        start = _fitted_start(fit, p0)
        # no search here is cold
        assert start >= nsconic.solver.COLD_START
        np.testing.assert_allclose(trials[0], min(cap, start), rtol=1e-14)
        assert trials[-1] == rec.step == alpha and p <= nsconic.solver.PRED_BETA
        f = nsconic.solver.WARM_FACTOR
        np.testing.assert_allclose(_ratios(trials), f, rtol=1e-12)
        warm += trials[0] < cap
        fit = max(p - p0, 0.0) * (1.0 - alpha) / alpha**2
        p0 = rec.prox
    assert warm > 0


@pytest.mark.parametrize("p0", [0.0, 0.03, 0.07])
@pytest.mark.parametrize("fit", [1e-3, 0.3, 2.5, 9.0, 1e4])
def test_predictor_start_is_the_root_of_the_proximity_model(p0, fit):
    target = nsconic.solver.THETA * nsconic.solver.PRED_BETA
    a = nsconic.solver._predictor_start(fit, p0)
    assert 0.0 < a < 1.0
    assert abs(p0 + fit * a * a / (1.0 - a) - target) <= 1e-12


def test_predictor_start_without_a_fit():
    start = nsconic.solver._predictor_start
    # K -> 0: the root rises to 1
    roots = [start(k, 0.05) for k in (1e-4, 1e-8, 1e-12)]
    assert roots == sorted(roots) and 1.0 - roots[-1] < 1e-11
    # the first search, from the central start, has no fit: its root is
    # exactly 1, so it starts at the cap, which is at most 1
    assert start(0.0, 0.0) == 1.0


def test_predictor_takes_few_trials_on_an_edesign():
    # the size and tolerance of the edesign benchmark workload
    prob, oracle, x0 = build_edesign(random_design_matrix(200, 400, seed=0))
    res = solve(prob, oracle, x0, SolverOptions(optim_tol=1e-8))
    assert res.status is SolverStatus.OPTIMAL
    trials = [rec.pred_trials for rec in res.history]
    assert np.mean(trials) < 1.5


def _reject_predictor_trials(monkeypatch, rejects):
    """Answer the first rejects[k] trials of the k-th predictor search (from 1)
    as exterior points."""
    state = {"pred": 0, "trial": 0, "active": False}
    real_predictor, real_eval = nsconic.solver._predictor, Barrier.eval

    def predictor(*args):
        state.update(pred=state["pred"] + 1, trial=0, active=True)
        try:
            return real_predictor(*args)
        finally:
            state["active"] = False

    def eval_(self, x):
        if state["active"]:
            state["trial"] += 1
            if state["trial"] <= rejects.get(state["pred"], 0):
                return nsconic.barriers.EXTERIOR
        return real_eval(self, x)

    monkeypatch.setattr(nsconic.solver, "_predictor", predictor)
    monkeypatch.setattr(Barrier, "eval", eval_)


def test_predictor_starts_cold_below_cold_start(monkeypatch):
    # the second predictor search gets a start below COLD_START, and its
    # first trial is rejected
    _reject_predictor_trials(monkeypatch, {2: 1})
    starts, real_start = [], nsconic.solver._predictor_start

    def predictor_start(fit, p0):
        starts.append(real_start(fit, p0))
        return nsconic.solver.COLD_START / 2 if len(starts) == 2 else starts[-1]

    monkeypatch.setattr(nsconic.solver, "_predictor_start", predictor_start)
    alphas, caps = _record_line_searches(monkeypatch)
    prob, oracle, x0 = _lp_case()
    res = solve(prob, oracle, x0)
    assert res.status is SolverStatus.OPTIMAL
    searches = _predictor_searches(res, alphas, caps)
    (_, first), (cap2, second) = searches[:2]
    # the real start of the second search is warm
    assert starts[1] >= nsconic.solver.COLD_START
    # a start below COLD_START: the search starts at the cap and halves
    assert second[0] == cap2 and len(second) >= 2
    assert _ratios(second) == [nsconic.solver.LS_FACTOR] * (len(second) - 1)


def test_predictor_starts_at_the_fitted_root_after_a_tiny_step(monkeypatch):
    # reject the first 35 trials of the first predictor search: it accepts a
    # step far below COLD_START, yet the fit from that step puts the second
    # search's start well above it
    _reject_predictor_trials(monkeypatch, {1: 35})
    accepted = []  # (step, proximity) each predictor search accepted
    rejecting_predictor = nsconic.solver._predictor

    def predictor(*args):
        out = rejecting_predictor(*args)
        accepted.append(out[2:4])
        return out

    monkeypatch.setattr(nsconic.solver, "_predictor", predictor)
    alphas, caps = _record_line_searches(monkeypatch)
    prob, oracle, x0 = _lp_case()
    res = solve(prob, oracle, x0)
    assert res.status is SolverStatus.OPTIMAL
    searches = _predictor_searches(res, alphas, caps)
    (cap1, first), (cap2, second) = searches[:2]
    alpha, p = accepted[0]
    assert len(first) == 36 and first[0] == cap1 and first[-1] == alpha
    assert alpha < nsconic.solver.COLD_START / 2
    # the first search stepped from the central start (proximity 0)
    start = _fitted_start(p * (1.0 - alpha) / alpha**2, res.history[0].prox)
    assert 0.37 < start < 0.38
    np.testing.assert_allclose(second[0], min(cap2, start), rtol=1e-14)
    np.testing.assert_allclose(_ratios(second), nsconic.solver.WARM_FACTOR)


def test_a_long_predictor_search_never_restarts_at_the_cap(monkeypatch):
    # reject the first 70 trials of the first predictor search: trials 61-71
    # carry on down by WARM_FACTOR from the 60th
    _reject_predictor_trials(monkeypatch, {1: 70})
    alphas, caps = _record_line_searches(monkeypatch)
    prob, oracle, x0 = _lp_case()
    res = solve(prob, oracle, x0)
    assert res.status is SolverStatus.OPTIMAL
    cap, first = _predictor_searches(res, alphas, caps)[0]
    assert len(first) == 71 and first[0] == cap and first[-1] == res.history[0].step
    assert cap not in first[1:]
    np.testing.assert_allclose(_ratios(first[59:]), nsconic.solver.WARM_FACTOR)
