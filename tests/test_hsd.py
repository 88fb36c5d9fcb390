import re

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.optimize import linprog
from _util import (
    dense_newton_reference,
    direction_as_vector,
    random_mixed_cone,
    random_problem,
    random_state,
    sample_block,
    traced_peak,
)

import nsconic.hsd
from nsconic.barriers import NonnegativeBarrier, ProductBarrier
from nsconic.cones import ConeSpec, solve_cones
from nsconic.generators import random_lp
from nsconic.hsd import (
    Direction,
    Iterate,
    NewtonRhs,
    ProblemData,
    SingularSystemError,
    centrality_residual,
    gap,
    newton_solve,
    proximity,
    residuals,
)
from nsconic.linalg import DiagonalHessian, DimensionMismatch, SparseMatrix
from nsconic.solver import SolverStatus


def predictor_rhs(z, prob):
    res = residuals(z, prob)
    return NewtonRhs(-res.primal, -res.dual, -res.gap, -z.s, -z.kappa)


def test_problem_data_validation():
    A = SparseMatrix.coerce(np.eye(2))
    ProblemData(A, np.ones(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        ProblemData(A, np.ones(3), np.ones(2))
    # b and c must be 1-D, even when their size fits
    for mat, b, c, message in [
        (np.eye(4), np.ones((2, 2)), np.ones(4), "b has shape (2, 2), expected (4,)"),
        (np.eye(4), np.ones(4), np.ones((1, 4)), "c has shape (1, 4), expected (4,)"),
        (np.ones((1, 2)), 1.0, np.ones(2), "b has shape (), expected (1,)"),
    ]:
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            ProblemData(mat, b, c)
    with pytest.raises(ValueError):
        ProblemData(A, np.array([1.0, np.inf]), np.ones(2))
    # complex data is refused, not cast to its real part
    for mat, b, c, name in [
        (np.array([[1 + 2j, 1.0]]), [1.0], [1.0, 1.0], "A"),
        (A, [1.0, 1j], np.ones(2), "b"),
        (A, np.ones(2), np.array([1.0, 0j]), "c"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be real"):
            ProblemData(mat, b, c)


def test_residuals_hand_case():
    prob = ProblemData(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    z = Iterate(
        np.array([1.0, 1.0]), np.array([2.0, 3.0]), 2.0, np.array([1.0, 1.0]), 3.0
    )
    res = residuals(z, prob)
    np.testing.assert_array_equal(res.primal, [0.0, 3.0])
    np.testing.assert_array_equal(res.dual, [-2.0, 0.0])
    assert res.gap == -5.0
    np.testing.assert_allclose(res.norm(), np.sqrt(9.0 + 4.0 + 25.0))


def test_residuals_are_linear_in_z():
    rng = np.random.default_rng(0)
    oracle = random_mixed_cone(rng, 8)
    prob = random_problem(oracle, 3, rng)
    z = random_state(prob, oracle, rng)
    res = residuals(z, prob)
    zt = Iterate(3.0 * z.y, 3.0 * z.x, 3.0 * z.tau, 3.0 * z.s, 3.0 * z.kappa)
    rest = residuals(zt, prob)
    np.testing.assert_allclose(rest.primal, 3.0 * res.primal, rtol=1e-14)
    np.testing.assert_allclose(rest.dual, 3.0 * res.dual, rtol=1e-14)
    np.testing.assert_allclose(rest.gap, 3.0 * res.gap, rtol=1e-14)


def test_embedding_vectors_unpack_in_block_order():
    rng = np.random.default_rng(8)
    oracle = random_mixed_cone(rng, 8)
    prob = random_problem(oracle, 3, rng)
    z = random_state(prob, oracle, rng)
    w = random_state(prob, oracle, rng)
    d = Direction(w.y, w.x, w.tau, w.s, w.kappa)
    rhs = NewtonRhs(*d)
    y, x, tau, s, kappa = z
    assert y is z.y and x is z.x and tau is z.tau and s is z.s and kappa is z.kappa
    dy, dx, dtau, ds, dkappa = d
    assert dy is d.dy and dx is d.dx and dtau is d.dtau
    assert ds is d.ds and dkappa is d.dkappa
    r1, r2, r3, r4, r5 = rhs
    assert r1 is rhs.r1 and r2 is rhs.r2 and r3 is rhs.r3
    assert r4 is rhs.r4 and r5 is rhs.r5
    # the blockwise step is the field-by-field one, bit for bit
    alpha = 0.37
    zt = z.step(d, alpha)
    expected = [
        z.y + alpha * d.dy,
        z.x + alpha * d.dx,
        z.tau + alpha * d.dtau,
        z.s + alpha * d.ds,
        z.kappa + alpha * d.dkappa,
    ]
    for got, want in zip(zt, expected):
        assert np.array_equal(got, want)


def test_gap_hand_case():
    z = Iterate(
        np.zeros(0), np.array([1.0, 2.0]), 2.0, np.array([3.0, 4.0]), 5.0
    )
    # (1*3 + 2*4 + 2*5) / (2 + 1) = 21 / 3
    assert gap(z, 2.0) == 7.0


def test_centrality_residual_zero_on_central_path():
    rng = np.random.default_rng(1)
    oracle = random_mixed_cone(rng, 10)
    x = sample_block(oracle, rng)
    g = oracle.eval(x).gradient
    t = 0.37
    tau = 1.7
    z = Iterate(np.zeros(2), x, tau, -t * g, t / tau)
    psi_x, psi_k = centrality_residual(z, t, g)
    np.testing.assert_array_equal(psi_x, np.zeros(oracle.dim))
    assert psi_k == 0.0


def test_proximity_zero_on_central_path_and_positive_off():
    rng = np.random.default_rng(2)
    oracle = random_mixed_cone(rng, 9)
    x = sample_block(oracle, rng)
    ev = oracle.eval(x)
    tau = 1.3
    # choose s, kappa so that mu equals t exactly and psi vanishes
    t = 0.8
    z = Iterate(np.zeros(1), x, tau, -t * ev.gradient, t / tau)
    assert abs(gap(z, oracle.nu) - t) <= 1e-14 * t
    assert proximity(z, ev, oracle.nu) <= 1e-12
    z_off = Iterate(z.y, z.x, z.tau, z.s * 1.05, z.kappa)
    assert proximity(z_off, ev, oracle.nu) > 1e-3


def test_proximity_matches_dense_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        oracle = random_mixed_cone(rng, 12)
        prob = random_problem(oracle, 2, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        mu = gap(z, oracle.nu)
        psi_x, _ = centrality_residual(z, mu, ev.gradient)
        expected = (
            np.sqrt(
                psi_x @ np.linalg.solve(ev.hessian.toarray(), psi_x)
                + (z.tau * z.kappa - mu) ** 2
            )
            / mu
        )
        actual = proximity(z, ev, oracle.nu)
        np.testing.assert_allclose(actual, expected, rtol=1e-9)


def test_proximity_scale_invariant():
    rng = np.random.default_rng(4)
    oracle = random_mixed_cone(rng, 10)
    prob = random_problem(oracle, 3, rng)
    z = random_state(prob, oracle, rng)
    p0 = proximity(z, oracle.eval(z.x), oracle.nu)
    for t in (0.25, 4.0):
        zt = Iterate(t * z.y, t * z.x, t * z.tau, t * z.s, t * z.kappa)
        pt = proximity(zt, oracle.eval(zt.x), oracle.nu)
        np.testing.assert_allclose(pt, p0, rtol=1e-9)


def test_newton_zero_rhs_gives_zero_direction():
    rng = np.random.default_rng(5)
    oracle = random_mixed_cone(rng, 8)
    prob = random_problem(oracle, 3, rng)
    z = random_state(prob, oracle, rng)
    ev = oracle.eval(z.x)
    mu = gap(z, oracle.nu)
    rhs = NewtonRhs(np.zeros(prob.m), np.zeros(prob.n), 0.0, np.zeros(prob.n), 0.0)
    d = newton_solve(prob, z, mu, ev, rhs)
    assert np.all(direction_as_vector(d) == 0.0)


def test_newton_matches_dense_reference():
    rng = np.random.default_rng(6)
    for trial in range(20):
        oracle = random_mixed_cone(rng, 20)
        m = int(rng.integers(1, 6))
        prob = random_problem(oracle, m, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        mu = gap(z, oracle.nu)
        if trial % 2 == 0:
            rhs = predictor_rhs(z, prob)
        else:
            rhs = NewtonRhs(
                rng.standard_normal(m),
                rng.standard_normal(prob.n),
                float(rng.standard_normal()),
                rng.standard_normal(prob.n),
                float(rng.standard_normal()),
            )
        d = newton_solve(prob, z, mu, ev, rhs)
        ref = dense_newton_reference(prob, z, mu, ev, rhs)
        got = direction_as_vector(d)
        err = np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))
        assert err <= 1e-8


def test_newton_m_zero_edge():
    rng = np.random.default_rng(7)
    oracle = NonnegativeBarrier(4)
    prob = ProblemData(
        SparseMatrix(0, 4, [], [], []), np.zeros(0), rng.standard_normal(4)
    )
    z = random_state(prob, oracle, rng)
    ev = oracle.eval(z.x)
    mu = gap(z, oracle.nu)
    rhs = predictor_rhs(z, prob)
    d = newton_solve(prob, z, mu, ev, rhs)
    ref = dense_newton_reference(prob, z, mu, ev, rhs)
    np.testing.assert_allclose(direction_as_vector(d), ref, atol=1e-10)


def test_newton_scalar_problem():
    oracle = NonnegativeBarrier(1)
    prob = ProblemData(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    z = Iterate(np.array([0.5]), np.array([2.0]), 1.5, np.array([0.7]), 0.9)
    ev = oracle.eval(z.x)
    mu = gap(z, oracle.nu)
    rhs = predictor_rhs(z, prob)
    d = newton_solve(prob, z, mu, ev, rhs)
    ref = dense_newton_reference(prob, z, mu, ev, rhs)
    np.testing.assert_allclose(direction_as_vector(d), ref, rtol=1e-10)


def test_predictor_step_contracts_residuals():
    rng = np.random.default_rng(8)
    for _ in range(10):
        oracle = random_mixed_cone(rng, 15)
        m = int(rng.integers(1, 5))
        prob = random_problem(oracle, m, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        mu = gap(z, oracle.nu)
        d = newton_solve(prob, z, mu, ev, predictor_rhs(z, prob))
        res = residuals(z, prob)
        scale = max(1.0, res.norm())
        for alpha in (0.1, 0.5, 0.9):
            res_a = residuals(z.step(d, alpha), prob)
            np.testing.assert_allclose(
                res_a.primal, (1 - alpha) * res.primal, atol=1e-9 * scale
            )
            np.testing.assert_allclose(
                res_a.dual, (1 - alpha) * res.dual, atol=1e-9 * scale
            )
            np.testing.assert_allclose(
                res_a.gap, (1 - alpha) * res.gap, atol=1e-9 * scale
            )


def test_corrector_step_preserves_residuals():
    rng = np.random.default_rng(9)
    for _ in range(10):
        oracle = random_mixed_cone(rng, 12)
        m = int(rng.integers(1, 5))
        prob = random_problem(oracle, m, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        mu = gap(z, oracle.nu)
        psi_x, psi_k = centrality_residual(z, mu, ev.gradient)
        rhs = NewtonRhs(np.zeros(m), np.zeros(prob.n), 0.0, -psi_x, -psi_k)
        d = newton_solve(prob, z, mu, ev, rhs)
        res = residuals(z, prob)
        scale = max(1.0, res.norm())
        res_a = residuals(z.step(d, 0.7), prob)
        np.testing.assert_allclose(res_a.primal, res.primal, atol=1e-9 * scale)
        np.testing.assert_allclose(res_a.dual, res.dual, atol=1e-9 * scale)
        np.testing.assert_allclose(res_a.gap, res.gap, atol=1e-9 * scale)


def test_newton_redundant_rows_survive_via_regularization():
    # duplicated equality rows make the reduced matrix singular; the shifted
    # retry must still produce a finite direction
    oracle = NonnegativeBarrier(2)
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    prob = ProblemData(A, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    z = Iterate(np.zeros(2), np.ones(2), 1.0, np.ones(2), 1.0)
    ev = oracle.eval(z.x)
    d = newton_solve(prob, z, gap(z, oracle.nu), ev, predictor_rhs(z, prob))
    assert np.isfinite(direction_as_vector(d)).all()


def test_newton_shifted_retry_adds_no_second_normal_matrix(monkeypatch):
    # A = [I; I] with x = s = 1 and tau = kappa = 1 gives mu = 1 and N =
    # [[I, I], [I, I]], so potrf meets an exactly zero pivot and the retry runs;
    # it shifts N's diagonal in place instead of building an identity and a sum
    n = 300
    m = 2 * n
    oracle = NonnegativeBarrier(n)
    prob = ProblemData(np.vstack([np.eye(n), np.eye(n)]), np.ones(m), np.ones(n))
    z = Iterate(np.zeros(m), np.ones(n), 1.0, np.ones(n), 1.0)
    ev = oracle.eval(z.x)
    mu = gap(z, oracle.nu)
    assert mu == 1.0
    rhs = predictor_rhs(z, prob)
    calls = []  # shapes only, so the wrapper keeps no matrix alive
    real = nsconic.hsd.try_chol
    monkeypatch.setattr(
        nsconic.hsd, "try_chol", lambda a, **kw: calls.append(a.shape) or real(a, **kw)
    )
    out = []
    peak = traced_peak(lambda: out.append(newton_solve(prob, z, mu, ev, rhs)))
    assert calls == [(m, m), (m, m)]
    assert peak <= 2.5 * 8.0 * m**2
    assert np.isfinite(direction_as_vector(out[0])).all()


def test_newton_factors_the_normal_matrix_without_a_copy():
    # N is factored where the diagonal Hessian's normal() leaves it, so a
    # non-singular solve holds one m x m array, not N and a copy for potrf
    m, n = 300, 900
    rng = np.random.default_rng(29)
    R = sps.random(m, n - m, density=0.02, random_state=rng, format="csc")
    prob = ProblemData(sps.hstack([sps.eye(m), R]), np.ones(m), np.ones(n))
    oracle = NonnegativeBarrier(n)
    x = rng.uniform(0.5, 2.0, n)
    z = Iterate(np.zeros(m), x, 1.0, 1.0 / x, 1.0)
    ev = oracle.eval(z.x)
    mu = gap(z, oracle.nu)
    rhs = predictor_rhs(z, prob)
    newton_solve(prob, z, mu, ev, rhs)  # warm-up: caches such as A's transpose
    out = []
    peak = traced_peak(lambda: out.append(newton_solve(prob, z, mu, ev, rhs)))
    assert peak <= 1.75 * 8.0 * m**2
    assert np.isfinite(direction_as_vector(out[0])).all()


def test_lp_solves_the_same_from_the_pair_index_and_the_sparse_product():
    # every random_lp is dense and past the column-pair bound, so this [I | R]
    # LP is the one solve here whose N comes from A's pair index; with the
    # index's cached slot set to None the second solve takes the sparse
    # product, and every bit of the two solves must agree
    m, n = 60, 200
    rng = np.random.default_rng(37)
    R = sps.random(m, n - m, density=0.02, random_state=rng, format="csc")
    A = SparseMatrix.coerce(sps.hstack([sps.eye(m), R]))
    b = A.matvec(rng.uniform(0.5, 2.0, n))
    c = A.matvec(rng.standard_normal(m), transpose=True) + rng.uniform(0.5, 2.0, n)
    assert A._col_pairs is not None
    first = solve_cones(c, A, b, [ConeSpec("lp", n)])
    A._col_pairs = None
    second = solve_cones(c, A, b, [ConeSpec("lp", n)])
    assert first.status is SolverStatus.OPTIMAL
    assert first.history == second.history
    for name in ("x", "y", "s"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    highs = linprog(c, A_eq=A.toarray(), b_eq=b, bounds=(0, None), method="highs")
    assert highs.status == 0
    assert abs(first.p_obj - highs.fun) <= 1e-6 * (1.0 + abs(highs.fun))


# diagonal Hessians take the sparse path through newton_solve and proximity;
# the random mixed cones above mostly exercise the dense one

DIAGONAL_ORACLES = [
    NonnegativeBarrier(14),
    ProductBarrier([NonnegativeBarrier(5), NonnegativeBarrier(1), NonnegativeBarrier(8)]),
]


def sparse_problem(n, m, rng):
    """Random problem whose A is ~30% dense plus an identity block."""
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3)
    A[:, :m] += np.eye(m)
    return ProblemData(A, rng.standard_normal(m), rng.standard_normal(n))


@pytest.mark.parametrize("oracle", DIAGONAL_ORACLES, ids=["nonneg", "lp_product"])
def test_newton_on_diagonal_hessian_matches_dense_reference(oracle):
    rng = np.random.default_rng(10)
    for trial in range(10):
        m = int(rng.integers(1, 8))
        prob = sparse_problem(oracle.dim, m, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        assert isinstance(ev.hessian, DiagonalHessian)
        mu = gap(z, oracle.nu)
        rhs = NewtonRhs(
            rng.standard_normal(m),
            rng.standard_normal(prob.n),
            float(rng.standard_normal()),
            rng.standard_normal(prob.n),
            float(rng.standard_normal()),
        )
        d = direction_as_vector(newton_solve(prob, z, mu, ev, rhs))
        ref = dense_newton_reference(prob, z, mu, ev, rhs)
        assert np.linalg.norm(d - ref) / max(1.0, np.linalg.norm(ref)) <= 1e-8
        # the predictor direction contracts the residuals linearly
        res = residuals(z, prob)
        pred = newton_solve(prob, z, mu, ev, predictor_rhs(z, prob))
        scale = max(1.0, res.norm())
        for alpha in (0.25, 0.75):
            res_a = residuals(z.step(pred, alpha), prob)
            err = max(
                np.linalg.norm(res_a.primal - (1 - alpha) * res.primal),
                np.linalg.norm(res_a.dual - (1 - alpha) * res.dual),
                abs(res_a.gap - (1 - alpha) * res.gap),
            )
            assert err <= 1e-9 * scale


@pytest.mark.parametrize("oracle", DIAGONAL_ORACLES, ids=["nonneg", "lp_product"])
def test_proximity_on_diagonal_hessian_matches_dense_reference(oracle):
    rng = np.random.default_rng(11)
    for _ in range(10):
        prob = sparse_problem(oracle.dim, 3, rng)
        z = random_state(prob, oracle, rng)
        ev = oracle.eval(z.x)
        mu = gap(z, oracle.nu)
        psi_x, _ = centrality_residual(z, mu, ev.gradient)
        H = ev.hessian.toarray()
        expected = np.sqrt(psi_x @ np.linalg.solve(H, psi_x) + (z.tau * z.kappa - mu) ** 2) / mu
        np.testing.assert_allclose(proximity(z, ev, oracle.nu), expected, rtol=1e-9)


def test_an_infinite_bordering_scalar_raises():
    # at mu = inf the bordering scalar's gamma = mu / tau^2 is not finite
    prob, x_hat = random_lp(5, 12, 0)
    oracle = NonnegativeBarrier(prob.n)
    ev = oracle.eval(x_hat)
    z = Iterate(np.zeros(prob.m), x_hat, 1.0, -ev.gradient, 1.0)
    message = "tau bordering lost positive definiteness"
    with pytest.raises(SingularSystemError, match=message):
        newton_solve(prob, z, np.inf, ev, predictor_rhs(z, prob))
