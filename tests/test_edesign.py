import numpy as np
import pytest

from nsconic.barriers import fd_check
from nsconic.edesign import EDesignBarrier, build_edesign, random_design_matrix
from nsconic.solver import SolverOptions, SolverStatus, solve

from _util import grid_objective, traced_peak


def sample_design_point(V, rng):
    """Interior (t, x): random positive weights, t below lambda_min."""
    n, p = V.shape
    x = rng.uniform(0.5, 2.0, p)
    lam = np.linalg.eigvalsh((V * x) @ V.T)[0]
    assert lam > 0.0
    t = rng.uniform(0.1, 0.9) * lam
    return np.concatenate([[t], x])


def test_barrier_hand_values_identity_design():
    # V = I2, t = 0.1, x = (1, 1): M = 0.9 I
    barrier = EDesignBarrier(np.eye(2))
    assert barrier.dim == 3
    assert barrier.nu == 4.0
    ev = barrier.eval(np.array([0.1, 1.0, 1.0]))
    assert ev.in_interior
    assert ev.value == pytest.approx(-2.0 * np.log(0.9), abs=1e-14)
    assert ev.gradient == pytest.approx([2.0 / 0.9, -1.0 / 0.9 - 1.0, -1.0 / 0.9 - 1.0])
    expected_h = np.array(
        [
            [2.0 / 0.81, -1.0 / 0.81, -1.0 / 0.81],
            [-1.0 / 0.81, 1.0 / 0.81 + 1.0, 0.0],
            [-1.0 / 0.81, 0.0, 1.0 / 0.81 + 1.0],
        ]
    )
    assert ev.hessian.toarray() == pytest.approx(expected_h, abs=1e-13)


def test_barrier_boundary_and_exterior():
    barrier = EDesignBarrier(np.eye(2))
    # t equal to lambda_min makes M singular
    assert not barrier.contains(np.array([1.0, 1.0, 1.0]))
    assert not barrier.contains(np.array([1.5, 1.0, 1.0]))
    assert not barrier.contains(np.array([0.1, 0.0, 1.0]))
    assert not barrier.contains(np.array([0.1, 1.0, -0.5]))
    # negative t is fine as long as x > 0
    assert barrier.contains(np.array([-3.0, 1.0, 1.0]))


def test_barrier_rejects_bad_design_matrix():
    with pytest.raises(ValueError):
        EDesignBarrier(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        EDesignBarrier(np.ones(4))
    with pytest.raises(ValueError):
        EDesignBarrier(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="V must be real"):
        EDesignBarrier(np.array([[1.0, 2.0 + 1.0j]]))


def test_barrier_homogeneity_identities():
    rng = np.random.default_rng(11)
    for n, p in [(1, 2), (2, 3), (3, 6), (5, 10)]:
        V = rng.standard_normal((n, p))
        barrier = EDesignBarrier(V)
        assert barrier.nu == float(n + p)
        for _ in range(20):
            v = sample_design_point(V, rng)
            ev = barrier.eval(v)
            assert ev.in_interior
            assert abs(v @ ev.gradient + barrier.nu) <= 1e-8 * barrier.nu
            resid = ev.hessian @ v + ev.gradient
            assert np.linalg.norm(resid) <= 1e-7 * np.linalg.norm(ev.gradient)
            # f(s v) = f(v) - nu log s
            s = 2.5
            ev2 = barrier.eval(s * v)
            assert ev2.value == pytest.approx(
                ev.value - barrier.nu * np.log(s), rel=1e-12
            )


def test_barrier_matches_finite_differences():
    rng = np.random.default_rng(5)
    for n, p in [(2, 4), (4, 7), (5, 10)]:
        V = rng.standard_normal((n, p))
        barrier = EDesignBarrier(V)
        for _ in range(3):
            report = fd_check(barrier, sample_design_point(V, rng))
            assert report.ok()


@pytest.mark.parametrize("n, p", [(1, 2), (5, 10), (200, 400)])
def test_tt_hessian_entry_matches_the_full_inverse_product(n, p):
    # |M^{-1}|_F^2 from lauum's lower triangle against the full Li' Li product
    rng = np.random.default_rng(7 + n)
    V = rng.standard_normal((n, p))
    v = sample_design_point(V, rng)
    ev = EDesignBarrier(V).eval(v)
    M = (V * v[1:]) @ V.T - v[0] * np.eye(n)
    Li = np.linalg.inv(np.linalg.cholesky(M))
    Minv = Li.T @ Li
    expected = np.einsum("ij,ij->", Minv, Minv)
    # the dense Hessian is its factor L, and L[0, 1:] is zero
    assert abs(ev.hessian.L[0, 0] ** 2 - expected) <= 1e-13 * expected


def test_build_edesign_structure():
    V = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
    prob, barrier, x0 = build_edesign(V)
    assert prob.m == 1 and prob.n == 4
    # single equality: weights sum to one, t unconstrained by A
    assert prob.A.toarray() == pytest.approx(np.array([[0.0, 1.0, 1.0, 1.0]]))
    assert prob.b == pytest.approx([1.0])
    assert prob.c == pytest.approx([-1.0, 0.0, 0.0, 0.0])
    assert x0[1:] == pytest.approx([1.0 / 3.0] * 3)
    uniform_info = (V * x0[1:]) @ V.T
    assert x0[0] == pytest.approx(0.5 * np.linalg.eigvalsh(uniform_info)[0])
    assert barrier.contains(x0)


def test_build_edesign_rejects_rank_deficient():
    with pytest.raises(ValueError):
        build_edesign(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_random_design_matrix():
    V = random_design_matrix(3, seed=4)
    assert V.shape == (3, 6)  # p defaults to 2n
    assert np.array_equal(V, random_design_matrix(3, 6, seed=4))
    assert not np.array_equal(V, random_design_matrix(3, 6, seed=5))
    with pytest.raises(ValueError):
        random_design_matrix(0)
    with pytest.raises(ValueError):
        random_design_matrix(4, 3)


def test_solver_identity_design():
    # V = I2: best design splits weight evenly, t* = 1/2
    prob, barrier, x0 = build_edesign(np.eye(2))
    result = solve(prob, barrier, x0, SolverOptions(optim_tol=1e-8))
    assert result.status is SolverStatus.OPTIMAL
    assert -result.p_obj == pytest.approx(0.5, abs=1e-6)
    assert result.x[1:] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_solver_scaled_design():
    # V = diag(1, 2): balance x1 = 4 x2 on the simplex, t* = 4/5
    prob, barrier, x0 = build_edesign(np.diag([1.0, 2.0]))
    result = solve(prob, barrier, x0, SolverOptions(optim_tol=1e-8))
    assert result.status is SolverStatus.OPTIMAL
    assert -result.p_obj == pytest.approx(0.8, abs=1e-6)
    assert result.x[1:] == pytest.approx([0.8, 0.2], abs=1e-6)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_solver_uniform_optimum_identity_candidates(n):
    # V = In: uniform weights, t* = 1/n
    prob, barrier, x0 = build_edesign(np.eye(n))
    result = solve(prob, barrier, x0, SolverOptions(optim_tol=1e-8))
    assert result.status is SolverStatus.OPTIMAL
    assert -result.p_obj == pytest.approx(1.0 / n, abs=1e-6)


def test_grid_objective_exact_cases():
    # grids containing the true optimizer recover it exactly
    assert grid_objective(np.eye(2), 2) == pytest.approx(0.5, abs=1e-12)
    assert grid_objective(np.diag([1.0, 2.0]), 5) == pytest.approx(0.8, abs=1e-12)
    # single row: best design concentrates on the largest |v_i|
    V = np.array([[1.0, -3.0, 2.0]])
    assert grid_objective(V, 1) == pytest.approx(9.0, abs=1e-12)


def test_grid_objective_validation():
    with pytest.raises(ValueError):
        grid_objective(np.ones((2, 7)), 4)
    with pytest.raises(ValueError):
        grid_objective(np.eye(2), 0)


def test_solver_beats_grid_oracle():
    # the solver optimum dominates every grid point and the gap closes
    V = random_design_matrix(3, 6, seed=7)
    prob, barrier, x0 = build_edesign(V)
    result = solve(prob, barrier, x0, SolverOptions(optim_tol=1e-9))
    assert result.status is SolverStatus.OPTIMAL
    assert abs(result.p_obj - result.d_obj) <= 1e-8 * max(1.0, abs(result.p_obj))
    best_grid = grid_objective(V, 30)
    t_star = -result.p_obj
    assert t_star >= best_grid - 1e-9
    assert t_star - best_grid <= 2e-3


def _reference_oracle(V, v):
    """Value, gradient and Hessian from the plain inverse of M, and the
    condition number kappa of M relative to the data it is formed from."""
    t, x = v[0], v[1:]
    n, p = V.shape
    VxV = (V * x) @ V.T
    M = VxV - t * np.eye(n)
    Minv = np.linalg.inv(M)
    S = V.T @ Minv @ V
    value = -np.linalg.slogdet(M)[1] - np.log(x).sum()
    gradient = np.concatenate([[np.trace(Minv)], -np.diag(S) - 1.0 / x])
    hessian = np.empty((1 + p, 1 + p))
    hessian[0, 0] = np.trace(Minv @ Minv)
    hessian[0, 1:] = hessian[1:, 0] = -np.einsum("ij,ij->j", V, Minv @ Minv @ V)
    hessian[1:, 1:] = S * S + np.diag(1.0 / x**2)
    kappa = (np.linalg.norm(VxV, 2) + abs(t)) * np.linalg.norm(Minv, 2)
    return value, gradient, hessian, kappa


@pytest.mark.parametrize("n, p", [(1, 2), (3, 6), (8, 20), (30, 60)])
def test_barrier_matches_inverse_formulas(n, p):
    # interior points and near-boundary ones, t = (1 - 1e-6) lambda_min, where
    # M is nearly singular; forming M - t I loses about log10(kappa) digits.
    # V is given C-ordered, F-ordered, as a strided view and as integers.
    rng = np.random.default_rng(100 + n)
    V = rng.standard_normal((n, p))
    strided = np.repeat(V, 2, axis=1)[:, ::2]
    for given in (V, np.asfortranarray(V), strided, np.rint(4.0 * V).astype(int)):
        barrier = EDesignBarrier(given)
        for frac in (None, None, None, 1.0 - 1e-6, 1.0 - 1e-6):
            x = rng.uniform(0.2, 2.0, p)
            lam = np.linalg.eigvalsh((given * x) @ given.T)[0]
            assert lam > 0.0
            t = (rng.uniform(-1.0, 0.9) if frac is None else frac) * lam
            v = np.concatenate([[t], x])
            ev = barrier.eval(v)
            assert ev.in_interior
            value, gradient, hessian, kappa = _reference_oracle(given, v)
            tol = 100.0 * np.finfo(float).eps * kappa
            assert abs(ev.value - value) <= tol * max(1.0, abs(value))
            assert np.linalg.norm(ev.gradient - gradient) <= tol * np.linalg.norm(gradient)
            H = ev.hessian.toarray()
            assert np.linalg.norm(H - hessian) <= tol * np.linalg.norm(hessian)
            np.testing.assert_array_equal(H, H.T)


def test_one_evaluation_peaks_below_two_hessians():
    # the work array, M and the Hessian, factored in place into the returned
    # L, stay below two (1+p) x (1+p) arrays (three before the work array)
    prob, barrier, x0 = build_edesign(random_design_matrix(100, seed=0))
    barrier.eval(x0)  # first-call set-up stays out of the count
    hessian_bytes = 8.0 * barrier.dim**2
    assert traced_peak(lambda: barrier.eval(x0)) <= 2.0 * hessian_bytes


def test_a_solve_peaks_below_three_and_a_half_hessians():
    # a line search frees each rejected trial's factor, and a centering step
    # its point's, before the next factor is built
    prob, barrier, x0 = build_edesign(random_design_matrix(100, seed=0))
    barrier.eval(x0)
    hessian_bytes = 8.0 * barrier.dim**2
    results = []
    opts = SolverOptions(optim_tol=1e-8)
    peak = traced_peak(lambda: results.append(solve(prob, barrier, x0, opts)))
    assert results[0].status is SolverStatus.OPTIMAL
    assert peak <= 3.5 * hessian_bytes


def test_a_benchmark_sized_solve_peaks_below_two_hessians():
    # the size and tolerance of the edesign benchmark workload: no frame holds
    # an accepted point's result during a line search, and the work array and
    # M die before the Hessian is factored, so one trial's evaluation is the peak
    prob, barrier, x0 = build_edesign(random_design_matrix(200, 400, seed=0))
    barrier.eval(x0)
    hessian_bytes = 8.0 * barrier.dim**2
    results = []
    opts = SolverOptions(optim_tol=1e-8)
    peak = traced_peak(lambda: results.append(solve(prob, barrier, x0, opts)))
    assert results[0].status is SolverStatus.OPTIMAL
    assert peak <= 1.9 * hessian_bytes
