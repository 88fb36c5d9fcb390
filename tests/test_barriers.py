import numpy as np
import pytest
from scipy.linalg import block_diag

import nsconic.barriers
import nsconic.linalg
from nsconic.barriers import (
    Barrier,
    ExponentialBarrier,
    ExteriorPointError,
    NonnegativeBarrier,
    PowerBarrier,
    ProductBarrier,
    PullbackBarrier,
    SecondOrderBarrier,
    fd_check,
)
from nsconic.cones import ConeSpec, block_oracle, solve_cones
from nsconic.edesign import EDesignBarrier
from nsconic.linalg import DenseHessian, DiagonalHessian, DimensionMismatch

from _util import count_calls, sample_block


def oracle_cases():
    """(name, oracle, sampler) triples covering every built-in barrier."""
    blocks = [
        ("nonneg5", NonnegativeBarrier(5)),
        ("soc2", SecondOrderBarrier(2)),
        ("soc6", SecondOrderBarrier(6)),
        ("exp", ExponentialBarrier()),
        ("gpow_half", PowerBarrier([0.5, 0.5])),
        ("gpow_quarters", PowerBarrier([0.25, 0.75])),
        ("gpow3", PowerBarrier([0.2, 0.3, 0.5])),
        ("free3", block_oracle(ConeSpec("free", 3))),
        (
            "product",
            ProductBarrier(
                [NonnegativeBarrier(3), SecondOrderBarrier(3), ExponentialBarrier()]
            ),
        ),
    ]
    # the samplers keep points comfortably away from the boundary so that
    # finite-difference probes stay interior
    cases = [(name, f, lambda r, f=f: sample_block(f, r)) for name, f in blocks]
    M = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.5]])
    inner = NonnegativeBarrier(3)
    cases.append(
        (
            "pullback",
            PullbackBarrier(inner, M),
            lambda r: np.linalg.solve(M, sample_block(inner, r)),
        )
    )
    return cases


# ---------------------------------------------------------------- hand cases


def test_nonneg_hand_values():
    b = NonnegativeBarrier(3)
    ev = b.eval(np.ones(3))
    assert ev.in_interior
    assert ev.value == 0.0
    np.testing.assert_array_equal(ev.gradient, [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(ev.hessian.toarray(), np.eye(3))
    np.testing.assert_array_equal(ev.hessian.half_solve(np.arange(3.0)), np.arange(3.0))

    b2 = NonnegativeBarrier(2)
    ev2 = b2.eval(np.array([2.0, 4.0]))
    np.testing.assert_allclose(ev2.value, -np.log(8.0), rtol=1e-15)
    np.testing.assert_allclose(ev2.gradient, [-0.5, -0.25])
    np.testing.assert_allclose(ev2.hessian.toarray(), np.diag([0.25, 0.0625]))

    assert not b2.eval(np.array([1.0, -1.0])).in_interior
    assert not b2.eval(np.array([1.0, 0.0])).in_interior  # boundary is exterior


def test_soc_hand_values():
    b = SecondOrderBarrier(3)
    ev = b.eval(np.array([1.0, 0.0, 0.0]))
    assert ev.value == 0.0
    np.testing.assert_allclose(ev.gradient, [-2.0, 0.0, 0.0])
    np.testing.assert_allclose(ev.hessian.toarray(), 2.0 * np.eye(3))
    assert not b.eval(np.array([1.0, 1.0, 0.0])).in_interior
    assert not b.eval(np.array([-2.0, 1.0, 0.0])).in_interior

    b2 = SecondOrderBarrier(2)
    ev2 = b2.eval(np.array([2.0, 1.0]))
    np.testing.assert_allclose(ev2.value, -np.log(3.0), rtol=1e-15)
    np.testing.assert_allclose(ev2.gradient, [-4.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
    assert abs(np.array([2.0, 1.0]) @ ev2.gradient + 2.0) < 1e-14


def test_exp_hand_values():
    b = ExponentialBarrier()
    e = np.e
    ev = b.eval(np.array([e, 1.0, 0.0]))
    assert ev.in_interior
    np.testing.assert_allclose(ev.value, -1.0, rtol=1e-15)
    np.testing.assert_allclose(ev.gradient, [-2.0 / e, -1.0, 1.0], rtol=1e-14)
    # boundary and exterior
    assert not b.eval(np.array([1.0, 1.0, 0.0])).in_interior
    assert not b.eval(np.array([1.0, 1.0, 1.0])).in_interior
    assert not b.eval(np.array([-1.0, 1.0, -5.0])).in_interior
    assert not b.eval(np.array([1.0, 0.0, -5.0])).in_interior


def test_exp_factor_holds_near_the_boundary():
    # r = x2 log(x1/x2) - x3 = 1e-11, so cond(H) is about 1e20 and potrf on
    # the formed H breaks down; L from the QR of F' still factors H
    x1, x2 = 2.0, 1e-3
    x = np.array([x1, x2, x2 * np.log(x1 / x2) - 1e-11])
    ev = ExponentialBarrier().eval(x)
    assert ev.in_interior
    L, H = ev.hessian.L, ev.hessian.toarray()
    np.testing.assert_array_equal(L, np.tril(L))
    assert (np.diag(L) > 0.0).all()
    assert np.linalg.norm(L @ L.T - H) <= 1e-12 * np.linalg.norm(H)
    # H is the closed form grad r grad r' / r^2 - hess r / r + diag(1/x1^2, 1/x2^2, 0)
    r = x2 * np.log(x1 / x2) - x[2]
    dr = np.array([x2 / x1, np.log(x1 / x2) - 1.0, -1.0])
    d2r = np.zeros((3, 3))
    d2r[:2, :2] = [[-x2 / x1**2, 1.0 / x1], [1.0 / x1, -1.0 / x2]]
    H_ref = np.outer(dr, dr) / r**2 - d2r / r + np.diag([x1**-2, x2**-2, 0.0])
    assert np.linalg.norm(H - H_ref) <= 1e-12 * np.linalg.norm(H_ref)


def test_qr_factor_of_a_singular_map_reads_as_exterior():
    # H = G'G with a zero or non-finite diagonal in R has no usable factor
    b = ExponentialBarrier()
    G = np.eye(4, 3)
    assert b._finish_qr(0.0, np.zeros(3), G).in_interior
    G[2, 2] = 0.0
    assert not b._finish_qr(0.0, np.zeros(3), G).in_interior
    assert not b._finish_qr(0.0, np.zeros(3), np.zeros((4, 3))).in_interior
    G[2, 2] = np.inf
    assert not b._finish_qr(0.0, np.zeros(3), G).in_interior


def gpow_hessian(w, x, z):
    """Closed-form Hessian of -log(pi^2 - z^2) - sum((1 - w) log x), pi = prod x^w."""
    pi = np.prod(x**w)
    r = (pi - z) * (pi + z)  # pi^2 - z^2 without the cancellation
    dp = 2.0 * w * pi * pi / x  # gradient of pi^2
    H = np.empty((x.size + 1, x.size + 1))
    H[:-1, :-1] = np.outer(dp, dp) * (z * z / (pi * pi * r * r))
    H[:-1, :-1] += np.diag(2.0 * w * pi * pi / (x * x * r) + (1.0 - w) / (x * x))
    H[:-1, -1] = H[-1, :-1] = -2.0 * z * dp / (r * r)
    H[-1, -1] = 2.0 / r + 4.0 * z * z / (r * r)
    return H


def test_gpow_factor_holds_near_the_boundary():
    # pi - z = 1e-10, so cond(H) is about 1e20 and potrf on the formed H
    # breaks down; L from the QR of G still factors H
    w, x, z = np.array([0.25, 0.75]), np.ones(2), 1.0 - 1e-10
    H_ref = gpow_hessian(w, x, z)
    assert nsconic.linalg.try_chol(H_ref) is None
    ev = PowerBarrier(w).eval(np.append(x, z))
    assert ev.in_interior
    L, H = ev.hessian.L, ev.hessian.toarray()
    np.testing.assert_array_equal(L, np.tril(L))
    assert (np.diag(L) > 0.0).all()
    assert np.linalg.norm(L @ L.T - H) <= 1e-12 * np.linalg.norm(H)
    assert np.linalg.norm(H - H_ref) <= 1e-12 * np.linalg.norm(H_ref)


def test_gpow_fd_check_on_random_weights():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 8):
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        oracle = PowerBarrier(w)
        for _ in range(5):
            x = sample_block(oracle, rng)
            report = fd_check(oracle, x)
            assert report.ok(), (n, report)
            assert report.grad_identity <= 1e-10
            assert report.hess_identity <= 1e-9
            np.testing.assert_allclose(
                oracle.eval(x).hessian.toarray(), gpow_hessian(w, x[:-1], x[-1]),
                rtol=1e-10, atol=1e-12,
            )


def test_gpow_hand_values():
    b = PowerBarrier([0.5, 0.5])
    ev = b.eval(np.array([1.0, 1.0, 0.0]))
    assert ev.value == 0.0
    np.testing.assert_allclose(ev.gradient, [-1.5, -1.5, 0.0])
    # H = G'G from the factored form leaves a rounding error off the diagonal
    np.testing.assert_allclose(
        ev.hessian.toarray(), np.diag([1.5, 1.5, 2.0]), atol=1e-15
    )

    b2 = PowerBarrier([0.25, 0.75])
    ev2 = b2.eval(np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(ev2.gradient, [-1.25, -1.75, 0.0])

    # geometric-mean boundary: z = sqrt(x1 x2)
    assert not b.eval(np.array([4.0, 1.0, 2.0])).in_interior
    assert b.eval(np.array([4.0, 1.0, 1.9])).in_interior
    assert b.eval(np.array([4.0, 1.0, -1.9])).in_interior
    assert not b.eval(np.array([4.0, 0.0, 0.0])).in_interior


def test_gpow_weight_validation():
    with pytest.raises(ValueError):
        PowerBarrier([0.5, 0.6])
    with pytest.raises(ValueError):
        PowerBarrier([1.2, -0.2])
    for bad in ([], [np.nan, 0.5], [np.inf, 0.5], [[0.5, 0.5]], {"a": 1}, "ab"):
        with pytest.raises(ValueError, match="power-cone weights"):
            PowerBarrier(bad)


def test_barrier_sizes_validated():
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="cone dimension must be an integer"):
            Barrier(bad, 1.0)
    with pytest.raises(ValueError, match="cone dimension must be positive"):
        Barrier(0, 1.0)
    with pytest.raises(ValueError, match="product of zero cones"):
        ProductBarrier([])


def test_free_embedding_shape():
    b = block_oracle(ConeSpec("free", 6))
    assert b.dim == 7
    assert b.nu == 2.0
    x0 = b.initial_point
    np.testing.assert_array_equal(x0, np.eye(7)[0])
    assert b.contains(x0)
    # any trailing block is reachable with a large enough dummy
    v = np.concatenate([[10.0], np.arange(-3.0, 3.0)])
    assert b.contains(v)


# --------------------------------------------------- membership and evaluation


def edesign_case():
    V = np.random.default_rng(3).standard_normal((3, 6))

    def sampler(r):
        x = r.uniform(0.5, 2.0, 6)
        return np.concatenate([[0.5 * np.linalg.eigvalsh((V * x) @ V.T)[0]], x])

    return ("edesign", EDesignBarrier(V), sampler)


@pytest.mark.parametrize("name,oracle,sampler", oracle_cases() + [edesign_case()])
def test_membership_or_full_evaluation(name, oracle, sampler):
    x = sampler(np.random.default_rng(5))
    assert oracle.contains(x)
    ev = oracle.eval(x)
    assert ev.in_interior
    assert np.isfinite(ev.value)
    assert ev.gradient.shape == (oracle.dim,)
    # the factor reproduces the Hessian: L^{-1} H = L', so L L' = H
    H = ev.hessian.toarray()
    Lt = np.column_stack([ev.hessian.half_solve(col) for col in H.T])
    np.testing.assert_allclose(Lt.T @ Lt, H, atol=1e-12)


def test_exterior_has_no_fields():
    ev = NonnegativeBarrier(2).eval(np.array([1.0, -1.0]))
    assert not ev.in_interior
    assert ev.value is None and ev.gradient is None
    assert ev.hessian is None


def test_nonfinite_point_is_exterior():
    b = NonnegativeBarrier(2)
    assert not b.eval(np.array([1.0, np.nan])).in_interior
    assert not b.eval(np.array([np.inf, 1.0])).in_interior


def test_an_overflowing_evaluation_is_exterior_without_a_warning():
    # each point is finite but so near the boundary, or so large, that the
    # value, gradient or Hessian overflows; RuntimeWarning is an error here
    for oracle, x in [
        (NonnegativeBarrier(2), [1e-320, 1.0]),
        (ExponentialBarrier(), [1e300, 1e-300, 0.0]),
        (SecondOrderBarrier(3), [1e200, 1.0, 1.0]),
        (EDesignBarrier(np.eye(2)), [0.0, 1e200, 1e200]),
    ]:
        ev = oracle.eval(np.array(x))
        if ev.in_interior:
            assert np.isfinite(ev.value) and np.isfinite(ev.gradient).all()
    # a start on that boundary is named as such, not as overflowed data
    with pytest.raises(ExteriorPointError, match="not strictly interior"):
        solve_cones(
            np.ones(2), np.ones((1, 2)), [1.0], [ConeSpec("lp", 2)], x0=[1e-320, 1.0]
        )


def test_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        NonnegativeBarrier(3).eval(np.ones(4))


def test_an_oracle_without_evaluate_raises():
    with pytest.raises(NotImplementedError):
        Barrier(2, nu=2.0).eval(np.ones(2))


# ------------------------------------------------------- barrier identities


@pytest.mark.parametrize("name,oracle,sampler", oracle_cases())
def test_homogeneity_identities(name, oracle, sampler):
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = sampler(rng)
        ev = oracle.eval(x)
        assert ev.in_interior, name
        nu = oracle.nu
        # Euler identities for logarithmically homogeneous barriers
        assert abs(x @ ev.gradient + nu) <= 1e-8 * nu
        gnorm = np.linalg.norm(ev.gradient)
        H = ev.hessian.toarray()
        assert np.linalg.norm(ev.hessian @ x + ev.gradient) <= 1e-7 * max(1.0, gnorm)
        # value/gradient/Hessian scaling under x -> t x
        for t in (0.5, 2.0, 10.0):
            evt = oracle.eval(t * x)
            assert evt.in_interior
            expected = ev.value - nu * np.log(t)
            assert abs(evt.value - expected) <= 1e-9 * max(1.0, abs(expected))
            np.testing.assert_allclose(evt.gradient, ev.gradient / t, rtol=1e-9)
            np.testing.assert_allclose(evt.hessian.toarray(), H / t**2, rtol=1e-8)
        # the factor reproduces the Hessian: L^{-1} H = L', so L L' = H
        Lt = np.column_stack([ev.hessian.half_solve(col) for col in H.T])
        rec = Lt.T @ Lt
        assert np.linalg.norm(rec - H) <= 1e-10 * max(1.0, np.linalg.norm(H))


@pytest.mark.parametrize("name,oracle,sampler", oracle_cases())
def test_finite_difference_agreement(name, oracle, sampler):
    rng = np.random.default_rng(7)
    for _ in range(10):
        report = fd_check(oracle, sampler(rng))
        assert report.grad_err <= 1e-5, name
        assert report.hess_err <= 1e-5, name
        assert report.grad_identity <= 1e-10
        assert report.hess_identity <= 1e-9
        assert report.ok()


@pytest.mark.parametrize(
    "oracle,sampler",
    [
        (NonnegativeBarrier(4), lambda r: sample_block(NonnegativeBarrier(4), r)),
        (SecondOrderBarrier(5), lambda r: sample_block(SecondOrderBarrier(5), r)),
    ],
)
def test_gradient_maps_into_dual_cone(oracle, sampler):
    # lp and socp are self-dual: -g(x) must land strictly inside the cone
    rng = np.random.default_rng(2)
    for _ in range(20):
        ev = oracle.eval(sampler(rng))
        assert oracle.contains(-ev.gradient)


def test_fd_check_rejects_exterior():
    with pytest.raises(ExteriorPointError):
        fd_check(NonnegativeBarrier(2), np.array([1.0, -1.0]))
    # interior, but the backward probe of size 1e-4 crosses x1 = 0
    with pytest.raises(ExteriorPointError, match="probe along coordinate 0"):
        fd_check(NonnegativeBarrier(2), [1e-5, 1.0])


# ------------------------------------------------------------------ product


def test_product_single_factor_identity():
    inner = NonnegativeBarrier(4)
    prod = ProductBarrier([inner])
    assert prod.dim == 4 and prod.nu == 4.0
    x = np.array([0.5, 1.0, 2.0, 4.0])
    ev_p = prod.eval(x)
    ev_i = inner.eval(x)
    assert ev_p.value == ev_i.value
    np.testing.assert_array_equal(ev_p.gradient, ev_i.gradient)
    np.testing.assert_array_equal(ev_p.hessian.toarray(), ev_i.hessian.toarray())
    np.testing.assert_array_equal(ev_p.hessian.half_solve(x), ev_i.hessian.half_solve(x))


def test_product_concatenation():
    lp = NonnegativeBarrier(2)
    soc = SecondOrderBarrier(3)
    prod = ProductBarrier([lp, soc])
    assert prod.nu == 4.0  # 2 for the orthant block + 2 for the Lorentz block
    x = np.array([1.0, 2.0, 3.0, 1.0, -1.0])
    ev = prod.eval(x)
    ev_lp = lp.eval(x[:2])
    ev_soc = soc.eval(x[2:])
    np.testing.assert_allclose(ev.value, ev_lp.value + ev_soc.value, rtol=1e-15)
    np.testing.assert_array_equal(ev.gradient[:2], ev_lp.gradient)
    np.testing.assert_array_equal(ev.gradient[2:], ev_soc.gradient)
    H = ev.hessian.toarray()
    assert np.all(H[:2, 2:] == 0.0)
    np.testing.assert_array_equal(H[2:, 2:], ev_soc.hessian.toarray())
    # one exterior block poisons the whole product
    bad = x.copy()
    bad[0] = -1.0
    assert not prod.eval(bad).in_interior


def test_product_hessian_kind_follows_its_factors():
    x = np.array([1.0, 2.0, 3.0, 1.0, -1.0])
    lp_only = ProductBarrier([NonnegativeBarrier(2), NonnegativeBarrier(3)])
    mixed = ProductBarrier([NonnegativeBarrier(2), SecondOrderBarrier(3)])
    ev = lp_only.eval(np.abs(x))
    assert isinstance(ev.hessian, DiagonalHessian)
    np.testing.assert_allclose(ev.hessian.toarray(), np.diag(1.0 / x**2), rtol=1e-15)
    # the mixed product's factor is the block-diagonal one of its factors
    ev = mixed.eval(x)
    assert isinstance(ev.hessian, DenseHessian)
    v = np.arange(1.0, 6.0)
    expected = np.concatenate(
        [
            NonnegativeBarrier(2).eval(x[:2]).hessian.half_solve(v[:2]),
            SecondOrderBarrier(3).eval(x[2:]).hessian.half_solve(v[2:]),
        ]
    )
    np.testing.assert_array_equal(ev.hessian.half_solve(v), expected)


def test_mixed_product_assembles_its_blocks_exactly():
    # L is the blocks' own factors on the diagonal, bit for bit, with scipy's
    # block_diag as the reference; H = LL' is formed on demand, so it agrees
    # with the blocks' H to rounding
    rng = np.random.default_rng(3)
    factors = [
        NonnegativeBarrier(2),
        SecondOrderBarrier(3),
        ExponentialBarrier(),
        PowerBarrier([0.3, 0.7]),
        NonnegativeBarrier(1),
        SecondOrderBarrier(2),
    ]
    prod = ProductBarrier(factors)
    for _ in range(5):
        x = sample_block(prod, rng)
        ev = prod.eval(x)
        assert isinstance(ev.hessian, DenseHessian)
        blocks = [f.eval(xb).hessian for f, xb in zip(factors, prod.blocks(x))]
        expected_H = block_diag(*(h.toarray() for h in blocks))
        expected_L = block_diag(*(h.L for h in blocks))
        H = ev.hessian.toarray()
        np.testing.assert_allclose(H, expected_H, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(ev.hessian.L, expected_L)


def test_product_initial_point_concatenates():
    prod = ProductBarrier([NonnegativeBarrier(2), ExponentialBarrier()])
    np.testing.assert_array_equal(prod.initial_point, [1.0, 1.0, 2.0, 1.0, 0.0])


# ----------------------------------------------------------------- pullback


def test_pullback_identity_map():
    inner = ExponentialBarrier()
    pb = PullbackBarrier(inner, np.eye(3))
    x = np.array([2.0, 1.0, -0.5])
    ev = pb.eval(x)
    ev_i = inner.eval(x)
    assert ev.value == ev_i.value
    np.testing.assert_array_equal(ev.gradient, ev_i.gradient)
    np.testing.assert_allclose(ev.hessian.toarray(), ev_i.hessian.toarray())


def test_pullback_diagonal_scaling_hand_case():
    inner = NonnegativeBarrier(2)
    pb = PullbackBarrier(inner, np.diag([2.0, 3.0]))
    assert pb.nu == 2.0
    ev = pb.eval(np.array([1.0, 1.0]))
    np.testing.assert_allclose(ev.value, -np.log(6.0), rtol=1e-15)
    np.testing.assert_allclose(ev.gradient, [-1.0, -1.0])
    np.testing.assert_allclose(ev.hessian.toarray(), np.eye(2))


def test_pullback_tall_map_slice_of_soc():
    # M embeds the plane into the first two coordinates of a 3-d Lorentz cone
    M = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    pb = PullbackBarrier(SecondOrderBarrier(3), M)
    assert pb.dim == 2 and pb.nu == 2.0
    ev = pb.eval(np.array([2.0, 1.0]))
    np.testing.assert_allclose(ev.value, -np.log(3.0), rtol=1e-15)
    np.testing.assert_allclose(ev.gradient, [-4.0 / 3.0, 2.0 / 3.0], rtol=1e-14)
    assert not pb.eval(np.array([1.0, 2.0])).in_interior


def test_pullback_rejects_exterior_initial_point():
    inner = NonnegativeBarrier(2)
    with pytest.raises(ExteriorPointError):
        PullbackBarrier(inner, np.diag([1.0, -1.0]), initial_point=np.ones(2))


def test_pullback_shape_validation():
    with pytest.raises(DimensionMismatch):
        PullbackBarrier(NonnegativeBarrier(2), np.eye(3))


def test_pullback_rejects_a_map_it_cannot_use():
    # rank 1 with 2 columns: every point would read as exterior
    rank_one = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError, match="not injective"):
        PullbackBarrier(NonnegativeBarrier(3), rank_one, initial_point=(1.0, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        PullbackBarrier(NonnegativeBarrier(2), np.array([[1.0, 0.0], [np.nan, 1.0]]))


@pytest.mark.parametrize(
    "inner", [SecondOrderBarrier(4), ExponentialBarrier(), NonnegativeBarrier(3)]
)
def test_pullback_reuses_the_inner_factor(monkeypatch, inner):
    # M'HM = G'G with G = L'M, so its factor comes from a QR of G and the
    # only Cholesky factorization is the inner oracle's own (none for the
    # orthant, whose factor is diagonal, or for exp, whose factor comes from
    # a QR too); x = (1, 0.5) maps near the inner start, inside the cone
    M = np.column_stack([inner.initial_point, 0.2 * np.arange(1.0, inner.dim + 1.0)])
    pb = PullbackBarrier(inner, M)
    x = np.array([1.0, 0.5])
    calls = []
    count_calls(monkeypatch, nsconic.barriers, "try_chol", calls)
    ev = pb.eval(x)
    expected = 1 if isinstance(inner, SecondOrderBarrier) else 0
    assert len(calls) == expected
    H, L = ev.hessian.toarray(), ev.hessian.L
    np.testing.assert_array_equal(L, np.tril(L))
    assert (np.diag(L) > 0.0).all()
    assert np.linalg.norm(L @ L.T - H) <= 1e-12 * np.linalg.norm(H)
    H_inner = inner.eval(M @ x).hessian.toarray()
    np.testing.assert_allclose(H, M.T @ H_inner @ M, rtol=1e-10)
