import re

import numpy as np
import pytest

from nsconic.barriers import NonnegativeBarrier, ProductBarrier
from nsconic.cones import (
    ConeProduct,
    ConeSpec,
    ConeSpecError,
    build_cones,
    embed_point,
    lift,
    solve_cones,
    strip_point,
)
from nsconic.hsd import ProblemData, gap
from nsconic.linalg import DimensionMismatch
from nsconic.solver import SolverOptions, SolverStatus, initial_iterate, solve


def test_spec_validation_errors():
    with pytest.raises(ConeSpecError):
        ConeSpec("simplex", 3)
    with pytest.raises(ConeSpecError, match="exp cone has dimension 3, got 4"):
        ConeSpec("exp", 4)
    with pytest.raises(ConeSpecError):
        ConeSpec("lp")
    with pytest.raises(ConeSpecError):
        ConeSpec("lp", 0)
    with pytest.raises(ConeSpecError):
        ConeSpec("gpow", 3)  # weights missing
    with pytest.raises(ConeSpecError, match="gpow cone has dimension 3, got 4"):
        ConeSpec("gpow", 4, lam=(0.5, 0.5))  # dim must be len(lam) + 1
    with pytest.raises(ConeSpecError, match="unknown cone type"):
        ConeSpec(["lp"], 2)  # an unhashable tag is unknown too
    with pytest.raises(ConeSpecError):
        ConeSpec("gpow", lam=(0.9, 0.2))
    with pytest.raises(ConeSpecError):
        ConeSpec("lp", 3, lam=(1.0,))
    for bad in (
        [np.nan, 0.5], [np.inf, 0.5], [], [[0.5, 0.5]], {"a": 1}, "ab", [10**400, 1]
    ):
        with pytest.raises(ConeSpecError, match="power-cone weights"):
            ConeSpec("gpow", lam=bad)
    with pytest.raises(ConeSpecError):
        build_cones([])
    for bad in (2.5, True, "2", np.bool_(True)):
        with pytest.raises(ConeSpecError, match="dim"):
            ConeSpec("lp", bad)


@pytest.mark.parametrize(
    "entry",
    [{"type": "lp", "dim": 2, "weight": 1}, {"dim": 2}, "lp"],
    ids=["unknown-key", "no-type", "not-a-mapping"],
)
def test_cone_mappings_are_checked(entry):
    # the message names the keys it got
    with pytest.raises(ConeSpecError, match=re.escape(f"got {entry!r}")):
        build_cones([entry])


def test_spec_defaults():
    assert ConeSpec("exp").dim == 3
    assert ConeSpec("gpow", lam=(0.3, 0.7)).dim == 3
    assert ConeSpec("lp", 7).dim == 7
    assert type(ConeSpec("lp", 7.0).dim) is int
    assert ConeSpec("socp", np.int64(4)).dim == 4
    assert type(ConeSpec("exp", 3.0).dim) is int


def test_build_single_lp():
    cp = build_cones([ConeSpec("lp", 10)])
    assert cp.oracle.nu == 10.0
    assert cp.ambient_dim == cp.internal_dim == 10
    assert cp.dummy_positions == ()


def test_build_composite_layout():
    cp = build_cones(
        [
            ConeSpec("socp", 10),
            ConeSpec("free", 6),
            ConeSpec("lp", 10),
            ConeSpec("exp"),
        ]
    )
    # nu: 2 (socp) + 2 (free embedding) + 10 (lp) + 3 (exp)
    assert cp.oracle.nu == 17.0
    assert cp.ambient_dim == 29
    assert cp.internal_dim == 30  # one dummy for the free block
    assert cp.dummy_positions == (10,)
    # ambient coordinates skip the dummy slot
    expected_map = list(range(10)) + list(range(11, 30))
    np.testing.assert_array_equal(cp.ambient_to_internal, expected_map)


def test_build_gpow_nu():
    cp = build_cones([ConeSpec("gpow", lam=(0.3, 0.7))])
    assert cp.oracle.nu == 3.0


def test_build_accepts_dicts():
    cp = build_cones([{"type": "lp", "dim": 2}, {"type": "gpow", "lam": (0.5, 0.5)}])
    assert cp.ambient_dim == 5
    assert cp.specs == (ConeSpec("lp", 2), ConeSpec("gpow", lam=(0.5, 0.5)))
    spec = ConeSpec("exp")
    assert ConeSpec.coerce(spec) is spec


def test_default_x0_blocks():
    cp = build_cones(
        [
            ConeSpec("lp", 2),
            ConeSpec("socp", 3),
            ConeSpec("exp"),
            ConeSpec("gpow", lam=(0.5, 0.5)),
            ConeSpec("free", 2),
        ]
    )
    x0 = cp.oracle.initial_point
    np.testing.assert_array_equal(
        x0,
        [1.0, 1.0]  # lp
        + [1.0, 0.0, 0.0]  # socp
        + [2.0, 1.0, 0.0]  # exp
        + [1.0, 1.0, 0.0]  # gpow
        + [1.0, 0.0, 0.0],  # free dummy + block
    )
    assert cp.oracle.contains(x0)


def test_default_x0_gives_unit_gap():
    cp = build_cones([ConeSpec("lp", 3), ConeSpec("exp"), ConeSpec("free", 2)])
    prob = ProblemData(
        np.ones((1, cp.internal_dim)), np.array([1.0]), np.zeros(cp.internal_dim)
    )
    z = initial_iterate(prob, cp.oracle, cp.oracle.initial_point)
    assert abs(gap(z, cp.oracle.nu) - 1.0) <= 1e-14


def test_embed_strip_roundtrip():
    cp = build_cones([ConeSpec("free", 3), ConeSpec("lp", 2)])
    x = np.array([1.0, -2.0, 3.0, 0.5, 0.6])
    v = embed_point(cp, x)
    assert v.shape == (6,)
    assert cp.oracle.contains(v)
    np.testing.assert_array_equal(strip_point(cp, v), x)
    with pytest.raises(DimensionMismatch):
        embed_point(cp, np.ones(4))
    with pytest.raises(ValueError, match="point must be real"):
        embed_point(cp, x + 1j)


def test_lift_identity_without_free_blocks():
    cp = build_cones([ConeSpec("lp", 3)])
    prob = ProblemData(np.arange(6.0).reshape(2, 3), np.ones(2), np.ones(3))
    assert lift(prob, cp) is prob


def test_lift_inserts_zero_columns():
    cp = build_cones([ConeSpec("free", 1), ConeSpec("lp", 2)])
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    prob = ProblemData(A, np.ones(2), np.array([7.0, 8.0, 9.0]))
    lifted = lift(prob, cp)
    assert lifted.n == 4
    expected = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(lifted.A.toarray(), expected)
    np.testing.assert_array_equal(lifted.c, [0.0, 7.0, 8.0, 9.0])
    np.testing.assert_array_equal(lifted.b, prob.b)


def test_solve_cones_lp_bit_for_bit():
    A = np.array([[1.0, 1.0, 2.0]])
    b = np.array([3.0])
    c = np.array([1.0, 2.0, 0.5])
    via_specs = solve_cones(c, A, b, [ConeSpec("lp", 3)])
    direct = solve(ProblemData(A, b, c), NonnegativeBarrier(3))
    wrapped = solve(ProblemData(A, b, c), ProductBarrier([NonnegativeBarrier(3)]))
    assert via_specs.status is direct.status is SolverStatus.OPTIMAL
    np.testing.assert_array_equal(via_specs.x, direct.x)
    np.testing.assert_array_equal(via_specs.x, wrapped.x)
    np.testing.assert_array_equal(via_specs.s, direct.s)
    assert via_specs.p_obj == direct.p_obj
    assert [r.mu for r in via_specs.history] == [r.mu for r in direct.history]


def test_solve_cones_pinned_free_variable():
    res = solve_cones(
        np.array([1.0]),
        np.array([[1.0]]),
        np.array([5.0]),
        [ConeSpec("free", 1)],
        options=SolverOptions(optim_tol=1e-8),
    )
    assert res.status is SolverStatus.OPTIMAL
    assert res.x.shape == (1,)
    assert abs(res.x[0] - 5.0) <= 1e-6


def test_solve_cones_free_plus_orthant():
    # min t s.t. t - x1 = 1, x1 >= 0: optimum t = 1
    res = solve_cones(
        np.array([1.0, 0.0]),
        np.array([[1.0, -1.0]]),
        np.array([1.0]),
        [ConeSpec("free", 1), ConeSpec("lp", 1)],
        options=SolverOptions(optim_tol=1e-8),
    )
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj - 1.0) <= 1e-6
    assert res.x.shape == (2,)


def test_solve_cones_geometric_mean():
    res = solve_cones(
        np.array([0.0, 0.0, -1.0]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([2.0, 8.0]),
        [ConeSpec("gpow", lam=(0.5, 0.5))],
        options=SolverOptions(optim_tol=1e-8),
    )
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj + 4.0) <= 1e-6


def test_solve_cones_block_order_equivalence():
    # permuting blocks (and data accordingly) must not change the optimum
    rng = np.random.default_rng(4)
    A1 = rng.standard_normal((2, 5))
    xf = np.concatenate([rng.uniform(1.0, 2.0, 2), [2.0, 0.3, -0.2]])
    b1 = A1 @ xf
    c1 = np.concatenate([rng.uniform(0.5, 1.0, 2), [1.0, 0.1, 0.1]])
    specs1 = [ConeSpec("lp", 2), ConeSpec("socp", 3)]
    perm = np.r_[2:5, 0:2]
    specs2 = [ConeSpec("socp", 3), ConeSpec("lp", 2)]
    r1 = solve_cones(c1, A1, b1, specs1)
    r2 = solve_cones(c1[perm], A1[:, perm], b1, specs2)
    assert r1.status is r2.status is SolverStatus.OPTIMAL
    assert abs(r1.p_obj - r2.p_obj) <= 1e-8 * max(1.0, abs(r1.p_obj))


def test_solve_cones_user_x0():
    res = solve_cones(
        np.array([1.0, 2.0]),
        np.array([[1.0, 1.0]]),
        np.array([2.0]),
        [ConeSpec("lp", 2)],
        x0=np.array([0.5, 1.5]),
    )
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.p_obj - 2.0) <= 1e-5


def test_solve_cones_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_cones(
            np.ones(3), np.ones((1, 3)), np.ones(1), [ConeSpec("lp", 2)]
        )


def test_nu_and_dims_additive_over_random_lists():
    rng = np.random.default_rng(10)
    nu_of = {"free": 2.0, "lp": None, "socp": 2.0, "exp": 3.0, "gpow": None}
    for _ in range(100):
        specs = []
        expected_nu = 0.0
        expected_ambient = 0
        n_free = 0
        for _ in range(int(rng.integers(1, 5))):
            t = ["free", "lp", "socp", "exp", "gpow"][int(rng.integers(0, 5))]
            if t == "gpow":
                k = int(rng.integers(2, 4))
                w = rng.uniform(0.5, 2.0, k)
                w = w / w.sum()
                w[-1] = 1.0 - w[:-1].sum()
                specs.append(ConeSpec("gpow", lam=tuple(w)))
                expected_nu += k + 1
                expected_ambient += k + 1
            else:
                d = 3 if t == "exp" else int(rng.integers(1 if t != "socp" else 2, 6))
                specs.append(ConeSpec(t, d))
                expected_nu += nu_of[t] if nu_of[t] is not None else d
                expected_ambient += d
                n_free += t == "free"
        cp = build_cones(specs)
        assert cp.oracle.nu == expected_nu
        assert cp.ambient_dim == expected_ambient
        assert cp.internal_dim == expected_ambient + n_free
        assert len(cp.dummy_positions) == n_free


def loop_layout(specs):
    """The layout built coordinate by coordinate: each free block gets its
    dummy first, then its own coordinates."""
    ambient_map, dummies, internal = [], [], 0
    for spec in specs:
        if spec.type == "free":
            dummies.append(internal)
            internal += 1
        ambient_map.extend(range(internal, internal + spec.dim))
        internal += spec.dim
    return tuple(dummies), np.asarray(ambient_map, dtype=np.int64)


def test_layout_matches_the_explicit_loop():
    rng = np.random.default_rng(12)
    fixed = [
        ["free", "lp"],  # free block first
        ["lp", "free"],  # free block last
        ["free", "free"],  # adjacent free blocks
        ["socp", "free", "free", "exp", "free"],
    ]
    drawn = [
        list(rng.choice(["free", "free", "lp", "socp", "exp"], int(rng.integers(1, 7))))
        for _ in range(200)
    ]
    for types in fixed + drawn:
        specs = [
            ConeSpec(t, 3 if t == "exp" else int(rng.integers(2, 5))) for t in types
        ]
        dummies, ambient_map = loop_layout(specs)
        cp = build_cones(specs)
        assert cp.dummy_positions == dummies
        assert all(type(d) is int for d in cp.dummy_positions)
        assert cp.ambient_to_internal.dtype == np.int64
        np.testing.assert_array_equal(cp.ambient_to_internal, ambient_map)
        assert cp.ambient_dim == len(ambient_map)
        assert cp.internal_dim == len(ambient_map) + len(dummies)
