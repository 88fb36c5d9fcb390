"""Property test: ``contains`` answers membership exactly as ``eval`` does,
at points drawn inside, outside and near the boundary of every oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_barriers import edesign_case, oracle_cases  # noqa: E402


def _exit_along_ray(oracle, x, d):
    """Largest t (to bisection accuracy, capped at 1024) with x + t d interior."""
    lo, hi = 0.0, 1.0
    while hi < 1024.0 and oracle.eval(x + hi * d).in_interior:
        lo, hi = hi, 2.0 * hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if oracle.eval(x + mid * d).in_interior else (lo, mid)
    return lo


@pytest.mark.parametrize("name,oracle,sampler", oracle_cases() + [edesign_case()])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # fractions of the way to the boundary along a random ray: inside,
    # outside, and within a relative 1e-9 of the boundary on either side
    frac=st.one_of(st.floats(0.0, 3.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9)),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
)
def test_contains_agrees_with_eval(name, oracle, sampler, seed, frac, bad):
    rng = np.random.default_rng(seed)
    x = sampler(rng)
    d = rng.standard_normal(oracle.dim)
    p = x + frac * _exit_along_ray(oracle, x, d) * d
    if bad is not None:
        p[rng.integers(oracle.dim)] = bad
    ev = oracle.eval(p)
    inside = oracle.contains(p)
    assert inside == ev.in_interior
    if bad is not None:
        assert not inside and not ev.in_interior
