"""Shared helpers for the test suite: interior samplers, random instances,
a dense reference solver for the embedding Newton system, a brute-force
E-design objective over a simplex grid, a call counter, a ``tracemalloc``
peak, a small LP problem document, ``write_doc`` (a problem document written
to a JSON file) and ``without_timing`` (CLI output without its
``solveSeconds`` lines)."""

import json
import tracemalloc

import numpy as np

from nsconic.barriers import (
    ExponentialBarrier,
    NonnegativeBarrier,
    PowerBarrier,
    ProductBarrier,
    SecondOrderBarrier,
)
from nsconic.hsd import Iterate, NewtonRhs, ProblemData


def sample_block(oracle, rng):
    """Draw a comfortably interior point of a single built-in cone block."""
    if isinstance(oracle, NonnegativeBarrier):
        return rng.uniform(0.5, 3.0, oracle.dim)
    if isinstance(oracle, SecondOrderBarrier):
        x = rng.standard_normal(oracle.dim)
        x[0] = np.linalg.norm(x[1:]) + rng.uniform(0.5, 2.0)
        return x
    if isinstance(oracle, ExponentialBarrier):
        x1 = rng.uniform(0.5, 2.0)
        x2 = rng.uniform(0.5, 2.0)
        return np.array([x1, x2, x2 * np.log(x1 / x2) - rng.uniform(0.3, 1.5)])
    if isinstance(oracle, PowerBarrier):
        x = rng.uniform(0.5, 2.0, oracle.dim - 1)
        power = np.prod(x**oracle.weights)
        return np.concatenate([x, [rng.uniform(-0.7, 0.7) * power]])
    if isinstance(oracle, ProductBarrier):
        return np.concatenate([sample_block(f, rng) for f in oracle.factors])
    raise TypeError(f"no sampler for {type(oracle).__name__}")


def random_mixed_cone(rng, dim_budget):
    """A product of 1-3 random cone blocks with total dimension <= budget."""
    factors = []
    remaining = dim_budget
    while remaining >= 2 and len(factors) < 3:
        kind = rng.integers(0, 4)
        if kind == 0:
            d = int(rng.integers(1, min(remaining, 6) + 1))
            factors.append(NonnegativeBarrier(d))
        elif kind == 1:
            d = int(rng.integers(2, min(remaining, 6) + 1))
            factors.append(SecondOrderBarrier(d))
        elif kind == 2 and remaining >= 3:
            factors.append(ExponentialBarrier())
        elif remaining >= 3:
            k = int(rng.integers(2, min(remaining - 1, 3) + 1))
            w = rng.uniform(0.5, 2.0, k)
            factors.append(PowerBarrier(w / w.sum()))
        else:
            continue
        remaining -= factors[-1].dim
    if not factors:
        factors.append(NonnegativeBarrier(dim_budget))
    return ProductBarrier(factors)


def random_state(prob, oracle, rng):
    """Random embedding iterate with x and s strictly interior (primal/dual)."""
    x = sample_block(oracle, rng)
    w = sample_block(oracle, rng)
    s = -oracle.eval(w).gradient
    y = rng.standard_normal(prob.m)
    tau = float(rng.uniform(0.5, 2.0))
    kappa = float(rng.uniform(0.5, 2.0))
    return Iterate(y, x, tau, s, kappa)


def random_problem(oracle, m, rng):
    n = oracle.dim
    A = rng.standard_normal((m, n))
    return ProblemData(A, rng.standard_normal(m), rng.standard_normal(n))


def dense_newton_reference(prob, z, mu, ev, rhs: NewtonRhs):
    """Assemble and solve the full embedding Newton system densely.

    The solution is returned as one vector laid out as ``direction_as_vector``
    lays out a Direction: dy, dx, dtau, ds, dkappa.
    """
    m, n = prob.m, prob.n
    A = prob.A.toarray()
    H = ev.hessian.toarray()
    size = m + 2 * n + 2
    iy = slice(0, m)
    ix = slice(m, m + n)
    it = m + n
    is_ = slice(m + n + 1, m + n + 1 + n)
    ik = m + n + 1 + n
    K = np.zeros((size, size))
    # A dx - b dtau = r1
    K[0:m, ix] = A
    K[0:m, it] = -prob.b
    # -A'dy + c dtau - ds = r2
    r2rows = slice(m, m + n)
    K[r2rows, iy] = -A.T
    K[r2rows, it] = prob.c
    K[r2rows, is_] = -np.eye(n)
    # b'dy - c'dx - dkappa = r3
    K[it, iy] = prob.b
    K[it, ix] = -prob.c
    K[it, ik] = -1.0
    # ds + mu H dx = r4
    r4rows = slice(m + n + 1, m + n + 1 + n)
    K[r4rows, ix] = mu * H
    K[r4rows, is_] = np.eye(n)
    # dkappa + (mu/tau^2) dtau = r5
    K[ik, it] = mu / z.tau**2
    K[ik, ik] = 1.0
    return np.linalg.solve(K, np.hstack(rhs))


def direction_as_vector(d):
    return np.hstack(d)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_objective(V, resolution: int) -> float:
    """Brute-force E-design objective over the simplex grid x = k/resolution.

    Enumerates every composition of ``resolution`` into p nonnegative parts
    and returns the best smallest eigenvalue, a lower bound on the true
    optimum that converges as the grid refines. Deliberately independent of
    the solver; used as a verification oracle. Guarded to p <= 6 because the
    grid grows as C(resolution + p - 1, p - 1).
    """
    V = np.asarray(V, dtype=np.float64)
    n, p = V.shape
    if p > 6:
        raise ValueError("grid oracle is limited to p <= 6 candidates")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    X = np.array(list(_compositions(resolution, p)), dtype=np.float64) / resolution
    outers = np.einsum("ik,jk->kij", V, V)  # stack of v_k v_k'
    M = np.tensordot(X, outers, axes=(1, 0))
    return float(np.linalg.eigvalsh(M)[:, 0].max())


def count_calls(monkeypatch, module, name, seen):
    """Patch ``module.name`` to append each call's positional args to seen."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn runs, tracing fn alone."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lp_doc():
    # min x1 + 2 x2 s.t. x1 + x2 = 2, x >= 0; optimum (2, 0), value 2
    return {
        "c": [1.0, 2.0],
        "b": [2.0],
        "A": {"m": 1, "n": 2, "rows": [0, 0], "cols": [0, 1], "vals": [1.0, 1.0]},
        "cones": [{"type": "lp", "dim": 2}],
    }


def write_doc(tmp_path, doc, name="prob.json") -> str:
    """Write ``doc`` as JSON to ``tmp_path / name`` and return the path."""
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def without_timing(text):
    """``text`` without its ``solveSeconds`` lines, the only run-dependent ones."""
    return "\n".join(
        line for line in text.splitlines() if "solveSeconds" not in line
    )
