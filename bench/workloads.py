"""Seeded instance generators for the three benchmark workloads.

Every instance is built here from the workload seed alone, with a status
known by construction, so a change to the library cannot change what is
measured. Generators use numpy and scipy only; nothing from
``nsconic.generators`` is imported.

Why each workload exists (see ``WHY`` for the one-line form):

* ``lp_sparse`` stresses the Newton layer (``hsd`` + ``linalg``): the normal
  matrix is built from a densified A on every Newton call. Two infeasible
  instances drive the certificate path, so a step-rule change that helps
  optimal solves but slows certification shows here.
* ``cone_blocks`` stresses the ``barriers`` layer: ~140 small nonsymmetric
  blocks, one Python oracle call per block per evaluation, and a free block
  that goes through the lift in ``cones``. Newton work is small (m ~ n/10).
  Most blocks sit at the cone's apex at the optimum. A few instances in a
  hundred have their optimum near 0; there the solver stalls at mu ~ 2e-8
  (exp blocks converging to the apex, cond(H) ~ 1e19) short of the 1e-6
  relative gap and returns IterationLimit, which the answer check reports
  as a failure. While that stall stands, ``cone_blocks`` is left out of
  BENCHMARK.json, whose runs must all succeed; it still runs by hand, and
  seeds 6, 26 and 28 reproduce the stall.
* ``edesign`` stresses one dense custom oracle; with m = 1 the Newton layer
  is trivial, so a structural Newton change predicts no change here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
DUAL_INFEASIBLE = "DualInfeasible"

WHY = {
    "lp_sparse": "sparse LPs 250x800 with two infeasible ones: Newton solve and certificate path",
    "cone_blocks": "140 small exp/gpow/socp blocks plus lp and free: per-block oracle calls dominate",
    "edesign": "E-design n=200 p=400 at tol 1e-8: one dense custom oracle, trivial Newton (m=1)",
}


@dataclass
class Instance:
    """One generated problem with the status it must reach.

    ``cones`` is a list of (type, dim, weights) tuples for conic instances;
    ``V`` is the design matrix for E-design instances. ``bounds`` holds a
    (lower, upper) bracket of the optimal value from the constructed
    primal-dual interior pair, when one exists.
    """

    name: str
    expected: str
    optim_tol: float
    c: np.ndarray | None = None
    A: sps.csc_array | None = None
    b: np.ndarray | None = None
    cones: list = field(default_factory=list)
    V: np.ndarray | None = None
    bounds: tuple | None = None


def _sparse_random(rng, m, n, density):
    """Random m x n matrix with ~density*m*n uniform[-1, 1] entries."""
    nnz = max(1, int(round(density * m * n)))
    flat = rng.choice(m * n, size=nnz, replace=False)
    vals = rng.uniform(-1.0, 1.0, nnz)
    return sps.csc_array((vals, (flat // n, flat % n)), shape=(m, n))


# ----------------------------------------------------------------- lp_sparse

LP_M, LP_N, LP_DENSITY = 250, 800, 0.02


def _lp_matrix(rng):
    """[R | I] with R a 2% random part; the identity keeps full row rank."""
    R = _sparse_random(rng, LP_M, LP_N - LP_M, LP_DENSITY)
    return R, sps.hstack([R, sps.identity(LP_M)], format="csc")


def _lp_feasible(rng, name):
    _, A = _lp_matrix(rng)
    x_hat = rng.uniform(1.0, 2.0, LP_N)
    y_hat = rng.uniform(-1.0, 1.0, LP_M)
    s_hat = rng.uniform(1.0, 2.0, LP_N)
    b = A @ x_hat
    c = A.T @ y_hat + s_hat
    return Instance(
        name, OPTIMAL, 1e-6, c, A, b, [("lp", LP_N, None)],
        bounds=(float(b @ y_hat), float(c @ x_hat)),
    )


def _lp_primal_infeasible(rng, name):
    """A Farkas ray y_f < 0 is built in: A'y_f <= 0 and b'y_f > 0."""
    R, _ = _lp_matrix(rng)
    y_f = -rng.uniform(0.5, 1.5, LP_M)
    # flip every column of R that would give A'y_f a positive entry
    signs = np.where(R.T @ y_f > 0.0, -1.0, 1.0)
    R = (R @ sps.diags_array(signs)).tocsc()
    A = sps.hstack([R, sps.identity(LP_M)], format="csc")
    x_hat = rng.uniform(1.0, 2.0, LP_N)
    b0 = A @ x_hat
    # move b along y_f until b'y_f = 1 > 0, which no x >= 0 can match
    b = b0 + ((1.0 - b0 @ y_f) / (y_f @ y_f)) * y_f
    c = rng.uniform(0.5, 1.5, LP_N)
    return Instance(name, PRIMAL_INFEASIBLE, 1e-6, c, A, b, [("lp", LP_N, None)])


def _lp_dual_infeasible(rng, name):
    """An improving ray x_r >= 0 is built in: A x_r = 0 and c'x_r < 0."""
    R, _ = _lp_matrix(rng)
    R = R.tolil()
    j = int(rng.integers(0, LP_N - LP_M))
    col = -np.abs(rng.uniform(0.2, 1.0, LP_M)) * (rng.random(LP_M) < 0.05)
    col[int(rng.integers(0, LP_M))] = -1.0
    R[:, j] = col[:, None]
    R = R.tocsc()
    A = sps.hstack([R, sps.identity(LP_M)], format="csc")
    x_r = np.zeros(LP_N)
    x_r[j] = 1.0
    x_r[LP_N - LP_M:] = -col
    x_hat = rng.uniform(1.0, 2.0, LP_N)
    b = A @ x_hat
    c = rng.uniform(0.5, 1.5, LP_N)
    c[j] -= c @ x_r + 1.0  # now c'x_r = -1
    return Instance(name, DUAL_INFEASIBLE, 1e-6, c, A, b, [("lp", LP_N, None)])


def lp_sparse(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    return [
        _lp_feasible(rng, "feasible-0"),
        _lp_feasible(rng, "feasible-1"),
        _lp_primal_infeasible(rng, "primal-infeasible"),
        _lp_dual_infeasible(rng, "dual-infeasible"),
    ]


# --------------------------------------------------------------- cone_blocks

CONE_INSTANCES = 6
N_EXP, N_GPOW, N_SOCP = 100, 30, 10
GPOW_DIM, SOCP_DIM, LP_DIM, FREE_DIM = 4, 4, 20, 5


def _interior_primal(kind, dim, w, rng):
    """A strictly interior point of the cone (closed forms, no oracle)."""
    if kind == "lp":
        return rng.uniform(1.0, 2.0, dim)
    if kind == "free":
        return rng.standard_normal(dim)
    if kind == "socp":
        x = rng.standard_normal(dim)
        x[0] = np.linalg.norm(x[1:]) * rng.uniform(1.2, 2.0) + 0.2
        return x
    if kind == "exp":  # x1 > x2 exp(x3 / x2), x2 > 0
        x2 = rng.uniform(0.5, 1.5)
        x3 = rng.standard_normal()
        return np.array([x2 * np.exp(x3 / x2) * rng.uniform(1.5, 3.0), x2, x3])
    x = rng.uniform(0.5, 1.5, dim - 1)  # gpow: prod x^w > |z|
    return np.append(x, rng.uniform(-0.6, 0.6) * np.prod(x**w))


def _interior_dual(kind, dim, w, rng):
    """A strictly interior point of the dual cone."""
    if kind == "free":
        return np.zeros(dim)
    if kind in ("lp", "socp"):  # self-dual
        return _interior_primal(kind, dim, w, rng)
    if kind == "exp":  # s1 > -s3 exp(s2 / s3 - 1), s3 < 0
        s3 = -rng.uniform(0.5, 1.5)
        s2 = rng.standard_normal()
        return np.array([-s3 * np.exp(s2 / s3 - 1.0) * rng.uniform(1.5, 3.0), s2, s3])
    u = rng.uniform(0.5, 1.5, dim - 1)  # gpow dual: prod (u/w)^w > |v|
    return np.append(u, rng.uniform(-0.6, 0.6) * np.prod((u / w) ** w))


def _cone_instance(rng, name):
    cones = [("lp", LP_DIM, None), ("free", FREE_DIM, None)]
    cones += [("exp", 3, None)] * N_EXP
    for _ in range(N_GPOW):
        w = rng.uniform(0.5, 1.5, GPOW_DIM - 1)
        cones.append(("gpow", GPOW_DIM, tuple(w / w.sum())))
    cones += [("socp", SOCP_DIM, None)] * N_SOCP
    order = rng.permutation(len(cones) - 2) + 2  # shuffle the small blocks
    cones = cones[:2] + [cones[i] for i in order]
    n = sum(d for _, d, _ in cones)
    m = n // 10
    # a unit diagonal on the first m columns keeps A at full row rank
    A = (_sparse_random(rng, m, n, 0.05) + sps.eye_array(m, n)).tocsc()
    wts = [None if w is None else np.asarray(w) for _, _, w in cones]
    x_hat = np.concatenate(
        [_interior_primal(k, d, w, rng) for (k, d, _), w in zip(cones, wts)]
    )
    s_hat = np.concatenate(
        [_interior_dual(k, d, w, rng) for (k, d, _), w in zip(cones, wts)]
    )
    b = A @ x_hat
    y_hat = rng.uniform(-1.0, 1.0, m)
    c = A.T @ y_hat + s_hat
    return Instance(
        name, OPTIMAL, 1e-6, c, A, b, cones,
        bounds=(float(b @ y_hat), float(c @ x_hat)),
    )


def cone_blocks(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 2])
    return [_cone_instance(rng, f"blocks-{i}") for i in range(CONE_INSTANCES)]


# ------------------------------------------------------------------ edesign

ED_N, ED_P, ED_INSTANCES = 200, 400, 6


def edesign(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 3])
    return [
        Instance(f"design-{i}", OPTIMAL, 1e-8, V=rng.standard_normal((ED_N, ED_P)))
        for i in range(ED_INSTANCES)
    ]


GENERATORS = {"lp_sparse": lp_sparse, "cone_blocks": cone_blocks, "edesign": edesign}
