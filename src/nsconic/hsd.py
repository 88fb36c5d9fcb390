"""Homogeneous self-dual embedding: iterates, residuals, proximity, Newton step.

The solver works on the self-dual embedding of the conic pair

    min c'x  s.t.  Ax = b, x in K        max b'y  s.t.  A'y + s = c, s in K*

whose iterate z = (y, x, tau, s, kappa) lives in R^m x K x R+ x K* x R+.
``Iterate``, ``Direction``, ``NewtonRhs`` and ``Residuals`` are NamedTuples
whose fields are their blocks in this order, so blockwise arithmetic zips
over them and the order is written only in their definitions.
The embedding operator is never materialized; all products are formed from
A directly. Newton systems are reduced to one positive-definite system of
order m plus a scalar bordering for the tau column. The barrier Hessian is
used only through the oracle's Hessian object: multiply, solve, half-solve
with its factor L, and the dense normal matrix A H^{-1} A', which a diagonal
one sums from the pairs of A's entries that share a column (or, for an A with
more such pairs than m^2, forms from a sparse L^{-1} A'), so n x n work
happens only for dense cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .barriers import BarrierEval
from .linalg import (
    SparseMatrix,
    as_real,
    as_vector,
    solve_lower,
    solve_lower_t,
    try_chol,
)

__all__ = [
    "ProblemData",
    "Iterate",
    "Residuals",
    "NewtonRhs",
    "Direction",
    "SingularSystemError",
    "residuals",
    "gap",
    "centrality_residual",
    "proximity",
    "newton_solve",
]


class SingularSystemError(ArithmeticError):
    """The reduced Newton system is numerically singular.

    Usually means A has (nearly) dependent rows; presolving redundant
    equalities away is the standard fix.
    """


@dataclass
class ProblemData:
    """Conic program data min c'x s.t. Ax = b, x in K. A must have full row rank."""

    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.A = SparseMatrix.coerce(self.A)
        m, n = self.A.shape
        self.b = as_vector(as_real(self.b, "b"), m, "b")
        self.c = as_vector(as_real(self.c, "c"), n, "c")
        if not (np.isfinite(self.b).all() and np.isfinite(self.c).all()):
            raise ValueError("problem data must be finite")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


class Iterate(NamedTuple):
    """Embedding iterate (y, x, tau, s, kappa); tau and kappa stay positive."""

    y: np.ndarray
    x: np.ndarray
    tau: float
    s: np.ndarray
    kappa: float

    def step(self, d: "Direction", alpha: float) -> "Iterate":
        return Iterate(*(v + alpha * dv for v, dv in zip(self, d)))


class Residuals(NamedTuple):
    """Embedding residuals: primal Ax - b tau, dual -A'y + c tau - s, gap b'y - c'x - kappa."""

    primal: np.ndarray
    dual: np.ndarray
    gap: float

    def norm(self) -> float:
        # gap * gap, not gap**2: a Python float power raises OverflowError;
        # an overflow gives inf, which the caller reports
        with np.errstate(over="ignore"):
            sq = self.primal @ self.primal + self.dual @ self.dual
            return float(np.sqrt(sq + self.gap * self.gap))


def residuals(z: Iterate, prob: ProblemData) -> Residuals:
    rp = prob.A.matvec(z.x) - prob.b * z.tau
    rd = -prob.A.matvec(z.y, transpose=True) + prob.c * z.tau - z.s
    rg = float(prob.b @ z.y - prob.c @ z.x - z.kappa)
    return Residuals(rp, rd, rg)


def gap(z: Iterate, nu: float) -> float:
    """Complementarity gap mu(z) = (x's + tau kappa) / (nu + 1)."""
    return float((z.x @ z.s + z.tau * z.kappa) / (nu + 1.0))


def centrality_residual(z: Iterate, t: float, gradient: np.ndarray):
    """psi(z, t) = (s + t grad f(x), kappa - t / tau); zero exactly on the central path."""
    return z.s + t * gradient, z.kappa - t / z.tau


def proximity(z: Iterate, ev: BarrierEval, nu: float) -> float:
    """Distance of z from the central path in the local Hessian norm, over mu.

    Computed as sqrt(||w||^2 + (tau kappa - mu)^2) / mu where w = L^{-1} psi_x
    for the factor L of H(x), taken from the oracle's Hessian object.
    """
    mu = gap(z, nu)
    psi_x, _ = centrality_residual(z, mu, ev.gradient)
    w = ev.hessian.half_solve(psi_x)
    return float(np.sqrt(w @ w + (z.tau * z.kappa - mu) ** 2) / mu)


class NewtonRhs(NamedTuple):
    """Right-hand side of the embedding Newton system, one block per equation.

    The unknown direction d = (dy, dx, dtau, ds, dkappa) satisfies

        A dx - b dtau                  = r1
        -A'dy + c dtau - ds            = r2
        b'dy - c'dx - dkappa           = r3
        ds + mu H dx                   = r4
        dkappa + (mu / tau^2) dtau     = r5
    """

    r1: np.ndarray
    r2: np.ndarray
    r3: float
    r4: np.ndarray
    r5: float


class Direction(NamedTuple):
    dy: np.ndarray
    dx: np.ndarray
    dtau: float
    ds: np.ndarray
    dkappa: float


def newton_solve(
    prob: ProblemData, z: Iterate, mu: float, ev: BarrierEval, rhs: NewtonRhs
) -> Direction:
    """Solve the embedding Newton system for one direction.

    ds and dkappa are eliminated through the equality rows, dx through the
    scaled Hessian, leaving an m x m positive-definite system plus a scalar
    bordering for dtau. N = A H^{-1} A' / mu comes from the oracle Hessian's
    ``normal`` and the bordering term L^{-1} A'v from its ``half_solve`` (the
    factor of mu H is sqrt(mu) L, so no refactorization happens here). One
    round of iterative refinement against the full system, with H = LL' as
    every solve uses it, cleans up the direction. N is factored where
    ``normal`` left it, so a Cholesky breakdown of the reduced matrix leaves N
    undefined: the one retry rebuilds N and adds a trace-scaled shift to its
    diagonal in place before giving up.
    """
    A, b, c = prob.A, prob.b, prob.c
    m = prob.m
    H = ev.hessian
    gamma = mu / z.tau**2

    def hinv(v):
        # (mu H)^{-1} v from the oracle factor
        return H.solve(v) / mu

    u = hinv(c)
    half_c = H.half_solve(c) / np.sqrt(mu)  # B^{-1/2} c
    Au = A.matvec(u)
    w_vec = b - Au
    N = H.normal(A)
    N /= mu  # in place: a second m x m array slowed sparse LP solves by about 8%
    # potrf factors N where it lies; a failed attempt leaves it undefined
    LN = try_chol(N)
    if LN is None:
        del N  # not held while its replacement is built
        N = H.normal(A)
        N /= mu
        t = float(np.trace(N)) / m
        N[np.diag_indices(m)] += 1e-12 * (t if t > 0.0 else 1.0)
        LN = try_chol(N)
    if LN is None:
        raise SingularSystemError("reduced normal-equations matrix is not positive definite")

    def ninv(v):
        # N^{-1} v from its factor
        return solve_lower_t(LN, solve_lower(LN, v))

    v2 = ninv(Au + b)
    # the bordering scalar is b'N^{-1}b + ||(I - P) B^{-1/2}c||^2 + gamma,
    # a sum of squares; evaluating it in that form avoids the massive
    # cancellation the naive w'v2 + c'u + gamma suffers at small mu
    half_b = solve_lower(LN, b)
    resid_c = half_c - H.half_solve(A.matvec(ninv(Au), transpose=True)) / np.sqrt(mu)
    den = float(half_b @ half_b + resid_c @ resid_c + gamma)
    if not np.isfinite(den) or den <= 0.0:
        raise SingularSystemError("tau bordering lost positive definiteness")

    def reduced(r1, r2, r3, r4, r5):
        r24 = r2 + r4
        hr = hinv(r24)
        g1 = r1 - A.matvec(hr)
        g2 = r3 + r5 + float(c @ hr)
        v1 = ninv(g1)
        dtau = (g2 - float(w_vec @ v1)) / den
        dy = v1 + dtau * v2
        aty = A.matvec(dy, transpose=True)
        dx = hinv(r24 + aty - c * dtau)
        ds = -aty + c * dtau - r2
        dkappa = float(b @ dy - c @ dx) - r3
        return Direction(dy, dx, dtau, ds, dkappa)

    d = reduced(*rhs)
    # one refinement round: rows 2 and 3 are satisfied by construction, so
    # only the primal and complementarity rows carry residual
    rho1 = rhs.r1 - (A.matvec(d.dx) - b * d.dtau)
    rho4 = rhs.r4 - (d.ds + mu * (H @ d.dx))
    rho5 = rhs.r5 - (d.dkappa + gamma * d.dtau)
    corr = reduced(rho1, np.zeros(prob.n), 0.0, rho4, rho5)
    return Direction(*(u + v for u, v in zip(d, corr)))
