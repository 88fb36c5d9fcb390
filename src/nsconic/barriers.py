"""Logarithmically homogeneous self-concordant barrier oracles.

Each oracle answers two queries about a point of its cone. ``eval(x)``
returns the barrier value, the gradient and the factored Hessian at x, or
``EXTERIOR``. The factored Hessian is an object (``DiagonalHessian`` or
``DenseHessian`` from ``linalg``) that holds the Hessian H = LL' as its
lower Cholesky factor L alone; it multiplies and solves with H and with L
and forms the normal matrix A H^{-1} A' for the Newton solve, as
``normal(A)``. A separable barrier returns the diagonal kind, whose factor
is free and which never builds an n x n array. Other oracles return the
dense kind. Where H = G'G for a known G, ``Barrier._finish_qr`` takes L
from a QR of G (LAPACK ``geqrf``), so cond(H) is never squared and H is
never formed: the exponential cone's G stacks the four rank-one terms of
its Hessian, the power cone's stacks two rank-one terms, the scaled factor
of -hess(prod x_i^w_i) and a diagonal, and a pullback's is the inner
factor times the map. The second-order cone
passes H to ``Barrier._finish``, which keeps only its Cholesky factor; a
product with a dense block writes its blocks' factors into one L.
``contains(x)`` answers membership alone, as ``eval(x).in_interior``. The
solver only ever talks to cones through this interface, so adding a cone
means adding one oracle class that implements ``_evaluate(x)``.

Points on the cone boundary count as exterior; all membership tests use
strict inequalities. A Hessian whose factorization breaks down numerically
is likewise reported as exterior, so callers can treat ``in_interior`` as
"every field is usable". Non-finite points are exterior to every oracle,
and so are points where the value or gradient comes out non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .linalg import DenseHessian, DiagonalHessian, DimensionMismatch
from .linalg import as_int, as_real, as_vector, try_chol

__all__ = [
    "BarrierEval",
    "Barrier",
    "NonnegativeBarrier",
    "SecondOrderBarrier",
    "ExponentialBarrier",
    "PowerBarrier",
    "power_weights",
    "ProductBarrier",
    "PullbackBarrier",
    "fd_check",
    "FdCheckReport",
    "ExteriorPointError",
]


class ExteriorPointError(ValueError):
    """A point required to be in the cone interior is not."""


@dataclass(frozen=True)
class BarrierEval:
    """Result of ``Barrier.eval``.

    At an interior point every field is set, with ``hessian`` factored. At
    any other point ``in_interior`` is False and every other field is None.
    """

    in_interior: bool
    value: float | None = None
    gradient: np.ndarray | None = None
    hessian: DiagonalHessian | DenseHessian | None = None


EXTERIOR = BarrierEval(in_interior=False)


class Barrier:
    """Base class wiring shape validation and Hessian factoring for oracles."""

    dim: int
    nu: float
    initial_point: np.ndarray | None  # canonical strictly interior point, if any

    def __init__(self, dim: int, nu: float, initial_point=None):
        self.dim = as_int(dim, "cone dimension")
        if self.dim < 1:
            raise ValueError("cone dimension must be positive")
        self.nu = float(nu)
        self.initial_point = (
            None if initial_point is None else np.asarray(initial_point, float)
        )

    def eval(self, x) -> BarrierEval:
        """Value, gradient and factored Hessian at x, or ``EXTERIOR``."""
        x = as_vector(x, self.dim, "point")
        if not np.isfinite(x).all():
            return EXTERIOR
        # an overflowed value or gradient is exterior too, without a warning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ev = self._evaluate(x)
        if ev.in_interior and np.isfinite(ev.value) and np.isfinite(ev.gradient).all():
            return ev
        return EXTERIOR

    def contains(self, x) -> bool:
        """Whether x is strictly interior, as ``eval(x).in_interior``."""
        return self.eval(x).in_interior

    def _evaluate(self, x: np.ndarray) -> BarrierEval:
        raise NotImplementedError

    def _finish(self, value, gradient, hessian) -> BarrierEval:
        """Assemble an interior result from the dense Hessian's Cholesky factor.

        The caller gives ``hessian`` up: potrf reads its lower triangle, and
        a Fortran-ordered one is factored in place by ``try_chol`` and
        becomes the result's L.
        """
        chol = try_chol(hessian)
        if chol is None:
            return EXTERIOR
        return BarrierEval(True, value, gradient, DenseHessian(chol))

    def _finish_qr(self, value, gradient, G) -> BarrierEval:
        """Assemble an interior result for H = G'G, factored by a QR of G.

        G has at least as many rows as columns. L is R' for the R of G = QR,
        so cond(H) is never squared on the way to L. A zero on R's diagonal
        (H numerically singular) or a non-finite entry reads as exterior.
        """
        r = np.triu(lapack.dgeqrf(G)[0][: G.shape[1]])
        # a Cholesky factor has a positive diagonal: flip R's rows to get one
        chol = r.T * np.sign(np.diag(r))
        if not ((np.diag(chol) > 0.0).all() and np.isfinite(chol).all()):
            return EXTERIOR
        return BarrierEval(True, value, gradient, DenseHessian(chol))


class NonnegativeBarrier(Barrier):
    """-sum(log(x_i)) on the strictly positive orthant. nu equals dim."""

    def __init__(self, dim: int):
        super().__init__(dim, nu=dim, initial_point=np.ones(dim))

    def _evaluate(self, x):
        if x.min() <= 0.0:
            return EXTERIOR
        inv = 1.0 / x
        value = -np.log(x).sum()
        gradient = -inv
        return BarrierEval(True, value, gradient, DiagonalHessian(inv))


class SecondOrderBarrier(Barrier):
    """-log(x0^2 - ||x_rest||^2) on the Lorentz cone. nu = 2 for any dim."""

    def __init__(self, dim: int):
        e0 = np.zeros(dim)
        e0[0] = 1.0
        super().__init__(dim, nu=2.0, initial_point=e0)

    def _evaluate(self, x):
        jx = x.copy()
        jx[1:] *= -1.0
        residual = float(x @ jx)  # x0^2 - ||rest||^2
        if x[0] <= 0.0 or residual <= 0.0:
            return EXTERIOR
        value = -np.log(residual)
        gradient = (-2.0 / residual) * jx
        hessian = (4.0 / residual**2) * np.outer(jx, jx)
        d = np.full(self.dim, 2.0 / residual)
        d[0] *= -1.0
        hessian[np.diag_indices(self.dim)] += d
        return self._finish(value, gradient, hessian)


class ExponentialBarrier(Barrier):
    """Barrier for the exponential cone closure of {x1 >= x2*exp(x3/x2), x2 > 0}.

    Interior test: x1 > 0, x2 > 0 and x2*log(x1/x2) - x3 > 0. nu = 3.
    """

    def __init__(self):
        super().__init__(3, nu=3.0, initial_point=np.array([2.0, 1.0, 0.0]))

    def _evaluate(self, x):
        x1, x2, x3 = x
        if x1 <= 0.0 or x2 <= 0.0:
            return EXTERIOR
        ratio = np.log(x1 / x2)
        residual = x2 * ratio - x3
        if residual <= 0.0:
            return EXTERIOR
        value = -np.log(residual) - np.log(x1) - np.log(x2)
        dr = np.array([x2 / x1, ratio - 1.0, -1.0])
        gradient = -dr / residual - np.array([1.0 / x1, 1.0 / x2, 0.0])
        # H = F F' for the four columns of F, the rows of G below: grad r / r,
        # (x2/x1, -1, 0) / sqrt(r x2), e1 / x1 and e2 / x2
        t = 1.0 / np.sqrt(residual * x2)
        G = np.zeros((4, 3))
        G[0] = dr / residual
        G[1, :2] = x2 / x1 * t, -t
        G[2, 0] = 1.0 / x1
        G[3, 1] = 1.0 / x2
        return self._finish_qr(value, gradient, G)


def power_weights(weights, error: type[Exception] = ValueError) -> np.ndarray:
    """Generalized power-cone weights as a 1-D float array.

    Anything but a nonempty 1-D sequence of finite positive numbers summing
    to 1 (within 1e-12) raises ``error``, whose message shows the weights.
    """
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        w = np.empty(0)  # not numbers: rejected below like an empty sequence
    finite = w.ndim == 1 and w.size > 0 and np.isfinite(w).all()
    if not (finite and w.min() > 0.0 and abs(w.sum() - 1.0) <= 1e-12):
        raise error(
            "power-cone weights must be a nonempty 1-D sequence of finite positive"
            f" numbers summing to 1, got {weights!r}"
        )
    return w


class PowerBarrier(Barrier):
    """Barrier for the generalized power cone over (x, z).

    The cone is {(x, z) : x >= 0, prod(x_i^weights_i) >= |z|} with positive
    weights summing to one; x occupies the first len(weights) coordinates
    and z the last. nu = len(weights) + 1.
    """

    def __init__(self, weights):
        w = power_weights(weights)
        n = w.size
        x0 = np.ones(n + 1)
        x0[-1] = 0.0
        super().__init__(n + 1, nu=n + 1.0, initial_point=x0)
        self.weights = w

    def _evaluate(self, v):
        w = self.weights
        x = v[:-1]
        z = v[-1]
        if x.min() <= 0.0:
            return EXTERIOR
        logx = np.log(x)
        power = np.exp(w @ logx)  # pi = prod x_i^w_i
        lo, hi = power - z, power + z
        if min(lo, hi) <= 0.0:  # pi - |z|
            return EXTERIOR
        value = -np.log(lo) - np.log(hi) - ((1.0 - w) * logx).sum()
        dp = w * power / x  # gradient of pi
        # H = G'G: the rank-one terms (grad pi, -1) / (pi - z) and
        # (grad pi, 1) / (pi + z), which are also the gradients of the two
        # logs; -hess pi = pi F'F for the projector-times-diagonal
        # F = (I - sqrt(w) sqrt(w)') diag(sqrt(w) / x), scaled by
        # 1/(pi - z) + 1/(pi + z); and diag(sqrt(1 - w) / x)
        n = w.size
        rw = np.sqrt(w)
        G = np.zeros((2 * n + 2, n + 1))
        G[0, :-1], G[0, -1] = dp / lo, -1.0 / lo
        G[1, :-1], G[1, -1] = dp / hi, 1.0 / hi
        gradient = -G[0] - G[1]
        gradient[:-1] -= (1.0 - w) / x
        scale = np.sqrt(power * (1.0 / lo + 1.0 / hi))
        G[2 : n + 2, :-1] = (np.eye(n) - np.outer(rw, rw)) * (scale * rw / x)
        G[n + 2 :, :-1] = np.diag(np.sqrt(1.0 - w) / x)
        return self._finish_qr(value, gradient, G)


class ProductBarrier(Barrier):
    """Direct product of barrier oracles laid out block by block.

    Value adds, gradients concatenate, Hessians and Cholesky factors are
    block diagonal, nu adds. The product point is interior exactly when
    every block is. When every block's Hessian is diagonal the product's is
    too (the factor diagonals concatenate); otherwise the blocks' factors
    are written into one dense n x n L. Factor i occupies coordinates
    ``offsets[i]:offsets[i + 1]``.
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product of zero cones is not allowed")
        dims = [f.dim for f in factors]
        inits = [f.initial_point for f in factors]
        init = None if any(p is None for p in inits) else np.concatenate(inits)
        super().__init__(sum(dims), nu=sum(f.nu for f in factors), initial_point=init)
        self.factors = factors
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    def blocks(self, v: np.ndarray) -> list[np.ndarray]:
        """Split a product-space vector into per-factor blocks."""
        o = self.offsets
        return [v[o[i] : o[i + 1]] for i in range(len(self.factors))]

    def _evaluate(self, x):
        evals = []
        for f, xb in zip(self.factors, self.blocks(x)):
            ev = f._evaluate(xb)
            if not ev.in_interior:
                return EXTERIOR
            evals.append(ev)
        value = sum(ev.value for ev in evals)
        gradient = np.concatenate([ev.gradient for ev in evals])
        hs = [ev.hessian for ev in evals]
        if all(isinstance(h, DiagonalHessian) for h in hs):
            hess = DiagonalHessian(np.concatenate([h.l for h in hs]))
            return BarrierEval(True, value, gradient, hess)
        chol = np.zeros((self.dim, self.dim))
        for h, lo, hi in zip(hs, self.offsets, self.offsets[1:]):
            chol[lo:hi, lo:hi] = h.L
        return BarrierEval(True, value, gradient, DenseHessian(chol))


class PullbackBarrier(Barrier):
    """Barrier for the preimage {x : M x in K} of a cone under a linear map.

    Composition with an injective linear map preserves self-concordance and
    the barrier parameter, so nu equals the inner oracle's; a map with a
    non-finite entry or rank below its column count is rejected. The value
    is the inner barrier at M x, the gradient pulls back through M', and the
    Hessian through M' H M = G'G with G = L'M for the inner factor L, so
    the factor is R' from a QR of G and cond(M' H M) is never squared. No
    canonical interior point exists in general; pass ``initial_point``
    explicitly if one is known.
    """

    def __init__(self, inner: Barrier, mat, initial_point=None):
        mat = as_real(mat.toarray() if hasattr(mat, "toarray") else mat, "map")
        if mat.ndim != 2 or mat.shape[0] != inner.dim:
            raise DimensionMismatch(
                f"map has shape {mat.shape}, inner oracle dimension is {inner.dim}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("map has non-finite entries")
        if np.linalg.matrix_rank(mat) < mat.shape[1]:
            raise ValueError("map is not injective: its rank is below its column count")
        super().__init__(mat.shape[1], nu=inner.nu, initial_point=initial_point)
        self.inner = inner
        self.mat = mat
        if initial_point is not None:
            if not self.contains(initial_point):
                raise ExteriorPointError("initial point maps outside the cone interior")

    def _evaluate(self, x):
        ev = self.inner.eval(self.mat @ x)
        if not ev.in_interior:
            return EXTERIOR
        gradient = self.mat.T @ ev.gradient
        return self._finish_qr(ev.value, gradient, ev.hessian.L.T @ self.mat)


class FdCheckReport(NamedTuple):
    """Finite-difference and identity diagnostics for one oracle query."""

    grad_err: float
    hess_err: float
    grad_identity: float
    hess_identity: float

    def ok(self) -> bool:
        return max(self.grad_err, self.hess_err) <= 1e-5


def fd_check(oracle: Barrier, x) -> FdCheckReport:
    """Check oracle derivatives at a strictly interior point.

    Central differences with per-coordinate step h_i = 1e-4 * (1 + |x_i|)
    probe the gradient against the value and the Hessian against the
    gradient. The report also carries the two homogeneity identities
    |x'g + nu| / nu and ||H x + g|| / max(1, ||g||).

    Every evaluation is a full one, so x and every probe point must also have
    a Hessian that factors. Raises ExteriorPointError if x or any probe point
    leaves the interior or has a Hessian that does not factor.
    """
    x = np.asarray(x, dtype=np.float64)
    ev = oracle.eval(x)
    if not ev.in_interior:
        raise ExteriorPointError("fd_check requires a strictly interior point")
    n = oracle.dim
    grad_fd = np.empty(n)
    hess_fd = np.empty((n, n))
    for i in range(n):
        h = 1e-4 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        evp = oracle.eval(xp)
        evm = oracle.eval(xm)
        if not (evp.in_interior and evm.in_interior):
            raise ExteriorPointError(f"probe along coordinate {i} left the interior")
        grad_fd[i] = (evp.value - evm.value) / (2.0 * h)
        hess_fd[:, i] = (evp.gradient - evm.gradient) / (2.0 * h)
    gnorm = np.linalg.norm(ev.gradient)
    grad_err = np.linalg.norm(grad_fd - ev.gradient) / max(1.0, gnorm)
    hess = ev.hessian.toarray()
    hess_err = np.linalg.norm(hess_fd - hess) / max(1.0, np.linalg.norm(hess))
    grad_identity = abs(x @ ev.gradient + oracle.nu) / oracle.nu
    hess_identity = np.linalg.norm(ev.hessian @ x + ev.gradient) / max(1.0, gnorm)
    return FdCheckReport(grad_err, hess_err, grad_identity, hess_identity)
