"""E-optimal experimental design as a nonsymmetric conic program.

Given p candidate experiments with feature vectors v_1..v_p (columns of an
n x p matrix V), the E-optimal design maximizes the smallest eigenvalue of
the information matrix V diag(x) V' over weight vectors x on the simplex.
As a conic program over variables (t, x):

    min -t   s.t.   sum(x) = 1,   (t, x) in K_E

where K_E = closure{(t, x) : x > 0, V diag(x) V' - t I positive definite}.
K_E admits the barrier -log det(V diag(x) V' - t I) - sum log x_i with
parameter n + p, which is what makes this cone a natural fit for a solver
parameterized by barrier oracles rather than a fixed cone menu.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from .barriers import Barrier, EXTERIOR
from .hsd import ProblemData
from .linalg import SparseMatrix, try_chol

__all__ = [
    "EDesignBarrier",
    "build_edesign",
    "random_design_matrix",
]


class EDesignBarrier(Barrier):
    """Barrier oracle for the E-design cone over (t, x) in R^(1+p).

    Membership requires x > 0 componentwise and V diag(x) V' - t I to admit
    a Cholesky factorization. nu = n + p (log det contributes n, the orthant
    part p). There is no canonical interior point: it depends on V, so
    build_edesign supplies one.

    One evaluation runs a few dense BLAS-3/LAPACK kernels, for V of size
    n x p: M = (V sqrt(x))(V sqrt(x))' as a syrk (n^2 p flops), its Cholesky
    factor L by potrf (n^3/3), and, if the point is exterior, nothing more.
    An interior point adds L^{-1} by trtri (n^3/3), W = L^{-1} V and
    M^{-1} V = L^{-T} W as two trmms on the triangular inverse (n^2 p each),
    S = W'W as a syrk written straight into the Hessian's x block (n p^2),
    and the lower triangle of M^{-1} = L^{-T} L^{-1} by lauum (n^3/3), read
    only for the t-t entry |M^{-1}|_F^2; ``Barrier._finish`` then factors
    the (1+p) x (1+p) Hessian ((1+p)^3/3), which is built in Fortran order
    so that potrf copies it without a transpose. At n = 200, p = 400 that
    is about 110 MFlop per interior evaluation. V is kept once, in
    Fortran order, the layout in which trmm overwrites its operand in place.
    ``contains`` is the base class's ``eval(x).in_interior``.
    """

    def __init__(self, V):
        V = np.asfortranarray(V, dtype=np.float64)
        if V.ndim != 2 or V.size == 0:
            raise ValueError("V must be a nonempty 2-D array")
        if not np.isfinite(V).all():
            raise ValueError("V must be finite")
        n, p = V.shape
        super().__init__(1 + p, nu=float(n + p))
        self.V = V

    def _evaluate(self, v):
        V = self.V
        n, p = V.shape
        t = v[0]
        x = v[1:]
        if x.min() <= 0.0:
            return EXTERIOR
        # one n x p buffer, Fortran-ordered like V, holds V diag(sqrt(x)), then
        # W = L^{-1} V, then U = M^{-1} V, each overwritten in place by trmm
        B = V * np.sqrt(x)
        M = B @ B.T
        M[np.diag_indices(n)] -= t
        LM = try_chol(M)
        if LM is None:
            return EXTERIOR
        value = -2.0 * np.log(np.diag(LM)).sum() - np.log(x).sum()
        # inverse of the factor; potrf left a positive diagonal, so trtri cannot fail
        Li, _ = lapack.dtrtri(LM, lower=1, overwrite_c=1)
        B[...] = V
        W = blas.dtrmm(1.0, Li, B, lower=1, overwrite_b=1)
        gradient = np.empty(1 + p)
        gradient[0] = np.einsum("ij,ij->", Li, Li)  # trace of M^{-1}
        gradient[1:] = -np.einsum("ij,ij->j", W, W) - 1.0 / x
        hessian = np.empty((1 + p, 1 + p), order="F")
        hessian[:, 0] = 0.0
        hessian[0, 1:] = 0.0
        hxx = hessian[1:, 1:]
        # S = W'W, S[i, j] = v_i' M^{-1} v_j, goes straight into the x block;
        # numpy runs W.T @ W as a syrk, so S and the Hessian are exactly symmetric
        np.matmul(W.T, W, out=hxx)
        # squaring the whole contiguous buffer beats squaring the strided x
        # block; potrf reads the zeroed t column, filled in below, not the t row
        np.multiply(hessian, hessian, out=hessian)
        hxx[np.diag_indices(p)] += 1.0 / (x * x)
        U = blas.dtrmm(1.0, Li, W, lower=1, trans_a=1, overwrite_b=1)
        htx = -np.einsum("ij,ij->j", U, U)
        hessian[1:, 0] = htx
        # lauum overwrites Li's lower triangle with the lower triangle of
        # M^{-1} = Li' Li; the strict upper one stays zero, so |M^{-1}|_F^2
        # counts the strict lower part twice
        Minv, _ = lapack.dlauum(Li, lower=1, overwrite_c=1)
        d = np.diagonal(Minv)
        hessian[0, 0] = 2.0 * np.einsum("ij,ij->", Minv, Minv) - d @ d
        return self._finish(value, gradient, hessian)


def build_edesign(V):
    """Assemble (problem, barrier, x0) for the E-design of the columns of V.

    The start puts uniform weight on all experiments and takes t at half the
    resulting smallest eigenvalue, which is strictly interior whenever V has
    full row rank.
    """
    barrier = EDesignBarrier(V)
    V = barrier.V
    n, p = V.shape
    A = SparseMatrix(1, 1 + p, np.zeros(p, dtype=int), np.arange(1, 1 + p), np.ones(p))
    b = np.array([1.0])
    c = np.zeros(1 + p)
    c[0] = -1.0
    prob = ProblemData(A, b, c)
    x_uniform = np.full(p, 1.0 / p)
    lam = np.linalg.eigvalsh((V * x_uniform) @ V.T)[0]
    if lam <= 0.0:
        raise ValueError("V must have full row rank (uniform design is singular)")
    x0 = np.concatenate([[0.5 * lam], x_uniform])
    return prob, barrier, x0


def random_design_matrix(n: int, p: int | None = None, seed: int = 0) -> np.ndarray:
    """Standard-normal candidate matrix; p defaults to 2n."""
    if p is None:
        p = 2 * n
    if n < 1 or p < n:
        raise ValueError("need p >= n >= 1")
    return np.random.default_rng(seed).standard_normal((n, p))
