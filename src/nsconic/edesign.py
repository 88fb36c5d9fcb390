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

    One evaluation allocates one n x (1+p) work array in Fortran order, for
    V of size n x p, and runs a few dense BLAS-3/LAPACK kernels on it. Its
    column 0 stays zero; columns 1..p take V diag(sqrt(x)). M, the syrk of
    those columns (n^2 p flops), gets an array of its own, in which potrf
    factors it into L (n^3/3), trtri inverts L (n^3/3) and lauum forms the
    lower triangle of M^{-1} = L^{-T} L^{-1} (n^3/3). An exterior point
    stops after potrf. Otherwise a trmm writes W = L^{-1} V over the columns
    (n^2 p), and one syrk of the whole work array (n p^2) returns the lower
    triangle of the (1+p) x (1+p) Hessian: S = W'W in its x block, with a
    zero t row and column. It is squared in place, and its diagonal and t
    column are filled in; the t column comes from M^{-1} V = L^{-T} W, a
    second trmm over the same columns (n^2 p), and the t-t entry is
    |M^{-1}|_F^2. ``Barrier._finish`` factors the Hessian in place
    ((1+p)^3/3), so the returned L is the same array. At n = 200, p = 400
    that is about 110 MFlop per interior evaluation, and the traced memory
    peak of one evaluation is about 1.9 times the Hessian's 8 (1+p)^2
    bytes. V is kept once, in Fortran order, the layout in which trmm
    overwrites its operand in place.
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
        # the one work array: column 0 stays zero, so the syrk of the whole
        # array is the Hessian's shape with a zero t row and column; columns
        # 1..p hold V diag(sqrt(x)), then W = L^{-1} V, then U = M^{-1} V
        work = np.empty((n, 1 + p), order="F")
        work[:, 0] = 0.0
        B = work[:, 1:]
        np.multiply(V, np.sqrt(x), out=B)
        M = blas.dsyrk(1.0, B, lower=1)
        M[np.diag_indices(n)] -= t
        LM = try_chol(M, overwrite=True)
        if LM is None:
            return EXTERIOR
        value = -2.0 * np.log(np.diag(LM)).sum() - np.log(x).sum()
        # inverse of the factor; potrf left a positive diagonal, so trtri cannot fail
        Li, _ = lapack.dtrtri(LM, lower=1, overwrite_c=1)
        B[...] = V
        W = blas.dtrmm(1.0, Li, B, lower=1, overwrite_b=1)
        # the lower triangle of work' work; its x block is S = W'W,
        # S[i, j] = v_i' M^{-1} v_j, and its diagonal holds |W e_j|^2
        hessian = blas.dsyrk(1.0, work, trans=1, lower=1)
        gradient = np.empty(1 + p)
        gradient[1:] = -np.diagonal(hessian)[1:] - 1.0 / x
        # squaring the whole contiguous array beats squaring its strided lower
        # triangle; potrf reads neither the zero upper triangle nor row 0
        np.multiply(hessian, hessian, out=hessian)
        hxx = hessian[1:, 1:]
        hxx[np.diag_indices(p)] += 1.0 / (x * x)
        U = blas.dtrmm(1.0, Li, W, lower=1, trans_a=1, overwrite_b=1)
        hessian[1:, 0] = -np.einsum("ij,ij->j", U, U)
        # lauum overwrites Li's lower triangle with the lower triangle of
        # M^{-1} = Li' Li; the strict upper one stays zero, so |M^{-1}|_F^2
        # counts the strict lower part twice
        Minv, _ = lapack.dlauum(Li, lower=1, overwrite_c=1)
        d = np.diagonal(Minv)
        gradient[0] = d.sum()  # trace of M^{-1}
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
