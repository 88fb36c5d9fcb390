"""Dense and sparse linear-algebra kernels for barrier oracles and Newton systems.

Barrier Hessians are handed to the Newton solve as objects, not arrays, so a
structured Hessian keeps its structure: ``DiagonalHessian`` for separable
barriers such as the orthant's, ``DenseHessian`` for everything else. Both
answer the same operations and expose the factor L, with H = L L'.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sps
from scipy.linalg import lapack

__all__ = [
    "DimensionMismatch",
    "as_int",
    "as_vector",
    "SparseMatrix",
    "try_chol",
    "solve_lower",
    "solve_lower_t",
    "DiagonalHessian",
    "DenseHessian",
]


class DimensionMismatch(ValueError):
    """Operand shapes are inconsistent."""


def as_int(value, name: str, error: type[Exception] = ValueError) -> int:
    """A size or count given from outside, as an int.

    Python and NumPy integers and integral floats are accepted. Bools,
    fractional or non-finite floats and anything else raise ``error``, whose
    message names ``name``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def as_vector(v, n: int, what: str) -> np.ndarray:
    """v as a float64 array of shape (n,); DimensionMismatch names ``what``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise DimensionMismatch(f"{what} has shape {v.shape}, expected ({n},)")
    return v


class SparseMatrix:
    """Real sparse matrix that holds its canonical scipy CSC form in ``csc``.

    Input triplets may be unsorted and may contain duplicate ``(row, col)``
    pairs; duplicates are summed during canonicalization, and entries that
    are or sum to zero are dropped. Matrix-vector products run on ``csc`` and
    on its transpose, a compressed-row view of A' built once, on first use,
    over the same arrays.
    """

    def __init__(self, nrows, ncols, rows, cols, vals):
        nrows = as_int(nrows, "nrows", DimensionMismatch)
        ncols = as_int(ncols, "ncols", DimensionMismatch)
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        vals = np.atleast_1d(np.asarray(vals, dtype=np.float64))
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DimensionMismatch("triplet arrays must be 1-D and equally long")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise DimensionMismatch("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise DimensionMismatch("column index out of range")
        if not np.isfinite(vals).all():
            raise ValueError("matrix values must be finite")
        # tocsc sorts the indices and sums duplicates
        csc = sps.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsc()
        csc.eliminate_zeros()
        self.csc = csc

    @cached_property
    def _csr_t(self):
        # A' as a CSR view over the CSC arrays, built on the first transposed product
        return self.csc.T

    @classmethod
    def coerce(cls, A) -> "SparseMatrix":
        """Return A as a SparseMatrix: kept as is, or converted from 2-D
        scipy sparse or dense input."""
        if isinstance(A, cls):
            return A
        arr = A if sps.issparse(A) else np.asarray(A, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got shape {arr.shape}")
        coo = sps.coo_array(arr)
        return cls(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.csc.shape

    def matvec(self, v, transpose: bool = False) -> np.ndarray:
        """Return ``A @ v``, or ``A.T @ v`` when ``transpose`` is set."""
        v = as_vector(v, self.shape[0 if transpose else 1], "operand")
        if transpose:
            return self._csr_t @ v
        return self.csc @ v

    def toarray(self) -> np.ndarray:
        return self.csc.toarray()

    def __repr__(self):
        return f"SparseMatrix({self.shape[0]}x{self.shape[1]}, nnz={self.csc.nnz})"


def _as_square(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def try_chol(mat) -> np.ndarray | None:
    """Lower Cholesky factor L with L @ L.T == mat, or None when mat is not
    numerically positive definite or has any non-finite entry.

    The factorization is LAPACK ``potrf`` on the lower triangle, so the strict
    upper triangle of ``mat`` only enters the finiteness check. ``mat`` is
    never modified, the strict upper triangle of L is exactly zero, and a
    0 x 0 ``mat`` gives a 0 x 0 L. A non-square ``mat`` raises
    DimensionMismatch.
    """
    a = _as_square(mat)
    if not np.isfinite(a).all():
        return None
    L, info = lapack.dpotrf(a, lower=1, clean=1)
    return L if info == 0 else None


def _trsv(fac, rhs, trans: int) -> np.ndarray:
    """Solve L w = rhs (trans 0) or L' w = rhs (trans 1) with LAPACK trtrs.

    This is ``scipy.linalg.solve_triangular(L, rhs, lower=True, trans=trans,
    check_finite=False)`` without its per-call validation, and gives the same
    bits: trtrs reads Fortran order, so a C-ordered L is passed as the upper
    triangular L' with the transpose flag flipped.
    """
    L = _as_square(fac)
    b = np.asarray(rhs, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != L.shape[0]:
        raise DimensionMismatch(
            f"rhs has shape {b.shape}, incompatible with factor of order {L.shape[0]}"
        )
    if b.size == 0:  # LAPACK rejects a leading dimension of 0
        return np.empty_like(b)
    if L.flags.f_contiguous:
        w, info = lapack.dtrtrs(L, b, lower=1, trans=trans)
    else:
        w, info = lapack.dtrtrs(L.T, b, lower=0, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    return w


def solve_lower(fac, rhs) -> np.ndarray:
    """Solve L w = rhs for a lower-triangular L (1-D or 2-D rhs)."""
    return _trsv(fac, rhs, 0)


def solve_lower_t(fac, rhs) -> np.ndarray:
    """Solve L.T w = rhs for a lower-triangular L (1-D or 2-D rhs)."""
    return _trsv(fac, rhs, 1)


class DiagonalHessian:
    """H = diag(l**2) with factor L = diag(l), for separable barriers.

    Solves and products are elementwise and ``normal`` keeps W = L^{-1} A'
    sparse; only ``L`` and ``toarray`` form an n x n array.
    """

    def __init__(self, l):
        self.l = np.asarray(l, dtype=np.float64)

    def __matmul__(self, v) -> np.ndarray:
        return (self.l * self.l) * v

    def half_solve(self, v) -> np.ndarray:
        """L^{-1} v."""
        return v / self.l

    def solve(self, v) -> np.ndarray:
        """H^{-1} v."""
        return v / self.l / self.l

    @property
    def L(self) -> np.ndarray:
        return np.diag(self.l)

    def normal(self, A: SparseMatrix) -> tuple[sps.csr_matrix, np.ndarray]:
        """W = L^{-1} A', sparse n x m, and W'W = A H^{-1} A' as a new dense array.
        The CSC arrays of A are the CSR arrays of A', so only values are scaled."""
        csc = A.csc
        d = 1.0 / as_vector(self.l, A.shape[1], "scaling")
        data = csc.data * np.repeat(d, np.diff(csc.indptr))
        W = sps.csr_matrix((data, csc.indices, csc.indptr), shape=csc.shape[::-1])
        return W, (W.T @ W).toarray()

    def toarray(self) -> np.ndarray:
        return np.diag(self.l * self.l)


class DenseHessian:
    """H = L L' for a dense barrier, held as its lower Cholesky factor L alone."""

    def __init__(self, L):
        self.L = L

    def __matmul__(self, v) -> np.ndarray:
        return self.L @ (self.L.T @ v)

    def half_solve(self, v) -> np.ndarray:
        """L^{-1} v."""
        return solve_lower(self.L, v)

    def solve(self, v) -> np.ndarray:
        """H^{-1} v = L'^{-1} L^{-1} v."""
        return solve_lower_t(self.L, solve_lower(self.L, v))

    def normal(self, A: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
        """W = L^{-1} A', dense n x m, and W'W = A H^{-1} A' as a new dense array."""
        W = solve_lower(self.L, A.toarray().T)
        return W, W.T @ W

    def toarray(self) -> np.ndarray:
        return self.L @ self.L.T
