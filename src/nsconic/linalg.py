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
    "as_real",
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


def as_real(v, name: str):
    """v, an array or a scipy sparse matrix, as float64. Complex input raises
    ValueError naming ``name``, since the cast would drop its imaginary part."""
    a = v if sps.issparse(v) else np.asarray(v)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {a.dtype} values")
    return a.astype(np.float64, copy=False)


def _as_indices(v, name: str) -> np.ndarray:
    """v as a 1-D int64 array. Integers and integral floats are accepted;
    bools, fractions, non-finite floats and anything else raise ValueError
    naming ``name`` instead of being cast, and an integral float past int64
    raises DimensionMismatch."""
    a = np.atleast_1d(np.asarray(v))
    if a.dtype.kind in "iu":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind == "f" and np.isfinite(a).all() and (a == np.trunc(a)).all():
        if np.abs(a).max(initial=0.0) >= 2.0**63:
            raise DimensionMismatch(f"{name} holds an index outside int64")
        return a.astype(np.int64)
    raise ValueError(f"{name} must hold integers (or integral floats), got {a.dtype}")


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
    are or sum to zero are dropped. Indices must be integers or integral
    floats and values real: input that a cast would change raises ValueError.
    Matrix-vector products run on ``csc`` and on its transpose, a
    compressed-row view of A' built once, on first use, over the same arrays.
    """

    def __init__(self, nrows, ncols, rows, cols, vals):
        nrows = as_int(nrows, "nrows", DimensionMismatch)
        ncols = as_int(ncols, "ncols", DimensionMismatch)
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        rows = _as_indices(rows, "rows")
        cols = _as_indices(cols, "cols")
        vals = np.atleast_1d(as_real(vals, "vals"))
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

    @cached_property
    def _col_pairs(self):
        """Every ordered pair (p, q) of stored entries that share a column, as
        ``(reps, b, tgt)``: the column's entry count for each entry (so
        ``np.repeat(data, reps)`` gives data[p] pair by pair), q, and
        row[p] + m * row[q]. Pairs run column by column in ascending order.
        None when there are more pairs than m**2, so the index never holds
        more than two dense m x m arrays' worth of integers."""
        m = self.shape[0]
        indptr = self.csc.indptr
        counts = np.diff(indptr).astype(np.intp)
        if int(counts @ counts) > m * m:
            return None
        rows = self.csc.indices.astype(np.intp)  # row * m must not wrap in int32
        reps = np.repeat(counts, counts)
        # q runs over its column from indptr[col]: pair k is q = k + indptr[col]
        # minus where p's run of pairs starts
        starts = np.cumsum(reps) - reps
        b = np.arange(reps.sum(), dtype=np.intp)
        b += np.repeat(np.repeat(indptr[:-1], counts) - starts, reps)
        tgt = rows[b]
        tgt *= m
        tgt += np.repeat(rows, reps)
        return reps, b, tgt

    @classmethod
    def coerce(cls, A) -> "SparseMatrix":
        """Return A as a SparseMatrix: kept as is, or converted from 2-D
        scipy sparse or dense input."""
        if isinstance(A, cls):
            return A
        arr = as_real(A, "A")
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
    upper triangle of ``mat`` only enters the finiteness check. The strict
    upper triangle of L is exactly zero, and a 0 x 0 ``mat`` gives a 0 x 0 L.
    A non-square ``mat`` raises DimensionMismatch.

    The caller gives ``mat`` up: a Fortran-contiguous float64 ``mat`` (every
    1 x 1 one among them) is factored in place and returned as L, and after
    a failed factorization its contents are undefined. Any other ``mat``,
    C-ordered or not float64, is copied and keeps its contents.
    """
    a = _as_square(mat)
    if not np.isfinite(a).all():
        return None
    L, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
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

    Solves and products are elementwise, and ``normal`` forms A H^{-1} A'
    from A's sparse columns: from the index of entry pairs that share a
    column, which A builds once, or, for an A with more such pairs than m**2,
    from a sparse L^{-1} A'. Only ``L`` and ``toarray`` form an n x n array.
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

    def normal(self, A: SparseMatrix) -> np.ndarray:
        """A H^{-1} A' as a new Fortran-ordered dense array, so ``try_chol(N)``
        factors it in place.

        With d = 1/l, N[i, k] = sum_j (A_ij d_j)(A_kj d_j) over the columns j
        where both entries are stored. When A has at most m**2 such pairs, N
        is one gather, one product and one ``np.bincount`` over A's cached
        pair index. bincount adds each entry's terms in ascending j, the
        operands and order of scipy's sparse product, so N has the same bits
        as ``(W.T @ W).toarray()`` for W = L^{-1} A'. Past that bound, which
        a dense A crosses, N is that sparse product. The CSC arrays of A are
        the CSR arrays of A', so only values are scaled."""
        csc = A.csc
        d = 1.0 / as_vector(self.l, A.shape[1], "scaling")
        data = csc.data * np.repeat(d, np.diff(csc.indptr))
        pairs = A._col_pairs
        if pairs is None:
            W = sps.csr_matrix((data, csc.indices, csc.indptr), shape=csc.shape[::-1])
            return (W.T @ W).toarray()
        reps, b, tgt = pairs
        m = A.shape[0]
        prod = data[b]
        prod *= np.repeat(data, reps)
        # bincount gives int64 zeros when there are no pairs
        N = np.bincount(tgt, weights=prod, minlength=m * m).astype(np.float64, copy=False)
        return N.reshape((m, m), order="F")

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

    def normal(self, A: SparseMatrix) -> np.ndarray:
        """A H^{-1} A' as a new Fortran-ordered dense array, from W = L^{-1} A'
        formed dense, so ``try_chol(N)`` factors it in place.
        numpy forms W'W by ``syrk``, which makes it exactly symmetric, so its
        transpose is the same matrix in Fortran order."""
        W = solve_lower(self.L, A.toarray().T)
        return (W.T @ W).T

    def toarray(self) -> np.ndarray:
        return self.L @ self.L.T
