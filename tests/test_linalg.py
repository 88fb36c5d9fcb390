import numpy as np
import pytest
import scipy.sparse as sps
from scipy.linalg import solve_triangular

import nsconic.linalg
from nsconic.barriers import NonnegativeBarrier
from nsconic.cones import ConeSpec, build_cones, embed_point, strip_point
from nsconic.linalg import (
    DenseHessian,
    DiagonalHessian,
    DimensionMismatch,
    SparseMatrix,
    as_vector,
    solve_lower,
    solve_lower_t,
    try_chol,
)


def test_chol_identity():
    L = try_chol(np.eye(4))
    np.testing.assert_allclose(L, np.eye(4))


def test_chol_2x2_hand_case():
    M = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = try_chol(M)
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    np.testing.assert_allclose(L, expected, rtol=1e-15)
    np.testing.assert_allclose(L @ L.T, M, rtol=1e-15)


def test_chol_not_pd_raises():
    M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    assert try_chol(M) is None


def test_chol_zero_matrix_not_pd():
    assert try_chol(np.zeros((3, 3))) is None


def test_chol_rejects_nonfinite():
    M = np.eye(2)
    M[0, 1] = M[1, 0] = np.nan
    assert try_chol(M) is None


def test_chol_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        try_chol(np.ones((2, 3)))


def test_chol_random_spd_reconstruction():
    # L L' must reproduce M to near machine precision on random SPD input.
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        B = rng.standard_normal((n, n))
        M = B.T @ B + np.eye(n)
        L = try_chol(M.copy())  # a 1 x 1 M would be factored in place
        assert np.all(np.triu(L, 1) == 0.0)
        assert np.all(np.diag(L) > 0.0)
        err = np.linalg.norm(L @ L.T - M) / np.linalg.norm(M)
        assert err <= 1e-12


def test_chol_ignores_a_finite_upper_triangle():
    M = np.array([[4.0, 2.0], [2.0, 3.0]])
    garbage = M.copy()
    garbage[0, 1] = -1e3
    np.testing.assert_array_equal(try_chol(garbage), try_chol(M))


def test_chol_empty_matrix():
    L = try_chol(np.zeros((0, 0)))
    assert L is not None and L.shape == (0, 0)


def test_chol_contract_on_random_spd():
    # a Fortran float64 input (every 1 x 1 one) is factored in place, any
    # other input is left as it was, C and Fortran order agree, and the
    # strict upper triangle of L is exactly zero (a product copies L into
    # its factor)
    rng = np.random.default_rng(2)
    for n in (1, 3, 17, 64):
        B = rng.standard_normal((n, n))
        M = B @ B.T + np.eye(n)
        F = np.asfortranarray(M)
        expected = try_chol(F.copy())
        L = try_chol(F)
        np.testing.assert_array_equal(L, expected)
        assert np.shares_memory(L, F)
        if n > 1:
            before = M.copy()
            np.testing.assert_array_equal(try_chol(M), L)
            np.testing.assert_array_equal(M, before)
        assert np.all(np.triu(L, 1) == 0.0)


def test_solve_lower_hand_case():
    L = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    w = solve_lower(L, np.array([2.0, 4.0]))
    np.testing.assert_allclose(w, [1.0, 3.0 / np.sqrt(2.0)], rtol=1e-15)
    v = solve_lower_t(L, w)
    # L L' v = rhs, i.e. v = M^{-1} rhs for M = [[4,2],[2,3]]
    M = np.array([[4.0, 2.0], [2.0, 3.0]])
    np.testing.assert_allclose(M @ v, [2.0, 4.0], rtol=1e-14)


def test_solve_lower_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_lower(np.eye(3), np.ones(2))


def test_solve_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        B = rng.standard_normal((n, n))
        M = B.T @ B + n * np.eye(n)  # comfortably conditioned
        L = try_chol(M.copy())  # a 1 x 1 M would be factored in place
        b = rng.standard_normal(n)
        x = solve_lower_t(L, solve_lower(L, b))
        np.testing.assert_allclose(M @ x, b, rtol=0, atol=1e-8 * np.linalg.norm(b))


def test_solve_lower_matrix_rhs():
    rng = np.random.default_rng(3)
    L = np.tril(rng.standard_normal((5, 5))) + 5 * np.eye(5)
    B = rng.standard_normal((5, 3))
    W = solve_lower(L, B)
    np.testing.assert_allclose(L @ W, B, atol=1e-12)


def _factors():
    """(name, L) pairs: C-ordered tril factors and F-ordered potrf factors."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 40):
        yield f"tril-{n}", np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        B = rng.standard_normal((n, n))
        yield f"chol-{n}", try_chol(B @ B.T + n * np.eye(n))


@pytest.mark.parametrize("solver, trans", [(solve_lower, "N"), (solve_lower_t, "T")])
def test_trsv_matches_solve_triangular_bitwise(solver, trans):
    rng = np.random.default_rng(19)
    for name, L in _factors():
        assert L.flags.c_contiguous if name.startswith("tril") else L.flags.f_contiguous
        n = L.shape[0]
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                    np.asfortranarray(rng.standard_normal((n, 2)))):
            expected = solve_triangular(L, rhs, lower=True, trans=trans, check_finite=False)
            got = solver(L, rhs)
            assert got.shape == rhs.shape
            np.testing.assert_array_equal(got, expected, err_msg=name)


@pytest.mark.parametrize("solver", [solve_lower, solve_lower_t])
def test_trsv_empty_and_singular(solver):
    assert solver(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
    assert solver(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)
    assert solver(np.eye(2), np.zeros((2, 0))).shape == (2, 0)
    L = np.tril(np.ones((3, 3)))
    L[1, 1] = 0.0
    for fac in (L, np.asfortranarray(L)):
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            solver(fac, np.ones(3))


def test_sparse_duplicates_summed():
    A = SparseMatrix(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    assert A.csc.nnz == 2
    np.testing.assert_allclose(A.toarray(), [[0.0, 5.0], [-1.0, 0.0]])


def test_sparse_csc_is_canonical():
    # unsorted triplets with a duplicate, given column by column in reverse
    A = SparseMatrix(3, 2, [2, 0, 2, 1, 0], [1, 1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_array_equal(A.csc.indptr, [0, 2, 4])
    np.testing.assert_array_equal(A.csc.indices, [0, 1, 0, 2])
    np.testing.assert_array_equal(A.csc.data, [5.0, 4.0, 2.0, 4.0])


def test_sparse_cancelling_duplicates_store_no_zeros():
    A = SparseMatrix(2, 2, [0, 0, 1], [0, 0, 1], [1.0, -1.0, 0.0])
    assert A.csc.nnz == 0 == SparseMatrix.coerce(np.zeros((2, 2))).csc.nnz
    assert A.csc.data.size == 0 == A.csc.indices.size
    np.testing.assert_array_equal(A.matvec(np.ones(2), transpose=True), [0.0, 0.0])
    assert repr(A) == "SparseMatrix(2x2, nnz=0)"


def test_sparse_matvec_hand_case():
    A = SparseMatrix(2, 3, [0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(A.matvec(np.array([1.0, 1.0, 1.0])), [3.0, 3.0])
    np.testing.assert_allclose(
        A.matvec(np.array([1.0, 2.0]), transpose=True), [1.0, 6.0, 2.0]
    )


def test_sparse_matvec_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(0, 12))
        n = int(rng.integers(0, 12))
        dense = np.where(rng.random((m, n)) < 0.4, rng.standard_normal((m, n)), 0.0)
        A = SparseMatrix.coerce(dense)
        v = rng.standard_normal(n)
        u = rng.standard_normal(m)
        np.testing.assert_allclose(A.matvec(v), dense @ v, atol=1e-13)
        np.testing.assert_allclose(A.matvec(u, transpose=True), dense.T @ u, atol=1e-13)


def test_sparse_empty_shapes():
    A = SparseMatrix(0, 4, [], [], [])
    assert A.matvec(np.ones(4)).shape == (0,)
    assert A.matvec(np.zeros(0), transpose=True).shape == (4,)


def test_sparse_index_validation():
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [2], [0], [1.0])
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0], [0], [np.inf])
    with pytest.raises(DimensionMismatch, match="nonnegative"):
        SparseMatrix(-1, 2, [], [], [])
    with pytest.raises(DimensionMismatch, match="equally long"):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])
    for bad in (2.5, True, "2", 1e300, 2**70):
        with pytest.raises(DimensionMismatch, match="nrows must be an integer"):
            SparseMatrix(bad, 3, [0], [0], [1.0])
        with pytest.raises(DimensionMismatch, match="ncols must be an integer"):
            SparseMatrix(3, bad, [0], [0], [1.0])
    # a cast would truncate fractions, read True as 1 and drop imaginary parts
    for rows, cols, message in [
        ([0.7, 1.2], [0, 1], "rows must hold integers"),
        ([True], [1], "rows must hold integers"),
        ([True, 1], [0, 1], "rows must hold integers"),
        ([1.0, True], [0, 1], "rows must hold integers"),
        ([0], [np.nan], "cols must hold integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            SparseMatrix(2, 2, rows, cols, np.ones(len(rows)))
    with pytest.raises(ValueError, match="vals must be real"):
        SparseMatrix(2, 2, [0], [0], [1.0 + 2.0j])
    for complex_A in (np.array([[1.0 + 2.0j]]), sps.csc_array(np.array([[2.0j]]))):
        with pytest.raises(ValueError, match="A must be real"):
            SparseMatrix.coerce(complex_A)
    with pytest.raises(DimensionMismatch, match="rows holds an index outside int64"):
        SparseMatrix(2, 2, [1e300], [0], [1.0])
    # integral floats are indices, as in problem files
    A = SparseMatrix(2, 2, np.array([0.0, 1.0]), [0, 1], [1.0, 2.0])
    np.testing.assert_array_equal(A.toarray(), np.diag([1.0, 2.0]))


def test_sparse_matvec_shape_check():
    A = SparseMatrix(2, 3, [0], [0], [1.0])
    with pytest.raises(DimensionMismatch):
        A.matvec(np.ones(2))
    with pytest.raises(DimensionMismatch):
        A.matvec(np.ones(3), transpose=True)


def test_sparse_triplets_roundtrip():
    rng = np.random.default_rng(5)
    dense = np.where(rng.random((6, 9)) < 0.3, rng.standard_normal((6, 9)), 0.0)
    A = SparseMatrix.coerce(dense)
    coo = A.csc.tocoo()
    B = SparseMatrix(6, 9, coo.row, coo.col, coo.data)
    np.testing.assert_array_equal(B.toarray(), A.toarray())


def test_coerce_accepts_scipy_dense_and_own_type():
    dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, -3.0]])
    own = SparseMatrix.coerce(dense)
    assert SparseMatrix.coerce(own) is own
    for given in (dense, dense.tolist(), sps.csc_array(dense), sps.coo_matrix(dense)):
        np.testing.assert_array_equal(SparseMatrix.coerce(given).toarray(), dense)
    for bad in (np.ones(3), [[[1.0]]], 2.0, sps.coo_array(np.ones(3))):
        with pytest.raises(DimensionMismatch, match="2-D"):
            SparseMatrix.coerce(bad)


def test_diagonal_normal_matches_dense(monkeypatch):
    rng = np.random.default_rng(13)
    dense = rng.standard_normal((4, 6)) * (rng.random((4, 6)) < 0.5)
    A = SparseMatrix.coerce(dense)
    l = rng.uniform(0.5, 2.0, 6)

    def no_densify():
        raise AssertionError("DiagonalHessian.normal densified A")

    # the diagonal kind builds L^{-1} A' from A's sparse arrays alone
    monkeypatch.setattr(A, "toarray", no_densify)
    N = DiagonalHessian(l).normal(A)
    assert type(N) is np.ndarray and N.shape == (4, 4)
    expected = dense @ np.linalg.solve(np.diag(l * l), dense.T)
    np.testing.assert_allclose(N, expected, rtol=1e-10)
    with pytest.raises(DimensionMismatch):
        DiagonalHessian(np.ones(4)).normal(A)


def _sparse_product_normal(A, l):
    """A diag(l)^-2 A' as W'W for the sparse W = L^{-1} A', the scipy product
    that forms N past the column-pair bound."""
    csc = A.csc
    data = csc.data * np.repeat(1.0 / l, np.diff(csc.indptr))
    W = sps.csr_matrix((data, csc.indices, csc.indptr), shape=csc.shape[::-1])
    return (W.T @ W).toarray()


def _normal_cases():
    """Parameters (A, l, path, pd): path is "pairs" or "product", the way
    DiagonalHessian.normal forms N, and pd says N is positive definite."""
    rng = np.random.default_rng(31)

    def case(A, path, pd, name, l=None):
        if l is None:
            l = rng.uniform(0.5, 2.0, A.shape[1])
        return pytest.param(A, l, path, pd, id=name)

    def ident_plus(m, k, density):
        R = rng.standard_normal((m, k)) * (rng.random((m, k)) < density)
        return SparseMatrix.coerce(np.hstack([np.eye(m), R]))

    # values and scalings over e^+-20 and e^+-15, so a change in the order of
    # the sums shows in the last bits
    A = ident_plus(30, 60, 0.05)
    A.csc.data *= np.exp(rng.uniform(-20.0, 20.0, A.csc.nnz))
    yield case(A, "pairs", False, "pairs-scaled", np.exp(rng.uniform(-15.0, 15.0, 90)))
    yield case(ident_plus(30, 60, 0.05), "pairs", True, "pairs")
    yield case(ident_plus(8, 12, 0.6), "product", True, "product")
    # 10 unit columns, 9 columns of 3 entries and 9 of 1: exactly m**2 = 100
    # pairs, and one full column more makes 200
    m = 10
    cols = [np.eye(m)]
    for j in range(9):
        col = np.zeros((m, 2))
        col[[j, j + 1, (j + 5) % m], 0] = rng.standard_normal(3)
        col[j, 1] = rng.standard_normal()
        cols.append(col)
    at_bound = np.hstack(cols)
    yield case(SparseMatrix.coerce(at_bound), "pairs", True, "at-the-bound")
    full = np.hstack([at_bound, rng.standard_normal((m, 1))])
    yield case(SparseMatrix.coerce(full), "product", True, "one-full-column-over")
    # unsorted triplets, duplicates that sum and ones that cancel, and empty
    # columns 1 and 4
    rows = [3, 0, 2, 0, 1, 3, 2, 1, 0, 0, 2]
    cols = [5, 0, 3, 0, 2, 0, 6, 6, 3, 3, 3]
    vals = [1.5, 2.0, -1.0, 0.5, 3.0, -2.0, 1.0, 4.0, 7.0, -7.0, 2.5]
    yield case(SparseMatrix(4, 7, rows, cols, vals), "pairs", True, "unsorted-duplicates")
    yield case(SparseMatrix(1, 4, [0], [2], [3.0]), "pairs", True, "m-1")
    yield case(SparseMatrix.coerce(rng.standard_normal((1, 4))), "product", True, "m-1-product")
    yield case(SparseMatrix(3, 5, [], [], []), "pairs", False, "all-zero")
    yield case(SparseMatrix(0, 5, [], [], []), "pairs", False, "m-0")


@pytest.mark.parametrize("A, l, path, pd", _normal_cases())
def test_diagonal_normal_equals_the_sparse_product_bit_for_bit(A, l, path, pd, monkeypatch):
    # below the bound N is summed from A's column-pair index, past it by the
    # sparse product; both must give that product's bits
    assert (A._col_pairs is None) == (path == "product")
    if path == "pairs":  # and scipy's product does not run
        monkeypatch.setattr(nsconic.linalg, "sps", None)
    N = DiagonalHessian(l).normal(A)
    expected = _sparse_product_normal(A, l)
    assert N.dtype == np.float64 and N.shape == expected.shape
    assert np.array_equal(N, expected)
    assert N.flags.f_contiguous
    if pd:
        assert np.shares_memory(try_chol(N), N)


def _hessian(kind, rng, n):
    """A Hessian object of the given kind with its dense factor L."""
    if kind == "diagonal":
        l = rng.uniform(0.5, 2.0, n)
        return DiagonalHessian(l), np.diag(l)
    B = rng.standard_normal((n, n))
    L = np.linalg.cholesky(B @ B.T + n * np.eye(n))
    return DenseHessian(L), L


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_hessian_operations_agree_with_the_array(kind):
    rng = np.random.default_rng(14)
    n, m = 7, 3
    hess, L = _hessian(kind, rng, n)
    H = hess.toarray()
    np.testing.assert_array_equal(hess.L, L)
    np.testing.assert_allclose(H, L @ L.T, rtol=1e-14)
    v = rng.standard_normal(n)
    np.testing.assert_allclose(hess @ v, H @ v, rtol=1e-12)
    np.testing.assert_allclose(hess.solve(v), np.linalg.solve(H, v), rtol=1e-10)
    np.testing.assert_allclose(hess.half_solve(v), np.linalg.solve(L, v), rtol=1e-10)
    # a matrix operand is transformed column by column
    for M in (rng.standard_normal((n, n)), rng.standard_normal((n, 2))):
        np.testing.assert_allclose(hess @ M, H @ M, rtol=1e-12)
        np.testing.assert_allclose(hess.solve(M), np.linalg.solve(H, M), rtol=1e-10)
        np.testing.assert_allclose(hess.half_solve(M), np.linalg.solve(L, M), rtol=1e-10)
    dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    N = hess.normal(SparseMatrix.coerce(dense))
    assert type(N) is np.ndarray and N.shape == (m, m)
    np.testing.assert_allclose(N, dense @ np.linalg.solve(H, dense.T), rtol=1e-10)
    # Fortran order and exact symmetry let potrf factor N where it lies
    assert N.flags.f_contiguous
    np.testing.assert_array_equal(N, N.T)
    assert np.shares_memory(try_chol(N), N)


def test_as_vector_sites_name_the_expected_shape():
    A = SparseMatrix(2, 3, [0, 1], [0, 2], [1.0, 2.0])
    cp = build_cones([ConeSpec("free", 2), ConeSpec("lp", 1)])
    sites = [
        (lambda: NonnegativeBarrier(3).eval(np.ones(4)), "point", 4, 3),
        (lambda: A.matvec(np.ones(2)), "operand", 2, 3),
        (lambda: A.matvec(np.ones(3), transpose=True), "operand", 3, 2),
        (lambda: DiagonalHessian(np.ones(4)).normal(A), "scaling", 4, 3),
        (lambda: embed_point(cp, np.ones(4)), "point", 4, 3),
        (lambda: strip_point(cp, np.ones(3)), "point", 3, 4),
    ]
    for call, what, got, n in sites:
        with pytest.raises(DimensionMismatch) as info:
            call()
        assert str(info.value) == f"{what} has shape ({got},), expected ({n},)"


def test_as_vector_converts_and_checks():
    v = as_vector([1, 2], 2, "v")
    assert v.dtype == np.float64 and v.shape == (2,)
    with pytest.raises(DimensionMismatch, match=r"has shape \(1, 2\), expected \(2,\)"):
        as_vector([[1, 2]], 2, "v")
