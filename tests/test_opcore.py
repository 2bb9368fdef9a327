import numpy as np
import pytest
from conftest import kron, kronecker_sum_dense

from dfslab import (
    Background,
    BudgetError,
    DiracOperator,
    DomainError,
    KroneckerSum,
    Operator,
    ShapeError,
    SubspaceBasis,
    UsageError,
    build_string_model,
    commutant_basis,
    commutator,
    dfs_from_dirac,
    eig_hermitian,
    kernel_basis,
    operator_norm,
    tensor,
    tensor_sum,
    unitary_exp,
)
from dfslab.opcore import (
    KERNEL_TOL,
    KernelBasis,
    _block_eighs,
    _Entries,
    _exact_form,
    _kernel_cutoff,
    _kernel_residual_bound,
    _nullspace_and_norm,
    _split,
    _summed,
    lowest_eigenvalue,
    nullspace,
    sector_eigh,
)

TOL = 1e-12

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_operator_rejects_non_square():
    with pytest.raises(ShapeError):
        Operator(np.zeros((2, 3)))


def test_operator_rejects_non_finite():
    with pytest.raises(DomainError):
        Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("re, im", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan), (np.inf, 0.0), (0.0, -np.inf), (np.inf, np.nan)])
def test_operator_rejects_a_non_finite_part(re, im):
    mat = np.eye(2, dtype=complex)
    mat[0, 1] = complex(re, im)
    assert (np.isfinite(mat[0, 1].real), np.isfinite(mat[0, 1].imag)) == (np.isfinite(re), np.isfinite(im))
    with pytest.raises(DomainError, match="matrix entries must be finite"):
        Operator(mat)


def test_operator_matrix_is_write_protected():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_operator_and_basis_leave_the_callers_array_writeable():
    """The stored array is a read-only view; the caller's array is not
    frozen with it, and no copy is made."""
    m = np.eye(2, dtype=complex)
    op = Operator(m)
    assert m.flags.writeable and not op.mat.flags.writeable
    assert np.shares_memory(op.mat, m)
    v = np.eye(2, dtype=complex)
    basis = SubspaceBasis(2, v)
    assert v.flags.writeable and not basis.vectors.flags.writeable
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 2.0


def test_operator_adjoint_is_the_read_only_conjugate_transpose():
    rng = np.random.Generator(np.random.Philox(13))
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    adj = Operator(mat).dag()
    assert type(adj) is Operator
    assert np.array_equal(adj.mat, mat.conj().T)
    with pytest.raises(ValueError):
        adj.mat[0, 0] = 5.0


def test_operator_dimension_mismatch():
    with pytest.raises(ShapeError):
        commutator(Operator(np.eye(2)), Operator(np.eye(3)))


def test_tensor_of_identities():
    out = tensor(Operator.identity(2), Operator.identity(3))
    assert np.array_equal(out.mat, np.eye(6))


def test_tensor_first_factor_slowest():
    out = tensor(Operator(np.diag([0.0, 1.0])), Operator.identity(2))
    assert np.array_equal(np.diag(out.mat), np.array([0, 0, 1, 1], dtype=complex))


def test_tensor_entrywise():
    a = Operator(SX)
    b = Operator(np.diag([1.0, 2.0]))
    out = tensor(a, b).mat
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1.0
    expected[1, 3] = 2.0
    expected[2, 0] = 1.0
    expected[3, 1] = 2.0
    assert np.abs(out - expected).max() == 0.0


def test_tensor_mixed_product_rule():
    rng = np.random.Generator(np.random.Philox(11))
    a, b, c, d = (
        Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        for _ in range(4)
    )
    lhs = tensor(a, b).mat @ tensor(c, d).mat
    rhs = tensor(a.mat @ c.mat, b.mat @ d.mat).mat
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_budget():
    big = Operator.identity(64)
    tensor(big, Operator.identity(64))  # exactly at the cap
    with pytest.raises(BudgetError):
        tensor(big, Operator.identity(65))


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_tensor_three_factors_matches_nested_kron():
    rng = np.random.Generator(np.random.Philox(12))
    a, b, c = (random_matrix(rng, d) for d in (2, 3, 4))
    expected = np.kron(np.kron(a, b), c)
    assert np.array_equal(tensor(a, b, c).mat, expected)
    assert np.array_equal(tensor(Operator(a), b, Operator(c)).mat, expected)
    with pytest.raises(UsageError):
        tensor()
    with pytest.raises(ShapeError):
        tensor(np.zeros((2, 3)), np.zeros((3, 2)))


def test_commutator_paulis():
    out = commutator(Operator(SX), Operator(SY))
    assert np.abs(out.mat - 2j * SZ).max() < TOL


def test_operator_norm_diagonal():
    assert operator_norm(Operator(np.diag([3.0, -4.0]))) == pytest.approx(4.0, abs=TOL)


def test_operator_norm_nilpotent():
    assert operator_norm(Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))) == pytest.approx(1.0, abs=TOL)


def test_operator_norm_power_iteration_oracle():
    """Independent estimate: power iteration on A^dag A."""
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        gram = a.conj().T @ a
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        for _ in range(500):
            v = gram @ v
            v /= np.linalg.norm(v)
        oracle = np.sqrt(np.real(v.conj() @ gram @ v))
        assert operator_norm(Operator(a)) == pytest.approx(oracle, rel=1e-9)


def test_eig_hermitian_diagonal():
    vals, basis = eig_hermitian(Operator(np.diag([2.0, -1.0, 0.5])))
    assert np.allclose(np.sort(vals), [-1.0, 0.5, 2.0])
    assert basis.size == 3


def test_eig_hermitian_reconstruction_and_phase():
    rng = np.random.Generator(np.random.Philox(13))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = Operator(a + a.conj().T)
    vals, basis = eig_hermitian(h)
    recon = sum(
        val * np.outer(vec, vec.conj()) for val, vec in zip(vals, basis.vectors)
    )
    assert np.abs(recon - h.mat).max() < 1e-10
    for vec in basis.vectors:
        lead = vec[int(np.argmax(np.abs(vec)))]
        assert abs(lead.imag) < 1e-10
        assert lead.real > 0


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(DomainError):
        eig_hermitian(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def permuted_hermitian_blocks(rng, sizes, zero_pairs=0, zero_rows=0):
    """Block-diagonal Hermitian matrix of random blocks of the given sizes,
    plus [[0, b], [conj b, 0]] pairs and zero rows and columns, under one
    random symmetric permutation; also returns each index's block number."""
    blocks = []
    for n in sizes:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks.append(a + a.conj().T)
    for _ in range(zero_pairs):
        b = complex(rng.normal(), rng.normal())
        blocks.append(np.array([[0.0, b], [np.conj(b), 0.0]]))
    blocks += [np.zeros((1, 1))] * zero_rows
    d = sum(blk.shape[0] for blk in blocks)
    out = np.zeros((d, d), dtype=complex)
    labels = np.repeat(np.arange(len(blocks)), [blk.shape[0] for blk in blocks])
    i = 0
    for blk in blocks:
        out[i : i + blk.shape[0], i : i + blk.shape[0]] = blk
        i += blk.shape[0]
    perm = rng.permutation(d)
    return out[perm][:, perm], labels[perm]


def assert_matches_dense_eigh(mat, vals, vecs):
    oracle = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
    assert np.abs(vals - oracle).max(initial=0.0) <= 1e-13 * scale
    assert np.all(np.diff(vals, axis=-1) >= 0)
    recon = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    assert np.abs(recon - mat).max() < 1e-12 * scale
    eye = np.eye(mat.shape[-1])
    assert np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - eye).max() < 1e-12


@pytest.mark.parametrize(
    "sizes, zero_pairs, zero_rows",
    [
        ([3, 3, 4], 0, 0),
        ([5, 1, 2, 2], 3, 2),
        ([1] * 6, 2, 3),
        ([], 4, 0),
        ([], 0, 5),
    ],
)
def test_sector_eigh_of_permuted_blocks(sizes, zero_pairs, zero_rows):
    rng = np.random.Generator(np.random.Philox(sum(sizes) + 10 * zero_pairs + zero_rows))
    mat, labels = permuted_hermitian_blocks(rng, sizes, zero_pairs, zero_rows)
    vals, vecs = sector_eigh(mat)
    assert_matches_dense_eigh(mat, vals, vecs)
    assert np.abs(sector_eigh(mat, vectors=False) - vals).max() <= 1e-13 * max(1.0, np.abs(vals).max())
    for col in vecs.T:
        assert np.unique(labels[col != 0]).size == 1


def test_sector_eigh_of_a_stack_uses_the_union_pattern():
    rng = np.random.Generator(np.random.Philox(31))
    first, _ = permuted_hermitian_blocks(rng, [4, 2], zero_pairs=1, zero_rows=1)
    second = np.zeros_like(first)
    second[0, 0] = 2.0
    second[1, 2] = 1.0 - 0.5j
    second[2, 1] = 1.0 + 0.5j
    stack = np.stack([first, second, first + second])
    vals = sector_eigh(stack, vectors=False)
    assert vals.shape == (3, 9)
    oracle = np.linalg.eigvalsh(stack)
    assert np.abs(vals - oracle).max() <= 1e-13 * np.abs(oracle).max()
    with pytest.raises(ShapeError):
        sector_eigh(stack)


@pytest.mark.parametrize("mat", [SX, SY, np.ones((4, 4)), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])])
def test_sector_eigh_of_one_block_is_the_dense_eigh(mat):
    """[[0, 1], [1, 0]] is one block: a bipartite row/column split would
    cut it in two."""
    vals, vecs = sector_eigh(mat)
    oracle_vals, oracle_vecs = np.linalg.eigh(mat)
    assert np.array_equal(vals, oracle_vals) and np.array_equal(vecs, oracle_vecs)
    assert vecs.dtype == oracle_vecs.dtype
    assert np.array_equal(sector_eigh(mat, vectors=False), np.linalg.eigvalsh(mat))


def test_the_whole_matrix_block_is_gathered_in_any_entry_order():
    """A matrix with no zero entry is one block.  ``_Entries.of`` stores its
    values in row-major order, uncopied, and the block is a view of them;
    the Kronecker product of two full factors stores its entries in another
    order, and its block is still the dense matrix."""
    a = np.arange(1.0, 5.0).reshape(2, 2)
    b = np.array([[1.0, 2.0 - 1j], [3.0j, 4.0]])
    product = tensor(a, b)._entries
    assert not np.array_equal(product.rows * 4 + product.cols, np.arange(16))
    for e in (_Entries.of(np.kron(a, b)), product):
        ((rows, cols, _),) = _split(e)
        assert np.array_equal(e.gather(rows, cols), np.kron(a, b)[None])
    stack = np.stack([np.kron(a, b), 2.0 * np.kron(a, b)])
    e = _Entries.of(stack)
    ((rows, cols, _),) = _split(e)
    assert np.shares_memory(e.gather(rows, cols), stack)
    assert np.array_equal(e.gather(rows, cols)[:, 0], stack)


def test_sector_eigh_orders_equal_eigenvalues_by_block():
    """Eigenvalues are merged by a stable sort, blocks in the order of their
    smallest index."""
    mat = np.zeros((4, 4))
    mat[1, 1] = mat[3, 3] = 1.0
    mat[0, 2] = mat[2, 0] = 1.0
    vals, vecs = sector_eigh(mat)
    assert np.allclose(vals, [-1.0, 1.0, 1.0, 1.0], rtol=0.0, atol=1e-15)
    assert np.array_equal(vecs[[1, 3], 1], [0.0, 0.0])
    assert np.array_equal(np.abs(vecs[:, 2:]), [[0, 0], [1, 0], [0, 0], [0, 1]])


@pytest.mark.parametrize("flux", [0.0, 1.3])
def test_sector_eigh_of_an_operator_reads_its_entries(flux):
    """A Landau Hamiltonian keeps its entries: its blocks are split and
    gathered from them, with the bits of the dense path, and its dense
    matrix is never formed."""
    from dfslab.nctorus import FluxMatrix, landau_hamiltonian

    h = landau_hamiltonian(FluxMatrix(np.array([[0.0, flux], [-flux, 0.0]])), 7)
    vals, vecs = sector_eigh(h)
    only = sector_eigh(h, vectors=False)
    assert "mat" not in vars(h)
    dense_vals, dense_vecs = sector_eigh(h.mat)
    assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)
    assert np.array_equal(only, sector_eigh(h.mat, vectors=False))
    assert_matches_dense_eigh(h.mat, vals, vecs)


def test_eigenvalues_of_a_complex_matrix_with_no_imaginary_part_are_the_real_ones():
    """Without vectors, a complex matrix or stack whose imaginary parts are
    all 0 is solved as its real part, bit for bit.  (With vectors it stays
    complex, as the one-block test checks on Pauli X.)"""
    rng = np.random.Generator(np.random.Philox(41))
    real, _ = permuted_hermitian_blocks(rng, [5, 3, 3], zero_pairs=1, zero_rows=1)
    real = real.real + real.real.T
    stack = np.stack([real, 2.0 * real]).astype(complex)
    assert np.array_equal(sector_eigh(stack[0], vectors=False), sector_eigh(real, vectors=False))
    assert np.array_equal(sector_eigh(stack, vectors=False), sector_eigh(stack.real, vectors=False))


@pytest.mark.parametrize("complex_block", [False, True])
def test_lowest_eigenvalue_is_the_rayleigh_quotient_of_the_lowest_block(complex_block):
    rng = np.random.Generator(np.random.Philox(43))
    mat, _ = permuted_hermitian_blocks(rng, [6, 4, 4], zero_pairs=2, zero_rows=1)
    if not complex_block:
        mat = mat.real + mat.real.T
    assert abs(lowest_eigenvalue(Operator(mat)) - np.linalg.eigvalsh(mat)[0]) <= 1e-13
    assert lowest_eigenvalue(Operator(np.diag([3.0, -2.5, 7.0]))) == -2.5
    # [[a, b], [b, a]]: a start vector of ones would be the upper eigenvector
    assert lowest_eigenvalue(Operator(np.array([[1.0, 0.5], [0.5, 1.0]]))) == 0.5


@pytest.mark.parametrize("dtype", [float, complex])
def test_exact_form_is_the_correctly_rounded_sum(dtype):
    """The real part of sum conj(l) v r, against exact rational arithmetic."""
    from fractions import Fraction

    rng = np.random.Generator(np.random.Philox(47))
    left, vals, right = (rng.normal(size=(3, 200)) * 10.0 ** rng.integers(-8, 8, size=(3, 200)))
    if dtype is complex:
        left, vals, right = (z + 1j * rng.normal(size=200) for z in (left, vals, right))
    vals[::2] *= -1.0
    exact = sum(
        Fraction(x.real) * Fraction(a.real) * Fraction(y.real)
        + Fraction(x.imag) * Fraction(a.real) * Fraction(y.imag)
        - Fraction(x.real) * Fraction(a.imag) * Fraction(y.imag)
        + Fraction(x.imag) * Fraction(a.imag) * Fraction(y.real)
        for x, a, y in zip(np.asarray(left, complex), np.asarray(vals, complex), np.asarray(right, complex))
    )
    assert _exact_form(left, vals, right) == float(exact)


def test_eig_hermitian_of_permuted_blocks_fixes_each_phase():
    rng = np.random.Generator(np.random.Philox(32))
    mat, _ = permuted_hermitian_blocks(rng, [3, 2, 2], zero_pairs=2, zero_rows=1)
    vals, basis = eig_hermitian(Operator(mat))
    assert_matches_dense_eigh(mat, vals, basis.vectors.T)
    lead = basis.vectors[np.arange(basis.size), np.argmax(np.abs(basis.vectors), axis=1)]
    assert np.abs(lead.imag).max() < 1e-15 and np.all(lead.real > 0)


def test_kernel_basis_diagonal():
    basis = kernel_basis(Operator(np.diag([0.0, 0.0, 3.0])))
    assert basis.size == 2
    proj = basis.projector().mat
    assert np.abs(proj - np.diag([1.0, 1.0, 0.0])).max() < TOL


def test_kernel_basis_invertible_is_empty():
    basis = kernel_basis(Operator(np.diag([1.0, 2.0])))
    assert basis.size == 0 and basis.sigma_max == 2.0


def test_kernel_residual_bound_at_the_cutoff_edge():
    """A direction kept at the cutoff has a residual of its singular value
    plus roundoff.  The certificate grants the cutoff plus 2 dim eps
    sigma_max (the `dfs` scenario of metric 4, n_max 11 and tol 0.5 keeps a
    direction whose residual exceeds its cutoff by 8e-15) and refuses
    anything past that."""
    tol, smax, dim = 0.5, 22.003606817871, 2
    cutoff = _kernel_cutoff(tol, smax)
    bound = _kernel_residual_bound(tol, smax, dim)
    assert bound == cutoff + 2 * dim * np.finfo(float).eps * smax
    row = np.array([[0.0, 1.0]], dtype=complex)
    for s in (cutoff, cutoff + 8e-15, bound):
        basis = KernelBasis.certify(Operator(np.diag([smax, s])), row, smax, tol, [np.s_[:, :]])
        assert basis.residual == s
    with pytest.raises(DomainError, match="kernel residual exceeds the certified bound"):
        KernelBasis.certify(Operator(np.diag([smax, np.nextafter(bound, 1.0e3)])), row, smax, tol, [np.s_[:, :]])
    # the floors: a zero operator, and a cutoff below KERNEL_FLOOR
    assert _kernel_residual_bound(tol, 0.0, dim) == 1e-10
    assert _kernel_residual_bound(1e-20, 1.0, dim) == 1e-12


def test_kernel_certificate_checks_orthonormality_per_block():
    """``KernelBasis.certify`` forms one Gram matrix per kernel block and
    refuses rows that are not orthonormal within one block, and blocks that
    do not partition the rows' support, whether a block's columns are a
    slice or an index array."""
    op = Operator(np.diag([0.0, 0.0, 0.0, 1.0]))
    rows = np.zeros((3, 4), dtype=complex)
    rows[0, 0] = rows[1, 1] = rows[2, 2] = 1.0
    whole, halves = [np.s_[:, :]], [np.s_[0:2, 0:2], np.s_[2:3, 2:4]]
    indexed = [(np.s_[0:2], np.array([1, 0])), (np.s_[2:3], np.array([3, 2]))]
    for blocks in (whole, halves, indexed):
        assert KernelBasis.certify(op, rows, 1.0, 1e-10, blocks).size == 3
    bad = {
        "a row outside every block": [np.s_[0:2, 0:2]],
        "a row in two blocks": [np.s_[0:2, 0:2], np.s_[1:3, 2:4]],
        "a column in two blocks": [np.s_[0:2, 0:3], np.s_[2:3, 2:4]],
        "an entry outside its block": [np.s_[0:2, 0:1], np.s_[2:3, 2:4]],
    }
    for blocks in bad.values():
        # each layout with slices, then with the same columns as index arrays
        for layout in (blocks, [(r, np.arange(4)[c]) for r, c in blocks]):
            with pytest.raises(DomainError, match="^kernel blocks do not partition the basis rows' support$"):
                KernelBasis.certify(op, rows, 1.0, 1e-10, layout)
    rows[1, :2] = [0.6, 0.8]  # unit length, not orthogonal to row 0
    for blocks in (whole, halves, indexed):
        with pytest.raises(DomainError, match="^basis rows are not orthonormal$"):
            KernelBasis.certify(op, rows, 1.0, 1e-10, blocks)


def test_kernel_basis_forms_one_gram_matrix_per_svd_block(monkeypatch):
    """``kernel_basis`` certifies per SVD block: one Gram matrix of each
    block's kernel rows on that block's columns, none of all the rows (a
    zero column is a block of its own).  Rows and sigma_max are those of
    ``_nullspace_and_norm``, and the residual, read per block one row at a
    time, has the bits of the norms of ``Operator._apply``."""
    from dfslab import opcore

    rng = np.random.Generator(np.random.Philox(41))
    a, kernel_dim = permuted_blocks(rng, [(5, 5, 3), (5, 5, 4), (4, 6, 3), (3, 3, 3), (6, 4, 4)], 1, 1)
    grams = []
    check = opcore._check_orthonormal

    def recording(rows):
        grams.append(rows.shape)
        check(rows)

    monkeypatch.setattr(opcore, "_check_orthonormal", recording)
    op = Operator(a)
    basis = kernel_basis(op)
    assert basis.size == kernel_dim == 7
    # the kernel rows of each SVD block on its columns; the full-rank ones have none
    assert sorted(grams) == [(1, 1), (1, 5), (2, 5), (3, 6)]
    rows, smax = _nullspace_and_norm(_Entries.of(a), KERNEL_TOL)[:2]
    assert np.array_equal(basis.vectors, rows) and basis.sigma_max == smax
    assert basis.residual == float(np.linalg.norm(op._apply(basis.vectors), axis=0).max())


def test_kernel_basis_of_a_dim_0_operator_is_empty_and_certified():
    basis = kernel_basis(Operator(np.zeros((0, 0))))
    assert basis.size == 0 and basis.vectors.shape == (0, 0)
    assert basis.sigma_max == 0.0 and basis.residual == 0.0


def test_split_kernel_certificate_allocates_less_than_its_basis():
    """The certificate of a split kernel (n = 1, n_max 9: dim 2000, 260
    rows) holds no (dim, k) product: each row's residual is taken on its
    own, so its allocations stay well under the basis it checks (the
    largest is one spinor half's Gram check).  Taking all the residuals at
    once held the product and a norm temporary, each of the basis's size."""
    import tracemalloc

    model = build_string_model(Background([[4.0]], [[0.0]]), 9, 1)
    d = model.d_bar
    kernel = dfs_from_dirac(d, tol=0.05)
    half = d.dim // 2
    first = int(np.count_nonzero(np.any(kernel.vectors[:, :half] != 0, axis=1)))
    blocks = [np.s_[:first, :half], np.s_[first:, half:]]
    rows = np.array(kernel.vectors)
    assert rows.shape == (260, 2000) and 0 < first < rows.shape[0]
    tracemalloc.start()
    try:
        basis = KernelBasis.certify(d, rows, kernel.sigma_max, 0.05, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.residual == kernel.residual
    assert peak < rows.nbytes / 2


def test_kernel_basis_rank_deficient_product():
    rng = np.random.Generator(np.random.Philox(14))
    b = rng.normal(size=(5, 2))
    c = rng.normal(size=(2, 5))
    op = Operator(b @ c)
    basis = kernel_basis(op)
    assert basis.size == 3
    sigma_max = operator_norm(op)
    assert abs(basis.sigma_max - sigma_max) <= 1e-14 * sigma_max
    for vec in basis.vectors:
        assert np.linalg.norm(op.mat @ vec) <= 1e-10 * sigma_max * np.sqrt(5)


def dense_nullspace(a, tol=1e-10):
    """The kernel rule on one SVD of the whole matrix."""
    _, sigma, vh = np.linalg.svd(a)
    smax = float(sigma[0]) if sigma.size else 0.0
    cutoff = tol * smax if smax > 0 else 1e-12
    keep = np.concatenate([sigma <= cutoff, np.ones(a.shape[1] - sigma.size, dtype=bool)])
    return vh[keep].conj()


def permuted_blocks(rng, blocks, zero_rows=0, zero_cols=0):
    """Block-diagonal matrix of (rows, cols, rank) blocks of exact rank, plus
    zero rows and columns, under random row and column permutations."""
    m = sum(b[0] for b in blocks) + zero_rows
    n = sum(b[1] for b in blocks) + zero_cols
    out = np.zeros((m, n), dtype=complex)
    i = j = 0
    for rows, cols, rank in blocks:
        left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
        out[i : i + rows, j : j + cols] = left @ rng.normal(size=(rank, cols))
        i, j = i + rows, j + cols
    kernel_dim = n - sum(b[2] for b in blocks)
    return out[rng.permutation(m)][:, rng.permutation(n)], kernel_dim


@pytest.mark.parametrize(
    "blocks, zero_rows, zero_cols",
    [
        ([(3, 3, 2), (3, 3, 2), (3, 3, 3)], 0, 0),
        ([(2, 5, 2), (5, 2, 1), (4, 4, 3), (1, 3, 1)], 2, 3),
        ([(1, 1, 1)] * 7 + [(2, 1, 1)] * 4 + [(1, 2, 1)] * 3, 3, 0),
        ([(6, 4, 4)], 0, 2),
        ([], 4, 5),
    ],
)
def test_nullspace_of_permuted_blocks(blocks, zero_rows, zero_cols):
    rng = np.random.Generator(np.random.Philox(len(blocks) + 10 * zero_rows + zero_cols))
    a, kernel_dim = permuted_blocks(rng, blocks, zero_rows, zero_cols)
    rows = nullspace(a)
    assert rows.shape == (kernel_dim, a.shape[1])
    assert np.abs(rows @ rows.conj().T - np.eye(kernel_dim)).max() < TOL
    assert np.abs(a @ rows.T).max(initial=0.0) < 1e-12 * max(1.0, np.abs(a).max(initial=0.0))
    oracle = dense_nullspace(a)
    assert np.abs(rows.T @ rows.conj() - oracle.T @ oracle.conj()).max() < 1e-10


def test_nullspace_sends_a_block_below_the_global_cutoff_to_the_kernel():
    rng = np.random.Generator(np.random.Philox(16))
    big = rng.normal(size=(3, 3))
    small = 1e-12 * rng.normal(size=(2, 2))
    a = np.zeros((5, 5))
    a[:3, :3] = big
    a[3:, 3:] = small
    perm = rng.permutation(5)
    rows = nullspace(a[perm][:, perm])
    # a cutoff relative to each block's own largest value would keep none
    assert rows.shape[0] == 2
    assert np.abs(rows.T @ rows.conj() - np.diag((perm >= 3).astype(float))).max() < TOL


@pytest.mark.parametrize("sparse", [False, True])
def test_nullspace_of_one_block_is_the_direct_svd(sparse):
    rng = np.random.Generator(np.random.Philox(17))
    a = (rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))) @ rng.normal(size=(3, 6))
    if sparse:
        # a path through every row and column, with zeros elsewhere
        a = np.triu(np.tril(a, 1), -1)
    assert np.array_equal(nullspace(a), dense_nullspace(a))


def test_only_wide_blocks_take_full_svds(monkeypatch):
    """A tall or square block's kernel is read off its whole V^dag, so its
    SVD forms no full U; a wide block needs the V^dag rows past its singular
    values.  A square block's singular values come first, and only a block
    whose values reach the cutoff gets vectors.  At dim 64 the commutant of
    two generators solves one 4096 x 64 system, whose full U alone would be
    4096 x 4096."""
    calls, values = [], []
    original = np.linalg.svd

    def recording(a, full_matrices=True, compute_uv=True, **kwargs):
        (calls if compute_uv else values).append((np.shape(a)[-2:], full_matrices))
        return original(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    rng = np.random.Generator(np.random.Philox(20))
    a, kernel_dim = permuted_blocks(rng, [(2, 5, 2), (5, 2, 1), (4, 4, 3), (3, 3, 3), (6, 3, 2)])
    rows = nullspace(a)
    assert rows.shape[0] == kernel_dim
    assert np.abs(a @ rows.T).max() < 1e-12 * np.abs(a).max()
    # the rank-3 square block has a kernel and gets vectors, the full-rank
    # one clears the cutoff on its values alone
    assert sorted(shape for shape, _ in values) == [(3, 3), (4, 4)]
    assert ((4, 4), False) in calls and all(shape != (3, 3) for shape, _ in calls)
    basis = commutant_basis([Operator(random_hermitian(rng, 64)) for _ in range(2)], 64)
    assert basis.size == 1
    assert any(m > 4000 and n == 64 and not full for (m, n), full in calls)
    assert {m < n for (m, n), _ in calls} == {True, False}
    assert all(full == (m < n) for (m, n), full in calls)


@pytest.mark.parametrize("edge", [-0.5, 0.25, 0.5, 0.75])
def test_a_square_block_near_the_cutoff_gets_vectors(monkeypatch, edge):
    """A square block whose smallest singular value, computed without
    vectors, lies between the cutoff and the cutoff plus 2 dim eps sigma_max
    (``edge`` > 0), or below the cutoff, is decomposed again with vectors,
    and ``nullspace`` keeps exactly the rows that one SVD of it with vectors
    keeps."""
    tol, dim = 1e-10, 8
    rng = np.random.Generator(np.random.Philox(26))
    left, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    right, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    smax = 2.0
    cutoff = _kernel_cutoff(tol, smax)
    sigma = np.linspace(smax, 0.5, dim)
    sigma[-1] = cutoff + edge * (_kernel_residual_bound(tol, smax, dim) - cutoff)
    a = (left * sigma) @ right
    values = np.linalg.svd(a, compute_uv=False)
    assert values[-1] <= _kernel_residual_bound(tol, values[0], dim)
    assert (values[-1] > _kernel_cutoff(tol, values[0])) == (edge > 0)
    calls = []
    original = np.linalg.svd

    def recording(m, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(m)[-2:], compute_uv))
        return original(m, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    rows = nullspace(a, tol)
    assert calls == [((dim, dim), False), ((dim, dim), True)]
    _, sigma, vh = original(a, full_matrices=False)
    assert np.array_equal(rows, vh[sigma <= _kernel_cutoff(tol, values[0])].conj())
    assert rows.shape[0] == (edge < 0)


def test_operator_norm_of_permuted_blocks():
    rng = np.random.Generator(np.random.Philox(18))
    a, _ = permuted_blocks(rng, [(4, 3, 3), (2, 4, 2), (3, 3, 2), (1, 1, 1)], 1, 0)
    assert a.shape[0] == a.shape[1]
    assert abs(operator_norm(Operator(a)) - np.linalg.norm(a, 2)) < 1e-12
    assert operator_norm(Operator.zeros(3)) == 0.0


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize(
    "blocks, zero_rows, zero_cols",
    [([(5, 5, 5)], 0, 0), ([(3, 3, 2), (2, 2, 1), (1, 1, 1)], 0, 0), ([(2, 3, 2), (3, 1, 1)], 1, 2)],
)
def test_a_matrix_and_its_tensor_sum_give_the_same_bits(blocks, zero_rows, zero_cols, real):
    """One format: an operator made from a matrix and the one-term
    ``tensor_sum`` of it are read through the same entries, so every
    blocked solver and every operator method gives the same bits."""
    rng = np.random.Generator(np.random.Philox(24 + len(blocks)))
    a, _ = permuted_blocks(rng, blocks, zero_rows, zero_cols)
    a = a.real if real else a
    h = a + a.conj().T
    label = rng.integers(0, 2, size=a.shape[0])
    diagonal = np.diag(np.diagonal(h))
    for m in (a, h, diagonal):
        op, kept = Operator(m), tensor_sum([(1.0, (m,))])
        want, got = kernel_basis(op), kernel_basis(kept)
        assert np.array_equal(want.vectors, got.vectors)
        assert (want.sigma_max, want.residual) == (got.sigma_max, got.residual)
        assert operator_norm(op) == operator_norm(kept)
        assert op.is_hermitian() == kept.is_hermitian() == (m is not a)
        diag = op._diagonal()
        assert (diag is None) == (kept._diagonal() is None) == (m is not diagonal)
        assert diag is None or np.array_equal(diag, kept._diagonal())
        assert np.array_equal(op._masked(label).mat, kept._masked(label).mat)
        assert np.array_equal(op.dag().mat, kept.dag().mat)
    for want, got in zip(sector_eigh(Operator(h)), sector_eigh(tensor_sum([(1.0, (h,))]))):
        assert np.array_equal(want, got)


def test_kernel_basis_of_permuted_blocks_is_certified():
    rng = np.random.Generator(np.random.Philox(19))
    a, kernel_dim = permuted_blocks(rng, [(5, 5, 3), (5, 5, 4), (2, 2, 2)], 1, 1)
    basis = kernel_basis(Operator(a))
    assert basis.size == kernel_dim
    assert np.linalg.norm(a @ basis.vectors.T, axis=0).max() < 1e-10 * np.linalg.norm(a, 2)
    assert abs(basis.sigma_max - np.linalg.norm(a, 2)) <= 1e-14 * np.linalg.norm(a, 2)
    assert basis.residual == float(np.linalg.norm(Operator(a)._apply(basis.vectors), axis=0).max())
    measured = float(np.linalg.norm(a @ basis.vectors.T, axis=0).max())
    assert abs(basis.residual - measured) <= 1e-15 * basis.sigma_max
    assert kernel_basis(Operator(np.diag([1.0, 2.0]))).residual == 0.0


def test_commutant_of_identity_is_everything():
    basis = commutant_basis([Operator.identity(3)], 3)
    assert basis.size == 9


def test_commutant_of_sigma_z_is_diagonal():
    basis = commutant_basis([Operator(SZ)], 2)
    assert basis.size == 2
    for mat in basis.matrices():
        off = mat.mat - np.diag(np.diag(mat.mat))
        assert np.abs(off).max() < TOL


def test_commutant_schur_scalars():
    # sigma_x and sigma_z generate an irreducible action, so only scalars commute.
    basis = commutant_basis([Operator(SX), Operator(SZ)], 2)
    assert basis.size == 1
    mat = basis.matrices()[0].mat
    assert np.abs(mat - mat[0, 0] * np.eye(2)).max() < TOL


def test_commutant_contains_identity_and_is_adjoint_closed():
    basis = commutant_basis([Operator(SZ)], 2)
    eye = np.eye(2, dtype=complex)
    assert basis.residual(eye / np.linalg.norm(eye)) < 1e-10
    for mat in basis.matrices():
        adj = mat.mat.conj().T
        assert basis.residual(adj / np.linalg.norm(adj)) < 1e-10


def dense_commutant(mats, tol=1e-10):
    """Reference: the joint kernel of the vectorized maps X -> O X - X O,
    one dense (k d^2) x d^2 system."""
    d = mats[0].shape[0]
    eye = np.eye(d)
    # row-major vec: vec(OX - XO) = (O kron I - I kron O^T) vec(X)
    return nullspace(np.vstack([np.kron(m, eye) - np.kron(eye, m.T) for m in mats]), tol)


def random_hermitian(rng, d):
    a = random_matrix(rng, d)
    return (a + a.conj().T) / 2.0


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated(u, spectrum):
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


def assert_matches_dense_commutant(mats, same_projector=True):
    basis = commutant_basis([Operator(m) for m in mats], mats[0].shape[0])
    ref = dense_commutant(mats)
    assert basis.size == ref.shape[0]
    rows = basis.vectors
    assert np.abs(rows @ rows.conj().T - np.eye(basis.size)).max() <= 1e-10
    if same_projector:
        assert np.abs(rows.T @ rows.conj() - ref.T @ ref.conj()).max() <= 1e-10
    xs = rows.reshape(basis.size, *mats[0].shape)
    for m in mats:
        comm = np.linalg.norm((m @ xs - xs @ m).reshape(basis.size, -1), axis=1)
        assert comm.max() <= 1e-10 * np.linalg.norm(m, 2)
    return basis


@pytest.mark.parametrize("d", [1, 2, 5, 9, 16, 24])
def test_commutant_of_a_random_generator_matches_the_dense_system(d):
    rng = np.random.Generator(np.random.Philox(40 + d))
    basis = assert_matches_dense_commutant([random_hermitian(rng, d)])
    assert basis.size == d


@pytest.mark.parametrize(
    "spectrum, size",
    [
        ([1.0] * 6, 36),  # the identity
        ([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 25),  # a rank-3 projector
        ([1.0, 1.0, 2.0, 2.0, 2.0, -3.0, 1.0, 2.0], 9 + 16 + 1),  # repeated values
        ([0.0] * 5, 25),  # the zero operator
    ],
)
def test_commutant_of_a_degenerate_generator_matches_the_dense_system(spectrum, size):
    rng = np.random.Generator(np.random.Philox(60 + len(spectrum)))
    d = len(spectrum)
    mats = [np.diag(np.asarray(spectrum, dtype=complex))]
    if len(set(spectrum)) > 1:
        # a rotated multiple of the identity is roundoff around it, with a
        # spread of roundoff size; both paths cut relative to that spread
        mats.append(rotated(random_unitary(rng, d), spectrum))
    for mat in mats:
        assert assert_matches_dense_commutant([mat]).size == size


def test_commutant_of_generators_sharing_eigenspaces_matches_the_dense_system():
    rng = np.random.Generator(np.random.Philox(71))
    u = random_unitary(rng, 8)
    a = rotated(u, [1, 1, 1, 2, 2, 3, 3, 3])
    b = rotated(u, [5, 5, 6, 6, 6, 6, 7, 7])
    # joint eigenspaces {0, 1}, {2}, {3, 4}, {5}, {6, 7}
    assert assert_matches_dense_commutant([a, b]).size == 4 + 1 + 4 + 1 + 4
    assert assert_matches_dense_commutant([b, a, a + b]).size == 14


def test_commutant_of_generators_acting_on_one_factor_matches_the_dense_system():
    eye = np.eye(3)
    # sigma_x and sigma_z on the first factor leave all of M_3 on the second
    mats = [np.kron(SX, eye), np.kron(SZ, eye)]
    assert assert_matches_dense_commutant(mats).size == 9
    assert assert_matches_dense_commutant([SX, SZ]).size == 1
    rng = np.random.Generator(np.random.Philox(72))
    u = random_unitary(rng, 6)
    assert assert_matches_dense_commutant([u @ m @ u.conj().T for m in mats]).size == 9


def test_commutant_of_two_random_generators_is_the_scalars():
    rng = np.random.Generator(np.random.Philox(73))
    basis = assert_matches_dense_commutant([random_hermitian(rng, 12), random_hermitian(rng, 12)])
    assert basis.size == 1


@pytest.mark.parametrize("gap, size", [(0.5e-10, 8 + 2), (2e-10, 8)])
def test_commutant_split_near_the_cutoff_matches_the_dense_system(gap, size):
    # spread 1, so the cutoff is tol * (lambda_max - lambda_min) = 1e-10
    rng = np.random.Generator(np.random.Philox(74))
    spectrum = [0.0, 0.2, 0.2 + gap, 0.45, 0.6, 0.7, 0.85, 1.0]
    assert assert_matches_dense_commutant([np.diag(np.asarray(spectrum, dtype=complex))]).size == size
    # rotated, the split pair's eigenvectors are defined only to about
    # roundoff / gap, so only the dimension and the certificate are compared
    mat = rotated(random_unitary(rng, 8), spectrum)
    assert assert_matches_dense_commutant([mat], same_projector=False).size == size


def test_commutant_of_a_chain_of_close_eigenvalues_fails_the_certificate():
    # gaps of 0.9e-10 each join one eigenspace 1.8e-10 wide, which no
    # element mixing its ends commutes with to 1e-10
    mat = np.diag([0.0, 0.9e-10, 1.8e-10, 0.5, 1.0]).astype(complex)
    with pytest.raises(DomainError):
        commutant_basis([Operator(mat)], 5)


def test_commutant_rejects_a_non_hermitian_generator():
    with pytest.raises(DomainError):
        commutant_basis([Operator(SZ), Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))], 2)


def test_commutant_of_a_generic_generator_at_the_budget(monkeypatch):
    def no_kron(*args, **kwargs):
        raise AssertionError("commutant_basis formed a Kronecker product")

    monkeypatch.setattr(np, "kron", no_kron)
    rng = np.random.Generator(np.random.Philox(75))
    h = random_hermitian(rng, 64)
    basis = commutant_basis([Operator(h)], 64)
    assert basis.size == 64
    xs = basis.vectors.reshape(64, 64, 64)
    comm = np.linalg.norm((h @ xs - xs @ h).reshape(64, -1), axis=1)
    assert comm.max() <= 1e-10 * np.linalg.norm(h, 2)
    with pytest.raises(BudgetError):
        commutant_basis([Operator(np.eye(65))], 65)


def test_unitary_exp_zero():
    assert np.array_equal(unitary_exp(Operator.zeros(3)).mat, np.eye(3))


def test_unitary_exp_pauli_z():
    out = unitary_exp(Operator(np.pi * SZ))
    assert np.abs(out.mat + np.eye(2)).max() < TOL


def test_unitary_exp_is_unitary():
    rng = np.random.Generator(np.random.Philox(15))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = unitary_exp(Operator(a + a.conj().T)).mat
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < TOL


def test_subspace_basis_rejects_non_orthonormal():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError):
        SubspaceBasis(2, rows, "vector-space")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subspace_basis_rejects_non_finite_rows(bad):
    """A NaN Gram matrix passes the orthonormality comparison."""
    with pytest.raises(DomainError, match="must be finite"):
        SubspaceBasis(2, [[bad, 0.0]])


def test_subspace_basis_rejects_zero_row():
    rows = np.array([[0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError):
        SubspaceBasis(2, rows, "vector-space")


def test_subspace_basis_accepts_disjoint_supports_and_rejects_a_small_overlap():
    """Rows on disjoint columns are orthogonal; two rows on shared columns
    whose inner product is 2e-10 are rejected.  64 rotated pairs of rows on
    disjoint pairs of columns, 128 x 256."""
    c, s = np.cos(0.3), np.sin(0.3)
    rows = np.zeros((128, 256), dtype=complex)
    for p in range(64):
        rows[2 * p, [4 * p, 4 * p + 2]] = c, s
        rows[2 * p + 1, [4 * p, 4 * p + 2]] = -1j * s, 1j * c
    assert SubspaceBasis(256, rows.copy()).size == 128
    rows[1, 0] -= 2e-10j / c
    with pytest.raises(DomainError):
        SubspaceBasis(256, rows)


def test_subspace_basis_projector_idempotent():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    basis = SubspaceBasis(3, rows, "vector-space")
    p = basis.projector().mat
    assert np.abs(p @ p - p).max() < TOL


def test_subspace_basis_projector_of_complex_row_fixes_the_row():
    row = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    p = SubspaceBasis(2, row[None, :]).projector().mat
    assert np.abs(p @ row - row).max() < TOL
    assert np.abs(p @ row.conj()).max() < TOL


def test_subspace_basis_residual_split():
    rows = np.array([[1.0, 0.0, 0.0]], dtype=complex)
    basis = SubspaceBasis(3, rows, "vector-space")
    assert basis.residual(np.array([2.0, 0.0, 0.0])) < TOL
    assert basis.residual(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=TOL)


def test_subspace_basis_unknown_kind():
    with pytest.raises(UsageError):
        SubspaceBasis(2, np.array([[1.0, 0.0]], dtype=complex), "nonsense")


def test_tensor_sum_matches_the_running_sum_of_tensor_products():
    rng = np.random.Generator(np.random.Philox(20))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a[0, 1] = a[2, 0] = 0.0
    b = np.triu(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    w = complex(rng.normal(), rng.normal())
    terms = [(1.0, (a, b, SX)), (w, (np.eye(3), b, SY)), (np.conj(w), (a.conj().T, np.eye(2), SZ))]
    ref = np.zeros((12, 12), dtype=complex)
    for coef, factors in terms:
        ref += coef * kron(*factors)
    assert np.array_equal(tensor_sum(terms).mat, ref)


def test_tensor_sum_validation():
    with pytest.raises(UsageError):
        tensor_sum([])
    with pytest.raises(ShapeError):
        tensor_sum([(1.0, (np.ones((2, 3)),))])
    with pytest.raises(ShapeError):
        tensor_sum([(1.0, (SX,)), (1.0, (SX, SX))])
    with pytest.raises(BudgetError):
        tensor_sum([(1.0, (np.eye(64), np.eye(65)))])
    with pytest.raises(DomainError):
        tensor_sum([(1.0, (np.eye(2), np.array([[np.inf]])))])


def summed(*parts, dim=3):
    """``_summed`` of parts given as lists of ((row, col), value)."""
    return _summed(dim, [(np.array([r for (r, _), _ in part], dtype=np.intp),
                          np.array([c for (_, c), _ in part], dtype=np.intp),
                          np.array([v for _, v in part], dtype=complex)) for part in parts])


def test_summed_adds_each_position_in_part_order_from_zero():
    one = summed([((1, 2), 1e16)], [((1, 2), -1e16)], [((1, 2), 1.0)])
    assert (one.rows.tolist(), one.cols.tolist(), one.vals.tolist()) == ([1], [2], [1.0])
    # 1e16 + 1 rounds back to 1e16, so the sum is exactly 0 and keeps no entry
    assert summed([((1, 2), 1e16)], [((1, 2), 1.0)], [((1, 2), -1e16)]).vals.size == 0


def test_summed_keeps_no_exact_zero():
    negative = complex(-0.0, -0.0)
    for parts in ([[((0, 0), negative)], [((0, 0), negative)]], [[((0, 0), negative)]],
                  [[((0, 0), 2.5j)], [((0, 0), -2.5j)]]):
        assert summed(*parts).vals.size == 0
    kept = summed([((0, 0), negative), ((2, 1), 1.0)], [((0, 0), negative)])
    assert (kept.rows.tolist(), kept.cols.tolist()) == ([2], [1])


def test_summed_lists_the_positions_of_several_parts_in_row_major_order():
    got = summed([((2, 0), 1.0), ((0, 2), 2.0), ((1, 1), 3.0)], [((0, 1), 4.0), ((2, 0), 5.0), ((1, 0), 6.0)])
    assert list(zip(got.rows.tolist(), got.cols.tolist())) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert got.vals.tolist() == [4.0, 2.0, 6.0, 3.0, 6.0]
    one = summed([((2, 0), 1.0), ((0, 2), 2.0)])
    assert (one.rows.tolist(), one.cols.tolist()) == ([2, 0], [0, 2])  # one part keeps its order


def test_summed_refuses_a_non_finite_sum():
    for parts in ([[((0, 1), complex(0.0, np.nan))]], [[((0, 1), np.inf)], [((1, 1), 1.0)]]):
        with pytest.raises(DomainError, match="finite"):
            summed(*parts)
    # finite values whose sum overflows: the check reads the sums
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="finite"):
        summed([((0, 1), 1e308)], [((0, 1), 1e308)])


def entry_pattern(op):
    """The stored positions of an operator that keeps its entries, in
    row-major order."""
    e = op._entries
    order = np.lexsort((e.cols, e.rows))
    return e.rows[order], e.cols[order]


def test_tensor_sum_adds_overlapping_terms_in_term_order():
    # (1e16 - 1e16) + 1 is 1, while 1e16 + (-1e16 + 1) is 0: the one
    # position all three terms share must be summed in the order given
    terms = [(1e16, (SX, SZ)), (-1e16, (SX, SZ)), (1.0, (SX, SZ)), (2j, (SX, np.eye(2)))]
    ref = np.zeros((4, 4), dtype=complex)
    for coef, factors in terms:
        ref += coef * kron(*factors)
    op = tensor_sum(terms)
    assert op.mat[0, 2] == 1.0 + 2j
    assert np.array_equal(op.mat, ref)


def test_tensor_sum_keeps_no_entry_where_terms_cancel():
    op = tensor_sum([(1.0, (SX, SZ)), (-1.0, (SX, SZ)), (0.5, (SZ, SX))])
    assert op._entries.vals.size == 4 and np.all(op._entries.vals != 0)
    rows, cols = entry_pattern(op)
    want = np.nonzero(op.mat)
    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
    assert np.array_equal(op.mat, 0.5 * kron(SZ, SX))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_tensor_sum_rejects_a_non_finite_factor(bad):
    with pytest.raises(DomainError):
        tensor_sum([(1.0, (SX, np.array([[1.0, 0.0], [bad, 1.0]])))])
    with pytest.raises(DomainError):
        tensor_sum([(1.0, (SX,)), (bad, (SZ,))])


def test_an_operator_that_keeps_its_entries_forms_mat_only_when_read():
    rng = np.random.Generator(np.random.Philox(21))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a[1, 2] = 0.0
    op = tensor_sum([(1.0, (a, SY)), (0.25, (np.eye(3), SZ))])
    adj = op.dag()
    assert op.dim == adj.dim == 6
    assert "mat" not in vars(op) and "mat" not in vars(adj)
    assert np.array_equal(adj.mat, op.mat.conj().T)
    assert adj.mat is adj.mat
    with pytest.raises(ValueError):
        adj.mat[0, 0] = 5.0
    rows, cols = entry_pattern(adj)
    want = np.nonzero(adj.mat)
    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
    with pytest.raises(AttributeError):
        op.not_an_attribute


def string_model(n, n_max):
    # both backgrounds have nonempty kernels at the sizes used here
    metric = np.array([[2.25]]) if n == 1 else 0.25 * np.eye(2)
    coupling = np.zeros((n, n)) if n == 1 else np.array([[0.0, 0.4], [-0.4, 0.0]])
    return build_string_model(Background(metric, coupling), n_max=n_max, levels=1)


@pytest.mark.parametrize("n, n_max", [(1, 4), (2, 1)])
def test_the_entry_product_residual_matches_the_dense_product(n, n_max):
    model = string_model(n, n_max)
    for dirac in (model.d, model.d_bar):
        kernel = dfs_from_dirac(dirac, tol=1e-9)
        assert kernel.size > 0 and "mat" not in vars(dirac)
        rng = np.random.Generator(np.random.Philox(22))
        vectors = rng.normal(size=(3, dirac.dim)) + 1j * rng.normal(size=(3, dirac.dim))
        dense = dirac.mat @ vectors.T
        assert np.abs(dirac._apply(vectors) - dense).max() <= 1e-14 * np.abs(dense).max()
        measured = np.linalg.norm(dirac.mat @ kernel.vectors.T, axis=0).max()
        assert abs(kernel.residual - measured) <= 1e-15 * kernel.sigma_max


def test_two_direction_blocks_gathered_from_the_entries_match_the_dense_gather():
    model = string_model(2, 1)
    for dirac in (model.d, model.d_bar):
        rows, smax = _nullspace_and_norm(dirac._entries, 1e-9)[:2]
        dense_rows, dense_smax = _nullspace_and_norm(_Entries.of(np.array(dirac.mat)), 1e-9)[:2]
        assert np.array_equal(rows, dense_rows) and smax == dense_smax


def test_a_dirac_operator_made_from_a_dense_matrix_is_certified_on_it():
    model = string_model(1, 2)
    dense = DiracOperator(model.d.mat, split=model.d.split)
    assert "_entries" not in vars(dense)
    kernel = dfs_from_dirac(dense, tol=1e-9)
    assert np.array_equal(kernel.vectors, dfs_from_dirac(model.d, tol=1e-9).vectors)
    assert kernel.residual == float(np.linalg.norm(dense._apply(kernel.vectors), axis=0).max())
    measured = float(np.linalg.norm(model.d.mat @ kernel.vectors.T, axis=0).max())
    assert abs(kernel.residual - measured) <= 1e-15 * kernel.sigma_max
    # a split that disagrees with such a matrix fails the certificate:
    # test_fock.test_a_split_that_disagrees_with_its_matrix_fails_the_certificate


def quarter_turned_blocks(rng, blocks, zero_rows=0, zero_cols=0):
    """``permuted_blocks`` with real blocks, each row and column then turned
    by a random power of i: a complex matrix whose entries are each real or
    imaginary, and which row and column phases in {1, i} make real again."""
    m = sum(b[0] for b in blocks) + zero_rows
    n = sum(b[1] for b in blocks) + zero_cols
    out = np.zeros((m, n), dtype=complex)
    i = j = 0
    for rows, cols, rank in blocks:
        out[i : i + rows, j : j + cols] = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        i, j = i + rows, j + cols
    out *= 1j ** rng.integers(0, 4, size=m)[:, None]
    out *= 1j ** rng.integers(0, 4, size=n)[None, :]
    kernel_dim = n - sum(b[2] for b in blocks)
    return out[rng.permutation(m)][:, rng.permutation(n)], kernel_dim


@pytest.mark.parametrize(
    "blocks, zero_rows, zero_cols",
    [
        ([(6, 4, 4)], 0, 2),
        ([(3, 3, 2), (3, 3, 2), (3, 3, 3)], 0, 0),
        ([(2, 5, 2), (5, 2, 1), (4, 4, 3), (1, 3, 1)], 2, 3),
        ([(1, 1, 1)] * 7 + [(2, 1, 1)] * 4 + [(1, 2, 1)] * 3, 3, 0),
    ],
)
def test_quarter_turn_gauge_agrees_with_the_complex_svd(blocks, zero_rows, zero_cols):
    """Quarter-turned blocks: the block kernels agree with one SVD of the
    whole matrix."""
    rng = np.random.Generator(np.random.Philox(21 + len(blocks)))
    a, kernel_dim = quarter_turned_blocks(rng, blocks, zero_rows, zero_cols)
    assert np.abs(a.real * a.imag).max() == 0 and np.abs(a.imag).max() > 0
    check_block_kernel(a, kernel_dim)


def test_quarter_turn_gauge_of_one_sparse_block():
    rng = np.random.Generator(np.random.Philox(25))
    # a path through every row and column, each entry real or imaginary
    a = np.triu(np.tril(rng.normal(size=(7, 7)), 1), -1) * 1j ** np.add.outer(np.arange(7), np.arange(7))
    check_block_kernel(a, 0)
    a[:, 3] = 0.0
    check_block_kernel(a, 1)


def check_block_kernel(a, kernel_dim):
    """``_nullspace_and_norm`` against ``dense_nullspace``: the same kernel
    dimension and projector, and sigma_max to 1e-14 relative."""
    rows, smax = _nullspace_and_norm(_Entries.of(a), 1e-10)[:2]
    oracle = dense_nullspace(a)
    sigma_max = np.linalg.norm(a, 2)
    assert rows.shape[0] == kernel_dim == oracle.shape[0]
    assert abs(smax - sigma_max) <= 1e-14 * sigma_max
    proj = rows.T @ rows.conj()
    assert np.abs(proj - oracle.T @ oracle.conj()).max() < 1e-12


@pytest.mark.parametrize(
    "block",
    [
        # every entry real or imaginary, but the cycle through all four
        # entries carries one quarter turn, which no gauge removes
        np.array([[1.0, 1.0], [1.0, 1.0j]]),
        np.array([[1.0 + 2.0j, 0.5], [-1.0j, 0.25 - 1.0j]]),
    ],
)
def test_blocks_without_a_quarter_turn_gauge_keep_the_complex_svd(block):
    rng = np.random.Generator(np.random.Philox(22))
    # the invertible block next to a zero column, and stacked with
    # quarter-turned blocks of its own shape (one of rank 1): one kernel
    # direction each
    check_block_kernel(np.hstack([block, np.zeros((2, 1))]), 1)
    turned, _ = quarter_turned_blocks(rng, [(2, 2, 1), (2, 2, 2)])
    stacked = np.zeros((6, 6), dtype=complex)
    stacked[:4, :4] = turned
    stacked[4:, 4:] = block
    check_block_kernel(stacked, 1)


def test_kronecker_sum_matches_the_dense_sum():
    rng = np.random.Generator(np.random.Philox(81))
    factors = [random_hermitian(rng, 3), random_hermitian(rng, 4).real, np.diag([0.5, -1.0])]
    ksum = KroneckerSum(factors)
    dense = kronecker_sum_dense(factors)
    assert ksum.dims == (3, 4, 2)
    assert abs(np.sort(ksum.grid) - np.linalg.eigvalsh(dense)).max() < 1e-12
    # first factor slowest, each factor's eigenvalues ascending
    vals = [np.linalg.eigvalsh(f) for f in factors]
    layout = np.add.outer(np.add.outer(vals[0], vals[1]), vals[2]).reshape(-1)
    assert abs(ksum.grid - layout).max() < 1e-12
    vecs = ksum.eigenvectors(np.arange(24))
    assert np.abs(vecs @ vecs.conj().T - np.eye(24)).max() < 1e-12
    assert np.abs(dense @ vecs.T - vecs.T * ksum.grid).max() < 1e-12
    picked = ksum.eigenvectors([17, 3])
    assert np.array_equal(picked, vecs[[17, 3]])
    assert ksum.eigenvectors([]).shape == (0, 24)


def test_kronecker_sum_validation():
    with pytest.raises(ShapeError):
        KroneckerSum([np.zeros((2, 3))])
    with pytest.raises(ShapeError):
        KroneckerSum([])
    with pytest.raises(DomainError):
        KroneckerSum([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])


@pytest.mark.parametrize("skew", [0.0, 0.9e-10, 1.1e-10, 3.0])
def test_is_hermitian_on_entries_agrees_with_the_dense_test(skew):
    """An operator that keeps its entries compares each entry with its
    swapped conjugate; the verdict is the dense one, and no mat is formed.
    The skew sits on an entry whose mirror is stored and on one whose
    mirror is not."""
    rng = np.random.Generator(np.random.Philox(22))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 2.0 * (a + a.conj().T)
    h[0, 3] = h[3, 0] = 0.0
    scale = np.abs(h).max()
    for pos in ((0, 1), (0, 3)):
        m = h.copy()
        m[pos] += skew * scale
        op = tensor_sum([(1.0, (m,))])
        got = op.is_hermitian()
        assert "mat" not in vars(op)
        assert got == Operator(m).is_hermitian() == (skew <= 1e-10)


def test_block_eighs_solves_only_touched_blocks():
    """Indices 0, 2, 5 and 1, 4 form two blocks and 3 is alone; touching 2
    solves all of its block alone, from the entries, and touching 4 and 3
    solves those two blocks, with the eigenpairs ``sector_eigh`` finds."""
    m = np.zeros((6, 6), dtype=complex)
    for i, j, v in ((0, 2, 1.0), (2, 5, 0.5j), (1, 4, 2.0), (3, 3, 7.0), (5, 5, -1.0)):
        m[i, j] = v
        m[j, i] = np.conj(v)
    for stored, index, want in (
        (tensor_sum([(1.0, (m,))])._entries, [2], [[0, 2, 5]]),
        (_Entries.of(m), [4, 3], [[1, 4], [3]]),
    ):
        touched = np.zeros(6, dtype=bool)
        touched[index] = True
        got = list(_block_eighs(stored, touched=touched))
        assert sorted(list(r) for rows, *_ in got for r in rows) == want
        for rows, _, vals, vecs in got:
            for r, w, v in zip(rows, vals, vecs):
                blk = m[np.ix_(r, r)]
                assert np.allclose((v * w) @ v.conj().T, blk, atol=1e-14)
                assert np.allclose(w, np.linalg.eigvalsh(blk), atol=1e-14)


def same_entries(got: _Entries, want: _Entries) -> bool:
    """Equal positions in the same order, and equal value bits, signed zeros
    included."""
    return all(
        getattr(got, f).dtype == getattr(want, f).dtype and getattr(got, f).tobytes() == getattr(want, f).tobytes()
        for f in ("rows", "cols", "vals")
    )


@pytest.mark.parametrize("real", [True, False])
def test_an_int_factor_is_the_identity_of_that_size(real):
    """Every term with int factors stores the entries of the same term with
    ``np.eye`` factors: an int first, last, between and alone, and k = 1.
    The complex factor holds entries with a -0.0 part, and the coefficients
    flip signs, so products carry signed zeros."""
    rng = np.random.Generator(np.random.Philox(61))
    a = rng.normal(size=(3, 3))
    a[0, 1] = a[2, 2] = 0.0
    b = np.array([[1.5, -2.0], [0.0, -0.5]])
    if not real:
        a = a + 1j * rng.normal(size=(3, 3))
        a[1, 0] = complex(-0.75, -0.0)
        a[1, 1] = complex(-0.0, 2.0)
        b = b.astype(complex)
    layouts = [
        (2, a), (a, 2), (4, a, 1), (1, a, 2, b), (a, 1), (6,), (1,), (2, 3),
    ]
    for factors in layouts:
        eyes = tuple(np.eye(f) if isinstance(f, int) else f for f in factors)
        for coef in (1.0, -1.0, complex(-0.5, -0.0)):
            got, want = tensor_sum([(coef, factors)])._entries, tensor_sum([(coef, eyes)])._entries
            assert same_entries(got, want), (factors, coef)
        # several terms, the identity in different slots of each
        dim = int(np.prod([f if isinstance(f, int) else f.shape[0] for f in factors]))
        if dim % 3 == 0 and dim > 3:
            terms = [(1.0, factors), (-1.0, (a, dim // 3)), (0.5j, (dim // 3, a))]
            eye_terms = [(c, tuple(np.eye(f) if isinstance(f, int) else f for f in fs)) for c, fs in terms]
            assert same_entries(tensor_sum(terms)._entries, tensor_sum(eye_terms)._entries)
    assert same_entries(tensor(np.int64(3), b)._entries, tensor(np.eye(3), b)._entries)


def test_an_identity_size_must_be_a_positive_int_and_counts_for_the_budget():
    for bad in (0, -2, True, False):
        with pytest.raises(ShapeError):
            tensor_sum([(1.0, (bad, SX))])
        with pytest.raises(ShapeError):
            tensor(bad)
    with pytest.raises(ShapeError):
        tensor(2.0, SX)
    with pytest.raises(ShapeError):
        tensor_sum([(1.0, (SX,)), (1.0, (3,))])
    assert tensor(64, 64).dim == 4096
    with pytest.raises(BudgetError):
        tensor(64, 65)
    with pytest.raises(BudgetError):
        tensor_sum([(1.0, (10**30, SX))])
    with pytest.raises(ShapeError):
        KroneckerSum([2, SX])


def touched_patterns():
    """Hermitian block patterns under a random permutation: isolated
    indices (zero rows), singleton blocks, and several blocks of one size."""
    rng = np.random.Generator(np.random.Philox(62))
    for sizes, zero_pairs, zero_rows in (
        ([3, 3, 3, 1, 1], 2, 3),
        ([1, 1, 1, 1], 0, 2),
        ([4, 2, 2, 2, 5], 1, 0),
        ([7], 0, 0),
    ):
        m, labels = permuted_hermitian_blocks(rng, sizes, zero_pairs=zero_pairs, zero_rows=zero_rows)
        yield rng, m, labels


def test_block_eighs_of_the_touched_blocks_is_the_filtered_split():
    """Laying out only the touched blocks gives the groups of the whole
    split with the untouched blocks dropped: the same rows, eigenvalue and
    eigenvector bits, in the same order.  Touched sets: random subsets, one
    index in each of several blocks of one shape, every index and none."""
    for rng, m, labels in touched_patterns():
        e = tensor_sum([(1.0, (m,))])._entries
        full = list(_block_eighs(e))
        d = m.shape[0]
        masks = [rng.random(d) < p for p in (0.1, 0.3, 0.6)]
        masks += [np.ones(d, dtype=bool), np.zeros(d, dtype=bool)]
        # one index of each block of the most common size
        sizes = np.bincount(labels)
        common = np.flatnonzero(sizes == np.bincount(sizes)[1:].argmax() + 1)
        mask = np.zeros(d, dtype=bool)
        mask[[np.flatnonzero(labels == b)[0] for b in common]] = True
        masks.append(mask)
        for touched in masks:
            want = []
            for rows, _, vals, vecs in full:
                keep = touched[rows].any(axis=1)
                if keep.any():
                    want.append((rows[keep], vals[keep], vecs[keep]))
            got = [(rows, vals, vecs) for rows, _, vals, vecs in _block_eighs(e, touched=touched)]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(g, w))


def test_tensor_reads_an_operator_factor_as_its_entries():
    """An operator that holds only entries enters ``tensor`` without
    forming its matrix, and gives the bits its matrix gives."""
    a = np.array([[0.0, 1.0], [1.0, 0.5j]])
    op = tensor_sum([(1.0, (a, 3)), (0.25, (2, np.diag([1.0, -1.0, 2.0])))])
    out = tensor(2, op)._entries
    assert "mat" not in vars(op)
    ref = tensor(2, op.mat)._entries
    assert np.array_equal(out.rows, ref.rows) and np.array_equal(out.cols, ref.cols)
    assert out.vals.tobytes() == ref.vals.tobytes()
