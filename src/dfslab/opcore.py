"""Dense operator core: matrices, subspace bases, and the small set of
linear-algebra primitives everything else is built from.

Conventions used throughout the package:

* operators are square complex matrices acting on a Hilbert space of
  dimension ``dim``;
* tensor products are Kronecker products with the first factor varying
  slowest, matching the row-major reshape of composite indices.  This module
  is the only place that knows that layout: ``tensor_sum`` adds a sum of
  products of factors into one array from the factors' nonzero entries
  (``tensor`` is its one-term case), ``apply_on_factor`` applies a local
  operator to one factor of a stack of kets without forming the product, and
  ``KroneckerSum`` diagonalizes a Kronecker sum of Hermitian factors from
  the factors' eigenpairs (eigenvalue grid and product eigenvectors);
* kernels, commutants and operator norms are computed from singular value
  decompositions with a relative cutoff, never from exact rank decisions.
  Each matrix is first split into the connected blocks of its nonzero
  pattern (an exact split, no tolerance), and every block gets its own SVD
  (with the full V^dag only for a block with more columns than rows); the
  cutoff stays relative to the largest singular value of the whole matrix.
  A kernel computed any other way (from a Kronecker sum's eigenpairs, say)
  is certified the same way, by ``KernelBasis.certify``;
* Hermitian eigenproblems go through ``sector_eigh`` the same way: the
  indices are split into the connected blocks of the nonzero pattern, read
  as an undirected graph on the indices, and each block is diagonalized on
  its own (blocks of one size in one stacked call), so a Hamiltonian that
  conserves a quantum number costs the cube of its largest block, not of
  its dimension;
* commutants are block-first: the generators must be Hermitian, one of them
  is diagonalized and its eigenvalues grouped into eigenspaces with a
  cutoff relative to its spectral spread, every commutant element is block
  diagonal over those eigenspaces, and only the other generators'
  constraints on the blocks go through ``nullspace`` (sum of the squared
  multiplicities unknowns, not dim^2).  Each returned element carries a
  commutator certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, ShapeError, UsageError

# Default dimension budget for explicit dense constructions.
DIM_BUDGET = 4096

# Default tolerances; individual operations take overrides where useful.
HERMITICITY_TOL = 1e-10
KERNEL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
UNITARITY_TOL = 1e-12

VECTOR_SPACE = "vector-space"
OPERATOR_SPACE = "operator-space"


def _square_complex(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise DomainError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class Operator:
    """A square complex matrix on a ``dim``-dimensional Hilbert space."""

    mat: np.ndarray

    def __post_init__(self):
        arr = _square_complex(self.mat)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def _unchecked(cls, arr: np.ndarray, **fields) -> "Operator":
        """An instance around ``arr``, which the caller vouches is a square,
        finite complex128 array, without the boundary check; ``arr`` is made
        read-only.  ``fields`` sets a subclass's other fields."""
        out = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(out, "mat", arr)
        for name, value in fields.items():
            object.__setattr__(out, name, value)
        return out

    @staticmethod
    def identity(dim: int) -> "Operator":
        return Operator(np.eye(dim))

    @staticmethod
    def zeros(dim: int) -> "Operator":
        return Operator(np.zeros((dim, dim)))

    def dag(self) -> "Operator":
        # mat is read-only and was validated when this operator was made
        return Operator._unchecked(self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        scale = max(1.0, float(np.abs(self.mat).max(initial=0.0)))
        return float(np.abs(self.mat - self.mat.conj().T).max(initial=0.0)) <= tol * scale

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.mat + _same_dim(self, other).mat)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.mat - _same_dim(self, other).mat)

    def __neg__(self) -> "Operator":
        return Operator(-self.mat)

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.mat @ _same_dim(self, other).mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.mat * complex(scalar))

    __rmul__ = __mul__


def _same_dim(a: Operator, b: Operator) -> Operator:
    if not isinstance(b, Operator):
        raise UsageError(f"expected an Operator, got {type(b).__name__}")
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return b


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal family spanning a subspace of C^ambient_dim.

    ``kind`` records whether rows are Hilbert-space vectors or vectorized
    operators (row-major vec of a dim x dim matrix, ambient_dim = dim**2,
    orthonormal in the Hilbert-Schmidt inner product).
    """

    ambient_dim: int
    vectors: np.ndarray
    kind: str = VECTOR_SPACE

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.complex128)
        if arr.ndim != 2:
            arr = arr.reshape(-1, self.ambient_dim) if arr.size else arr.reshape(0, self.ambient_dim)
        if arr.shape[1] != self.ambient_dim:
            raise ShapeError(
                f"basis rows have length {arr.shape[1]}, ambient dimension is {self.ambient_dim}"
            )
        if self.kind not in (VECTOR_SPACE, OPERATOR_SPACE):
            raise UsageError(f"unknown basis kind {self.kind!r}")
        if self.kind == OPERATOR_SPACE:
            side = int(round(self.ambient_dim ** 0.5))
            if side * side != self.ambient_dim:
                raise ShapeError("operator-space basis needs a square ambient dimension")
        if arr.shape[0]:
            gram = arr @ arr.conj().T
            if float(np.abs(gram - np.eye(arr.shape[0])).max()) > ORTHONORMALITY_TOL:
                raise DomainError("basis rows are not orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def projector(self) -> Operator:
        """Orthogonal projector onto the span (vector-space kind only)."""
        if self.kind != VECTOR_SPACE:
            raise UsageError("projector() is defined for vector-space bases")
        return Operator(self.vectors.T @ self.vectors.conj())

    def matrices(self) -> list[Operator]:
        """The basis as dim x dim matrices (operator-space kind only)."""
        if self.kind != OPERATOR_SPACE:
            raise UsageError("matrices() is defined for operator-space bases")
        side = int(round(self.ambient_dim ** 0.5))
        return [Operator(row.reshape(side, side)) for row in self.vectors]

    def residual(self, element) -> float:
        """Distance from ``element`` (vector or matrix) to the span."""
        v = np.asarray(element, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ShapeError("element does not live in the ambient space")
        coeffs = self.vectors.conj() @ v
        return float(np.linalg.norm(v - self.vectors.T @ coeffs))


@dataclass(frozen=True, kw_only=True)
class KernelBasis(SubspaceBasis):
    """The numerical kernel of an operator, with ``sigma_max``, the largest
    singular value of that operator, read off the computation that found it
    (block SVDs or factor eigenvalues), and ``residual``, the largest norm
    ||A v|| over the basis vectors v (0 for an empty kernel), measured by the
    certificate."""

    sigma_max: float
    residual: float

    @classmethod
    def certify(cls, a: Operator, rows: np.ndarray, sigma_max: float, tol: float) -> "KernelBasis":
        """The span of ``rows`` as the kernel of ``a``, certified: the
        largest residual ||a v|| over the rows, measured on ``a.mat``, must
        stay within tol * sigma_max * sqrt(dim) (1e-10 when sigma_max
        vanishes, never below 1e-12), else DomainError."""
        resid = float(np.linalg.norm(a.mat @ rows.T, axis=0).max()) if rows.shape[0] else 0.0
        basis = cls(a.dim, rows, VECTOR_SPACE, sigma_max=sigma_max, residual=resid)
        bound = tol * sigma_max * np.sqrt(a.dim) if sigma_max > 0 else 1e-10
        if resid > max(bound, 1e-12):
            raise DomainError("kernel residual exceeds the certified bound")
        return basis


def tensor(*factors) -> Operator:
    """Kronecker product of Operators or square arrays, first factor slowest:
    the one-term ``tensor_sum``."""
    if not factors:
        raise UsageError("tensor needs at least one factor")
    return tensor_sum([(1.0, factors)])


def _square_factors(factors) -> tuple[np.ndarray, ...]:
    """The factors as arrays (an Operator gives its matrix); ShapeError
    unless there is at least one and each is square."""
    mats = tuple(np.asarray(f.mat if isinstance(f, Operator) else f) for f in factors)
    if not mats or any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats):
        raise ShapeError("expected one or more square factor matrices")
    return mats


def tensor_sum(terms) -> Operator:
    """sum_t coef_t * tensor(*factors_t), formed from the factors' nonzero
    entries, for ``terms`` a sequence of ``(coef, factors)`` pairs.

    Each term multiplies its factors' nonzero entries, first factor first,
    and then scales them by ``coef``; the terms are added into one array in
    the order given.  So the result equals, entry by entry, the running sum
    of the densified terms, without any full-space temporary.  The budget is
    checked before anything is allocated; finiteness is checked once, on
    the sum.
    """
    out = None
    for coef, factors in terms:
        mats = _square_factors(factors)
        dim = math.prod(m.shape[0] for m in mats)
        if out is None:
            if dim > DIM_BUDGET:
                raise BudgetError(f"tensor product dimension {dim} exceeds budget {DIM_BUDGET}")
            out = np.zeros((dim, dim), dtype=np.complex128)
        elif dim != out.shape[0]:
            raise ShapeError(f"term dimension {dim} does not match {out.shape[0]}")
        rows = cols = np.zeros(1, dtype=np.intp)
        vals = None
        for m in mats:
            r, c = np.nonzero(m)
            rows = (rows[:, None] * m.shape[0] + r).reshape(-1)
            cols = (cols[:, None] * m.shape[0] + c).reshape(-1)
            vals = m[r, c] if vals is None else (vals[:, None] * m[r, c]).reshape(-1)
        # (rows, cols) pairs are distinct within a term
        out[rows, cols] += coef * vals
    if out is None:
        raise UsageError("tensor_sum needs at least one term")
    return Operator(out)


def apply_on_factor(mat, slot: int, dims, vectors) -> np.ndarray:
    """Apply a local operator to factor ``slot`` of a stack of row-kets.

    ``vectors`` has shape (k, prod(dims)) in the first-factor-slowest layout;
    the result has the same shape and equals ``vectors @ tensor(I, .., mat,
    .., I).mat.T`` without forming the product operator.
    """
    m = mat.mat if isinstance(mat, Operator) else _square_complex(mat)
    if not 0 <= slot < len(dims):
        raise UsageError(f"slot {slot} outside {len(dims)} factors")
    if m.shape[0] != dims[slot]:
        raise ShapeError(f"operator dimension {m.shape[0]} does not match factor {dims[slot]}")
    vecs = np.asarray(vectors, dtype=np.complex128)
    if vecs.ndim != 2 or vecs.shape[1] != math.prod(dims):
        raise ShapeError(f"expected rows of length {math.prod(dims)}, got shape {vecs.shape}")
    stacked = vecs.reshape(vecs.shape[0], *dims)
    out = np.moveaxis(np.tensordot(m, stacked, axes=(1, slot + 1)), 0, slot + 1)
    return out.reshape(vecs.shape)


class KroneckerSum:
    """The Kronecker sum sum_k I x .. x h_k x .. x I of Hermitian factors
    h_k (first factor slowest), diagonalized from its factors' eigenpairs,
    the fast diagonalization of Lynch, Rice and Thomas (Numer. Math. 6, 185,
    1964); no dense Kronecker product is formed.

    ``grid`` holds the eigenvalues lambda_a + mu_b + .., one eigenvalue of
    each factor, flattened in the first-factor-slowest layout; grid entry g
    belongs to the product eigenvector ``eigenvectors([g])``.  Each factor
    goes through ``sector_eigh``, whose reconstruction check rejects a
    factor that is not Hermitian.
    """

    def __init__(self, factors):
        mats = _square_factors(factors)
        pairs = [sector_eigh(m) for m in mats]
        grid = np.zeros(())
        for vals, _ in pairs:
            grid = np.add.outer(grid, vals)
        self.dims = tuple(m.shape[0] for m in mats)
        self.grid = grid.reshape(-1)
        self.grid.setflags(write=False)
        self._vecs = tuple(v for _, v in pairs)

    def eigenvectors(self, index) -> np.ndarray:
        """Row-kets, one per grid index in ``index``: the products of the
        factor eigenvectors that index selects, first factor slowest."""
        picks = np.unravel_index(np.asarray(index, dtype=np.intp), self.dims)
        out = np.ones((picks[0].size, 1), dtype=np.complex128)
        for vecs, pick in zip(self._vecs, picks):
            side = out.shape[1] * vecs.shape[0]
            out = (out[:, :, None] * vecs[:, pick].T[:, None, :]).reshape(pick.size, side)
        return out


def commutator(a: Operator, b: Operator) -> Operator:
    return Operator(a.mat @ _same_dim(a, b).mat - b.mat @ a.mat)


def operator_norm(a: Operator) -> float:
    """Largest singular value: the maximum over the blocks of the nonzero
    pattern of each block's singular values."""
    nz = _nonzero_entries(a.mat)
    sectors = None if nz is None else _sectors(a.mat.shape, *nz)
    if sectors is None:
        return float(np.linalg.norm(a.mat, 2))
    return max(
        (float(np.linalg.svd(_gather(a.mat, rows, cols), compute_uv=False).max())
         for rows, cols in sectors if rows.shape[1] and cols.shape[1]),
        default=0.0,
    )


def sector_eigh(mat, vectors: bool = True):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, or of
    a stack of them with shape (..., d, d), computed block by block.

    The indices are split into the connected blocks of the nonzero pattern,
    taken over the whole stack (an exact split, no tolerance), and the
    blocks of one size go through one stacked ``np.linalg.eigh``
    (``eigvalsh`` when ``vectors`` is false).  The eigenvalues are merged by
    a stable sort, blocks laid out in the order of their smallest index;
    eigenvector k is column k, zero outside its block.  A matrix that is one
    block goes through the plain dense call.  Each block's eigenpairs must
    reconstruct it to 1e-10 relative to the largest entry of its matrix.
    Returns ``(vals, vecs)``, or ``vals`` alone when ``vectors`` is false.
    Only the lower triangle is read, as in ``np.linalg.eigh``.
    """
    arr = np.asarray(mat)
    blocks = _hermitian_blocks(np.any(arr != 0, axis=tuple(range(arr.ndim - 2))))
    if blocks is None:
        if not vectors:
            return np.linalg.eigvalsh(arr)
        vals, vecs = np.linalg.eigh(arr)
        _check_reconstruction(arr, vals, vecs, _entry_scale(arr))
        return vals, vecs
    d = arr.shape[-1]
    flat = arr.reshape(-1, d, d)
    scale = _entry_scale(flat)[:, None]
    vals = np.empty(flat.shape[:2])
    solved = []
    for slots, idx in blocks:
        blk = flat[:, idx[:, :, None], idx[:, None, :]]
        if vectors:
            w, v = np.linalg.eigh(blk)
            _check_reconstruction(blk, w, v, scale)
            solved.append((slots, idx, v))
        else:
            w = np.linalg.eigvalsh(blk)
        vals[:, slots] = w
    order = np.argsort(vals, axis=-1, kind="stable")
    sorted_vals = np.take_along_axis(vals, order, axis=-1).reshape(arr.shape[:-1])
    if not vectors:
        return sorted_vals
    # scatter each block's eigenvectors straight into their sorted columns
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(d), axis=-1)
    member = np.arange(flat.shape[0])[:, None, None, None]
    vecs = np.zeros(flat.shape, dtype=np.promote_types(arr.dtype, np.float64))
    for slots, idx, v in solved:
        vecs[member, idx[:, :, None], rank[:, slots][:, :, None, :]] = v
    return sorted_vals, vecs.reshape(arr.shape)


def _entry_scale(arr: np.ndarray) -> np.ndarray:
    """max(1, largest entry modulus) of each matrix in a stack."""
    return np.maximum(1.0, np.abs(arr).max(axis=(-2, -1), initial=0.0))


def _check_reconstruction(blk, vals, vecs, scale) -> None:
    """Raise unless V diag(vals) V^dag reproduces every matrix of ``blk`` to
    1e-10 times ``scale``, which broadcasts against the stack axes."""
    recon = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if np.any(np.abs(recon - blk).max(axis=(-2, -1), initial=0.0) > 1e-10 * scale):
        raise DomainError("eigendecomposition failed to reconstruct the operator")


def eig_hermitian(a: Operator, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, SubspaceBasis]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator,
    block by block (``sector_eigh``).

    Eigenvector phases are fixed by making the first component of largest
    modulus real and positive, so repeated calls agree on one build.
    """
    if not a.is_hermitian(tol):
        raise DomainError("operator is not Hermitian within tolerance")
    vals, vecs = sector_eigh(a.mat)
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    pivot = np.where(pivot == 0, 1.0, pivot)
    vecs *= np.abs(pivot) / pivot
    return vals, SubspaceBasis(a.dim, vecs.T, VECTOR_SPACE)


def _components(n: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by the edges
    r[k] -- c[k]; labels count from 0 in the order of each component's
    smallest node."""
    # label propagation over the edge list: hook the larger root of every
    # edge onto the smaller one, then jump pointers until each label is a
    # root; every round at least halves the number of trees in a block
    label = np.arange(n)
    while True:
        lr, lc = label[r], label[c]
        if np.array_equal(lr, lc):
            break
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return np.unique(label, return_inverse=True)[1].reshape(n)


def _nonzero_entries(arr: np.ndarray):
    """Row and column indices of the nonzero entries of ``arr``, or None
    when every entry is nonzero."""
    pattern = arr != 0
    return None if pattern.all() else np.nonzero(pattern)


def _sectors(shape: tuple[int, int], r: np.ndarray, c: np.ndarray):
    """Connected blocks of the bipartite nonzero pattern of an (m, n) matrix
    whose nonzero entries sit at (r[k], c[k]).

    Rows and columns are separate nodes and row r is joined to column c when
    that entry is nonzero, so the split is exact.  Returns None when one block
    holds every row and column.  Otherwise returns one ``(rows, cols)`` pair
    per distinct block shape (m_b, n_b): index arrays of shapes (k, m_b) and
    (k, n_b) for the k blocks of that shape, ascending within each block.  A
    row with no nonzero entry is a (1, 0) block, such a column a (0, 1) one.
    """
    m, n = shape
    comp = _components(m + n, r, c + m)
    n_blocks = int(comp.max(initial=0)) + 1
    if n_blocks == 1:
        return None
    comp_r, comp_c = comp[:m], comp[m:]
    nr = np.bincount(comp_r, minlength=n_blocks)
    nc = np.bincount(comp_c, minlength=n_blocks)
    row_order = np.argsort(comp_r, kind="stable")
    col_order = np.argsort(comp_c, kind="stable")
    row_start = np.cumsum(nr) - nr
    col_start = np.cumsum(nc) - nc
    keys, shape_of = np.unique(nr * (n + 1) + nc, return_inverse=True)
    out = []
    for g, key in enumerate(keys):
        mb, nb = divmod(int(key), n + 1)
        ids = np.flatnonzero(shape_of == g)
        out.append((
            row_order[row_start[ids, None] + np.arange(mb)],
            col_order[col_start[ids, None] + np.arange(nb)],
        ))
    return out


def _hermitian_blocks(pattern: np.ndarray):
    """Connected blocks of a square nonzero pattern, read as an undirected
    graph on the indices: i -- j when ``pattern[i, j]`` or ``pattern[j, i]``.

    Returns None when one block holds every index.  Otherwise returns one
    ``(slots, idx)`` pair per distinct block size s: for the k blocks of that
    size, ``idx`` (k, s) holds their indices, ascending, and ``slots`` (k, s)
    the positions their eigenpairs take when the blocks are laid out in the
    order of their smallest index.  An index with no nonzero entry is a
    block of size 1.
    """
    d = pattern.shape[0]
    if pattern.all():
        return None
    r, c = np.nonzero(pattern)
    comp = _components(d, r, c)
    sizes = np.bincount(comp)
    if sizes.size == 1:
        return None
    order = np.argsort(comp, kind="stable")
    start = np.cumsum(sizes) - sizes
    out = []
    for s in np.unique(sizes):
        slots = start[np.flatnonzero(sizes == s), None] + np.arange(s)
        out.append((slots, order[slots]))
    return out


def _gather(arr: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stack of blocks ``arr[rows[j]][:, cols[j]]``, shape (k, m_b, n_b);
    a view of ``arr`` when its one block is all of it."""
    if rows.shape == (1, arr.shape[0]) and cols.shape == (1, arr.shape[1]):
        return arr[None]
    return arr[rows[:, :, None], cols[:, None, :]]


def _nullspace_and_norm(arr: np.ndarray, tol: float, scale: float = 0.0) -> tuple[np.ndarray, float]:
    """``nullspace`` rows together with sigma_max, the largest singular value;
    the cutoff is tol * max(sigma_max, scale)."""
    m, ncols = arr.shape
    if arr.size == 0:
        return np.eye(ncols, dtype=np.complex128), 0.0
    nz = _nonzero_entries(arr)
    sectors = None if nz is None else _sectors(arr.shape, *nz)
    if sectors is None:
        sectors = [(np.arange(m)[None], np.arange(ncols)[None])]
    svds = []
    for rows, cols in sectors:
        k, nb = cols.shape
        if not nb:
            continue  # zero rows
        if not rows.shape[1]:
            # zero columns: each is an exact kernel direction, vh = [[1]]
            svds.append((cols, np.zeros((k, 0)), np.ones((k, 1, 1))))
            continue
        # only a wide block needs the V^dag rows past its singular values;
        # a tall one would form a full U that nothing reads
        _, sigma, vh = np.linalg.svd(_gather(arr, rows, cols), full_matrices=rows.shape[1] < nb)
        svds.append((cols, sigma, vh))
    smax = max(float(sigma.max(initial=0.0)) for _, sigma, _ in svds)
    ref = max(smax, scale)
    cutoff = tol * ref if ref > 0 else 1e-12
    pieces = []
    for cols, sigma, vh in svds:
        # columns beyond the number of singular values are exact kernel directions
        keep = np.ones(cols.shape, dtype=bool)
        keep[:, : sigma.shape[1]] = sigma <= cutoff
        block, row = np.nonzero(keep)
        piece = np.zeros((block.size, ncols), dtype=np.complex128)
        piece[np.arange(block.size)[:, None], cols[block]] = vh[block, row].conj()
        pieces.append(piece)
    return np.concatenate(pieces), smax


def nullspace(mat: np.ndarray, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal rows spanning the numerical right nullspace of ``mat``.

    Keeps right-singular directions with singular value <= tol * sigma_max,
    with an absolute floor of 1e-12 when sigma_max vanishes.  The matrix is
    split into the connected blocks of its nonzero pattern first; each block
    gets its own SVD (blocks of one shape in one stacked call), sigma_max is
    the largest singular value over all blocks, and each block's kernel
    directions (the conjugated V^dag rows) are scattered back to its
    columns.  A block with more columns than rows and a column with no
    nonzero entry contribute their exact kernel directions.  A matrix with
    no zero entry, or one block, goes through one SVD of the matrix as given.
    """
    return _nullspace_and_norm(np.asarray(mat, dtype=np.complex128), tol)[0]


def kernel_basis(a: Operator, tol: float = KERNEL_TOL) -> KernelBasis:
    """Orthonormal basis of the numerical kernel of ``a`` (``nullspace``).

    Certified (``KernelBasis.certify``): every basis vector's residual must
    stay within tol * sigma_max * sqrt(dim), with sigma_max read off the
    singular values the kernel computation already has.  Both sigma_max and
    the measured residual are returned on the basis.
    """
    return KernelBasis.certify(a, *_nullspace_and_norm(a.mat, tol), tol)


def commutant_basis(ops: list[Operator], dim: int, tol: float = KERNEL_TOL) -> SubspaceBasis:
    """Hilbert-Schmidt orthonormal basis of {X : [O, X] = 0 for all O}, for
    Hermitian generators O; a generator that is not Hermitian within
    ``HERMITICITY_TOL`` raises DomainError.

    Block-first: X commutes with a Hermitian O exactly when it maps every
    eigenspace of O into itself.  Each generator is diagonalized by
    ``sector_eigh`` and its eigenvalues are grouped into eigenspaces wherever
    consecutive ones differ by at most tol * (lambda_max - lambda_min); for
    one generator this is the cutoff of the dense system O kron I - I kron
    O^T, whose singular values are |lambda_i - lambda_j|.  In the eigenbasis
    V of the generator with the fewest unknowns sum_c m_c^2 (m_c the
    multiplicities), X = V Y V^dag with Y block diagonal; the other
    generators' constraints [V^dag O V, Y] = 0 go through ``nullspace`` on
    those unknowns, with the cutoff relative to the largest spread
    lambda_max - lambda_min over the generators if that exceeds the
    constraints' own sigma_max.  Certified: every returned element has
    ||[O, X]||_HS <= tol * ||O|| for every generator, or DomainError is
    raised.  An empty operator list returns the full operator space.  The
    identity direction is always contained in the span.
    """
    if dim * dim > DIM_BUDGET:
        raise BudgetError(f"commutant problem size {dim * dim} exceeds budget {DIM_BUDGET}")
    for op in ops:
        if op.dim != dim:
            raise ShapeError(f"operator dimension {op.dim} does not match {dim}")
        if not op.is_hermitian():
            raise DomainError("commutant generators must be Hermitian within tolerance")
    if not ops:
        return SubspaceBasis(dim * dim, np.eye(dim * dim), OPERATOR_SPACE)
    frames = [_eigenspaces(op.mat, tol) for op in ops]
    pick = min(range(len(ops)), key=lambda k: int(np.sum(frames[k][2] ** 2)))
    vecs, sizes = frames[pick][1:]
    # the unknowns Y_ij, i and j in one eigenspace, grouped by eigenspace
    label = np.repeat(np.arange(sizes.size), sizes)
    i, j = np.nonzero(label[:, None] == label[None, :])
    others = [op.mat for k, op in enumerate(ops) if k != pick]
    if others:
        # cut relative to the largest spread, as the dense system would: in
        # a shared frame these constraints can all be roundoff
        spread = max(vals[-1] - vals[0] for vals, _, _ in frames)
        coef = _nullspace_and_norm(np.concatenate([
            _frame_commutator(vecs.conj().T @ o @ vecs, i, j) for o in others
        ]), tol, spread)[0]
    else:
        coef = np.eye(i.size, dtype=np.complex128)
    # X = sum_c V_c Y_c V_c^dag over the eigenspaces c
    out = np.zeros((coef.shape[0], dim, dim), dtype=np.complex128)
    start = 0
    for first, m in zip(np.cumsum(sizes) - sizes, sizes):
        y = coef[:, start:start + m * m].reshape(-1, m, m)
        start += m * m
        rows = np.flatnonzero(np.any(y != 0, axis=(1, 2)))
        v = vecs[:, first:first + m]
        out[rows] += v @ y[rows] @ v.conj().T
    for op, (vals, _, _) in zip(ops, frames):
        resid = np.linalg.norm((op.mat @ out - out @ op.mat).reshape(out.shape[0], -1), axis=1)
        if float(resid.max(initial=0.0)) > tol * max(abs(vals[0]), abs(vals[-1])):
            raise DomainError("commutant element fails the commutator certificate")
    return SubspaceBasis(dim * dim, out.reshape(-1, dim * dim), OPERATOR_SPACE)


def _eigenspaces(mat: np.ndarray, tol: float):
    """Eigenvalues (ascending), eigenvectors and eigenspace sizes of a
    Hermitian matrix; an eigenspace ends wherever the next eigenvalue is more
    than tol * (lambda_max - lambda_min) above the last one."""
    vals, vecs = sector_eigh(mat)
    cut = np.flatnonzero(np.diff(vals) > tol * (vals[-1] - vals[0])) + 1
    return vals, vecs, np.diff(np.concatenate([[0], cut, [vals.size]]))


def _frame_commutator(b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The (d^2, k) matrix of Y -> [b, Y] restricted to the k unknowns Y_ij:
    column u is the row-major vec of b[:, i_u] e_{j_u}^T - e_{i_u} b[j_u, :]."""
    d = b.shape[0]
    u = np.arange(i.size)
    out = np.zeros((d, d, i.size), dtype=np.complex128)
    out[:, j, u] = b[:, i]
    out[i, :, u] -= b[j, :]
    return out.reshape(d * d, i.size)


def unitary_exp(theta: Operator, tol: float = HERMITICITY_TOL) -> Operator:
    """exp(i * theta) for Hermitian theta, via eigendecomposition."""
    vals, basis = eig_hermitian(theta, tol)
    vecs = basis.vectors.T
    u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    op = Operator(u)
    if float(np.abs(u @ u.conj().T - np.eye(theta.dim)).max()) > UNITARITY_TOL:
        raise DomainError("exponential failed the unitarity check")
    return op
