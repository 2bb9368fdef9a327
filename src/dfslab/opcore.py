"""Operator core: matrices, subspace bases, and the small set of
linear-algebra primitives everything else is built from.

Conventions used throughout the package:

* operators are square complex matrices acting on a Hilbert space of
  dimension ``dim``.  Every ``Operator`` method and the three blocked
  solvers (``kernel_basis``, ``operator_norm``, ``sector_eigh``) read one
  format, the nonzero entries (rows, cols, vals) of ``_Entries``.  An
  operator made from a matrix forms them from its nonzeros the first time
  they are needed; one that ``tensor_sum`` built keeps only them and forms
  its dense ``mat`` the first time that is read.  Either is then cached,
  ``mat`` read-only.  Arrays given to ``nullspace`` or ``sector_eigh`` enter
  the same format through ``_Entries.of``.  ``Operator`` has no arithmetic:
  products and sums are taken on ``mat`` or built by ``tensor_sum``;
* tensor products are Kronecker products with the first factor varying
  slowest, matching the row-major reshape of composite indices.  This module
  is the only place that knows that layout: ``tensor_sum`` sums products of
  factors as an entry list formed from the factors' nonzero entries
  (``tensor`` is its one-term case), ``apply_on_factor`` applies a local
  operator to one factor of a stack of kets without forming the product, and
  ``KroneckerSum`` diagonalizes a Kronecker sum of Hermitian factors from
  the factors' eigenpairs (eigenvalue grid and product eigenvectors);
* one splitter serves the three blocked solvers.  The connected blocks of
  the entries' pattern are found (an exact split, no tolerance) and each
  block is gathered from the entries, so a matrix and the ``tensor_sum``
  of it give the same blocks, the same values and the same bits.  Kernels
  and norms split the pattern as a bipartite graph of rows and columns;
  Hermitian eigenproblems (``sector_eigh``) read it as an undirected graph
  on the indices, so a block's rows and columns are the same indices.  A
  matrix that is one block is solved as one block;
* kernels, commutants and operator norms are computed from singular value
  decompositions with a relative cutoff, never from exact rank decisions.
  Every block gets its own SVD (with the full V^dag only for a block with
  more columns than rows); the cutoff stays relative to the largest
  singular value of the whole matrix.  A kernel computed any other way
  (from a Kronecker sum's eigenpairs, say) is certified the same way, by
  ``KernelBasis.certify``;
* each Hermitian block is diagonalized on its own (blocks of one size in
  one stacked call), so a Hamiltonian that conserves a quantum number costs
  the cube of its largest block, not of its dimension;
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

# Default tolerances; ``nullspace`` and ``kernel_basis`` take a cutoff.
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
class _Entries:
    """The nonzero entries of an (m, n) matrix, or of a stack of matrices on
    the union of their patterns: ``vals[..., k]`` sits at (``rows[k]``,
    ``cols[k]``), no position twice; every other entry is zero.  The values
    keep their dtype, and an ``Operator``'s are complex and finite."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, arr) -> "_Entries":
        """The entries of an array, or of a stack (..., m, n) at every
        position nonzero in one of its matrices, in row-major order, with
        the array's dtype."""
        arr = np.asarray(arr)
        m, n = arr.shape[-2:]
        pattern = arr != 0
        if pattern.ndim > 2:
            pattern = pattern.any(axis=tuple(range(pattern.ndim - 2)))
        # flat positions: cheaper to find and to take than (row, col) pairs
        flat = np.flatnonzero(pattern)
        vals = arr.reshape(arr.shape[:-2] + (m * n,))
        # with every position stored, the values are the array's, uncopied
        return cls((m, n), *np.divmod(flat, n), vals if flat.size == m * n else vals[..., flat])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.vals.shape[:-1] + self.shape, dtype=self.vals.dtype)
        out[..., self.rows, self.cols] = self.vals
        return out

    def adjoint(self) -> "_Entries":
        return _Entries(self.shape[::-1], self.cols, self.rows, self.vals.conj())

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """The matrix times each row of ``vectors`` (k, n), as rows (k, m):
        every entry's product is added into its row, in entry order, so the
        result depends on that order and not on BLAS.
        One row at a time keeps the temporaries at the size of the entries."""
        out = np.empty((vectors.shape[0], self.shape[0]), dtype=np.complex128)
        for v, row in zip(vectors, out):
            prod = v[self.cols] * self.vals
            row.real = np.bincount(self.rows, weights=prod.real, minlength=self.shape[0])
            row.imag = np.bincount(self.rows, weights=prod.imag, minlength=self.shape[0])
        return out

    def mirrored(self) -> np.ndarray:
        """For each entry (r, c) of a square matrix, the value at (c, r):
        the entry stored there, or 0 where there is none."""
        if not self.vals.size:
            return self.vals
        n = self.shape[1]
        keys = self.rows * n + self.cols
        order = np.argsort(keys)
        swapped = self.cols * n + self.rows
        at = np.minimum(np.searchsorted(keys[order], swapped), keys.size - 1)
        found = keys[order[at]] == swapped
        return np.where(found, self.vals[order[at]], 0.0)

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The stack of blocks ``dense()[..., rows[j]][..., cols[j]]``, shape
        (..., k, m_b, n_b), for blocks that no entry leaves (``_sectors``),
        formed from the entries in their rows.  When the one block is the
        whole matrix it is one ``dense()``, or a view of ``vals`` when every
        position is stored in row-major order (as ``of`` stores a matrix
        with no zero entry); callers only read the blocks."""
        m, n = self.shape
        if rows.shape == (1, m) and cols.shape == (1, n):
            if self.rows.size == m * n and np.array_equal(self.rows * n + self.cols, np.arange(m * n)):
                return self.vals.reshape(self.vals.shape[:-1] + (1, m, n))
            return self.dense()[..., None, :, :]
        block = np.full(self.shape[0], -1)
        block[rows] = np.arange(rows.shape[0])[:, None]
        row_pos = np.zeros(self.shape[0], dtype=np.intp)
        row_pos[rows] = np.arange(rows.shape[1])
        col_pos = np.zeros(self.shape[1], dtype=np.intp)
        col_pos[cols] = np.arange(cols.shape[1])
        pick = np.flatnonzero(block[self.rows] >= 0)
        r, c = self.rows[pick], self.cols[pick]
        # one flat position per entry: cheaper to scatter than three indices
        flat = (block[r] * rows.shape[1] + row_pos[r]) * cols.shape[1] + col_pos[c]
        out = np.zeros(self.vals.shape[:-1] + (rows.size * cols.shape[1],), dtype=self.vals.dtype)
        out[..., flat] = self.vals[..., pick]
        return out.reshape(self.vals.shape[:-1] + rows.shape + cols.shape[1:])


@dataclass(frozen=True)
class Operator:
    """A square complex matrix on a ``dim``-dimensional Hilbert space.

    Its methods read its nonzero entries (``_Entries``).  An operator made
    from a matrix forms them the first time they are needed; one that
    ``tensor_sum`` built keeps only its entries and forms ``mat`` from them
    the first time it is read.  Either is then cached, and ``mat`` is
    read-only.
    """

    mat: np.ndarray

    def __post_init__(self):
        arr = _square_complex(self.mat)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)
        object.__setattr__(self, "dim", arr.shape[0])

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the mat or the
        # entries of an operator that has only the other, before anything
        # has read it
        stored = vars(self)
        if name == "mat" and "_entries" in stored:
            value = stored["_entries"].dense()
            value.setflags(write=False)
        elif name == "_entries" and "mat" in stored:
            value = _Entries.of(stored["mat"])
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @classmethod
    def _unchecked(cls, entries: _Entries, **fields) -> "Operator":
        """An instance that keeps ``entries``, without the boundary check:
        the caller vouches that they are the complex, finite entries of a
        square matrix.  ``fields`` sets a subclass's other fields."""
        out = object.__new__(cls)
        object.__setattr__(out, "_entries", entries)
        object.__setattr__(out, "dim", entries.shape[0])
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
        """The conjugate transpose, as swapped, conjugated entries."""
        return Operator._unchecked(self._entries.adjoint())

    def _apply(self, vectors: np.ndarray) -> np.ndarray:
        """``mat @ vectors.T`` for row-kets ``vectors``, multiplying only the
        entries (``_Entries.apply``)."""
        return self._entries.apply(vectors).T

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self) -> bool:
        """Whether every entry of A - A^dag is within HERMITICITY_TOL times
        max(1, largest |entry of A|).  Each entry is compared with the
        conjugate of the one at its swapped position (0 where none is
        stored), which covers every nonzero entry of A - A^dag with the same
        values."""
        e = self._entries
        skew = e.vals - e.mirrored().conj()
        scale = max(1.0, float(np.abs(e.vals).max(initial=0.0)))
        return float(np.abs(skew).max(initial=0.0)) <= HERMITICITY_TOL * scale

    def _diagonal(self):
        """The diagonal when every nonzero entry lies on it, else None."""
        e = self._entries
        if not np.array_equal(e.rows, e.cols):
            return None
        diag = np.zeros(self.dim, dtype=np.complex128)
        diag[e.rows] = e.vals
        return diag

    def _masked(self, label: np.ndarray) -> "Operator":
        """The operator with entry (i, j) kept where ``label[i] ==
        label[j]`` and exactly 0 elsewhere, as the entries that stay."""
        e = self._entries
        keep = label[e.rows] == label[e.cols]
        return Operator._unchecked(_Entries(e.shape, e.rows[keep], e.cols[keep], e.vals[keep]))


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
        if not np.isfinite(arr).all():
            raise DomainError("basis entries must be finite")
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
        largest residual ||a v|| over the rows, measured on ``a``'s entries
        in a fixed order, not by BLAS (``Operator._apply``), must stay
        within tol * sigma_max * sqrt(dim) (1e-10 when sigma_max vanishes,
        never below 1e-12), else DomainError."""
        resid = float(np.linalg.norm(a._apply(rows), axis=0).max()) if rows.shape[0] else 0.0
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
    """sum_t coef_t * tensor(*factors_t), for ``terms`` a sequence of
    ``(coef, factors)`` pairs, as an ``Operator`` that keeps its nonzero
    entries.

    Each term multiplies its factors' nonzero entries, first factor first,
    and then scales them by ``coef``.  The entries of one position are added
    in the order of the terms, starting from zero, and a position whose sum
    is exactly zero keeps no entry.  So the entries are those of the running
    sum of the densified terms, bit for bit: ``mat``, formed when read, is
    that sum, and the stored positions are its nonzero pattern.  No
    full-space array is formed.  The budget is checked before anything is
    allocated; finiteness is checked once, on the summed entries.
    """
    dim = None
    parts = []
    for coef, factors in terms:
        mats = _square_factors(factors)
        size = math.prod(m.shape[0] for m in mats)
        if dim is None:
            if size > DIM_BUDGET:
                raise BudgetError(f"tensor product dimension {size} exceeds budget {DIM_BUDGET}")
            dim = size
        elif size != dim:
            raise ShapeError(f"term dimension {size} does not match {dim}")
        rows = cols = np.zeros(1, dtype=np.intp)
        vals = None
        for m in mats:
            r, c = np.nonzero(m)
            rows = (rows[:, None] * m.shape[0] + r).reshape(-1)
            cols = (cols[:, None] * m.shape[0] + c).reshape(-1)
            vals = m[r, c] if vals is None else (vals[:, None] * m[r, c]).reshape(-1)
        parts.append((rows, cols, coef * vals))
    if dim is None:
        raise UsageError("tensor_sum needs at least one term")
    if len(parts) == 1:
        # positions are distinct within a term
        rows, cols, vals = parts[0]
        acc = np.zeros(vals.shape, dtype=np.complex128)
        acc += vals
    else:
        keys, slot = np.unique(np.concatenate([r * dim + c for r, c, _ in parts]), return_inverse=True)
        acc = np.zeros(keys.size, dtype=np.complex128)
        start = 0
        for _, _, vals in parts:
            acc[slot[start:start + vals.size]] += vals
            start += vals.size
        rows, cols = np.divmod(keys, dim)
    if not np.isfinite(acc).all():
        raise DomainError("matrix entries must be finite")
    keep = acc != 0
    return Operator._unchecked(_Entries((dim, dim), rows[keep], cols[keep], acc[keep]))


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
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Operator(a.mat @ b.mat - b.mat @ a.mat)


def operator_norm(a: Operator) -> float:
    """Largest singular value: the maximum over the blocks of the nonzero
    pattern of each block's singular values."""
    e = a._entries
    return max(
        (float(np.linalg.svd(e.gather(rows, cols), compute_uv=False).max())
         for rows, cols, _ in _split(e) if rows.shape[1] and cols.shape[1]),
        default=0.0,
    )


def sector_eigh(mat, vectors: bool = True):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, an
    ``Operator`` or an array, computed block by block; eigenvalues alone
    (``vectors`` false) also of a stack of arrays with shape (..., d, d).

    The indices are split into the connected blocks of the nonzero pattern
    (``_split``) of the operator's entries, or of an array's
    (``_Entries.of``, its dtype kept), taken over the whole stack.  The
    blocks of one size are gathered from the entries and go through one
    stacked ``np.linalg.eigh`` (``eigvalsh`` when ``vectors`` is false); a
    matrix that is one block is one such call.  The eigenvalues are merged
    by a stable sort, blocks laid out in the order of their smallest index;
    eigenvector k is column k, zero outside its block.  Each block's
    eigenpairs must reconstruct it to 1e-10 relative to the largest entry
    of its matrix.  Returns ``(vals, vecs)``, or ``vals`` alone when
    ``vectors`` is false.  Only the lower triangle of each block is read, as
    in ``np.linalg.eigh``.
    """
    e = mat._entries if isinstance(mat, Operator) else _Entries.of(mat)
    vals = np.empty(e.vals.shape[:-1] + e.shape[:1])
    solved = []
    for rows, start, w, v in _block_eighs(e, vectors):
        slots = start[:, None] + np.arange(rows.shape[1])
        vals[..., slots] = w
        solved.append((rows, slots, v))
    if not vectors:
        return np.sort(vals, axis=-1, kind="stable")
    # scatter each block's eigenvectors straight into their sorted columns
    order = np.argsort(vals, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    vecs = np.zeros(e.shape, dtype=solved[0][2].dtype)
    for rows, slots, v in solved:
        vecs[rows[:, :, None], rank[slots][:, None, :]] = v
    return vals[order], vecs


def _block_eighs(e: _Entries, vectors: bool = True, touched=None):
    """``sector_eigh``'s eigenproblems, one group of same-size blocks of the
    Hermitian matrix (or stack) with entries ``e`` at a time: ``(rows,
    start, vals, vecs)`` with rows (k, m_b) and start (k,) as ``_sectors``
    gives them, vals (..., k, m_b) ascending within each block and vecs (k,
    m_b, m_b), each block's eigenvectors as its columns over its own rows
    (None when ``vectors`` is false).  With ``touched``, a boolean mask over
    the indices, only the blocks holding a touched index are solved; no
    entry joins them to any other index, so this is an exact split, no
    tolerance."""
    if vectors:
        if e.vals.ndim != 1:
            raise ShapeError(
                f"eigenvectors are computed for one matrix, got shape {e.vals.shape[:-1] + e.shape}"
            )
        scale = max(1.0, float(np.abs(e.vals).max(initial=0.0)))
    for rows, _, start in _split(e, hermitian=True):
        if touched is not None:
            keep = touched[rows].any(axis=1)
            if not keep.any():
                continue
            rows, start = rows[keep], start[keep]
        blk = e.gather(rows, rows)
        if not vectors:
            yield rows, start, np.linalg.eigvalsh(blk), None
            continue
        w, v = np.linalg.eigh(blk)
        _check_reconstruction(blk, w, v, scale)
        yield rows, start, w, v


def _check_reconstruction(blk, vals, vecs, scale: float) -> None:
    """Raise unless V diag(vals) V^dag reproduces every block of the stack
    ``blk`` to 1e-10 times ``scale``."""
    recon = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if np.abs(recon - blk).max(initial=0.0) > 1e-10 * scale:
        raise DomainError("eigendecomposition failed to reconstruct the operator")


def eig_hermitian(a: Operator) -> tuple[np.ndarray, SubspaceBasis]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator,
    block by block (``sector_eigh``).

    Eigenvector phases are fixed by making the first component of largest
    modulus real and positive, so repeated calls agree on one build.
    """
    if not a.is_hermitian():
        raise DomainError("operator is not Hermitian within tolerance")
    vals, vecs = sector_eigh(a)
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
        if (lr == lc).all():
            break
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    # labels only decrease, so every root is its component's smallest node
    return (np.cumsum(label == np.arange(n)) - 1)[label]


def _split(e: _Entries, hermitian: bool = False):
    """The connected blocks of the pattern of the entries ``e``, as
    ``_sectors`` lists them.

    By default rows and columns are separate nodes and row r is joined to
    column c when that entry is stored.  With ``hermitian`` the matrix is
    square and its indices are the nodes, i -- j when entry (i, j) or
    (j, i) is stored, so each block's rows and columns are the same
    indices.  Either split is exact; a matrix with every entry stored is
    one block, without walking its pattern."""
    m, n = e.shape
    if e.rows.size == m * n:
        label = np.zeros(m if hermitian else m + n, dtype=np.intp)
    elif hermitian:
        label = _components(m, e.rows, e.cols)
    else:
        label = _components(m + n, e.rows, e.cols + m)
    return _sectors(label, label) if hermitian else _sectors(label[:m], label[m:])


def _row_stack(ops):
    """The entries of the operators, all of one dimension, stacked as one
    (k dim, dim) matrix."""
    entries = [op._entries for op in ops]
    dim = ops[0].dim
    return _Entries(
        (len(ops) * dim, dim),
        np.concatenate([e.rows + k * dim for k, e in enumerate(entries)]),
        np.concatenate([e.cols for e in entries]),
        np.concatenate([e.vals for e in entries]),
    )


def _sectors(row_label: np.ndarray, col_label: np.ndarray):
    """The blocks of a matrix whose row i lies in block ``row_label[i]`` and
    column j in block ``col_label[j]``, labels counting from 0.

    Returns one ``(rows, cols, start)`` triple per distinct block shape
    (m_b, n_b): index arrays of shapes (k, m_b) and (k, n_b) for the k
    blocks of that shape, ascending within each block, and ``start`` (k,),
    the position of each block's first row when the rows are laid out block
    by block in label order.  A block with no column is a row with no
    nonzero entry, one with no row such a column.  Pass one label array for
    both when the rows and columns are the same indices, so the layout is
    built once.
    """
    n_blocks = int(max(row_label.max(initial=0), col_label.max(initial=0))) + 1
    if n_blocks == 1:
        return [(np.arange(row_label.size)[None], np.arange(col_label.size)[None], np.zeros(1, dtype=np.intp))]

    def layout(label):
        size = np.bincount(label, minlength=n_blocks)
        return size, np.argsort(label, kind="stable"), np.cumsum(size) - size

    nr, row_order, row_start = layout(row_label)
    nc, col_order, col_start = (
        (nr, row_order, row_start) if col_label is row_label else layout(col_label)
    )
    width = col_label.size + 1
    shape_key = nr * width + nc
    out = []
    for key in np.unique(shape_key):
        mb, nb = divmod(int(key), width)
        ids = np.flatnonzero(shape_key == key)
        out.append((
            row_order[row_start[ids, None] + np.arange(mb)],
            col_order[col_start[ids, None] + np.arange(nb)],
            row_start[ids],
        ))
    return out


def _nullspace_and_norm(e: _Entries, tol: float, scale: float = 0.0) -> tuple[np.ndarray, float]:
    """``nullspace`` rows of the matrix with entries ``e``, together with
    sigma_max, the largest singular value; the cutoff is tol * max(sigma_max,
    scale)."""
    m, ncols = e.shape
    if m * ncols == 0:
        return np.eye(ncols, dtype=np.complex128), 0.0
    svds = []
    for rows, cols, _ in _split(e):
        k, nb = cols.shape
        if not nb:
            continue  # zero rows
        if not rows.shape[1]:
            # zero columns: each is an exact kernel direction, vh = [[1]]
            svds.append((cols, np.zeros((k, 0)), np.ones((k, 1, 1))))
            continue
        # only a wide block needs the V^dag rows past its singular values;
        # a tall one would form a full U that nothing reads
        _, sigma, vh = np.linalg.svd(e.gather(rows, cols), full_matrices=rows.shape[1] < nb)
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
    no zero entry, or one block, goes through one SVD of the whole matrix.
    The matrix enters as the entries of its complex128 copy
    (``_Entries.of``), as the other blocked solvers read an ``Operator``.
    """
    return _nullspace_and_norm(_Entries.of(np.asarray(mat, dtype=np.complex128)), tol)[0]


def kernel_basis(a: Operator, tol: float = KERNEL_TOL) -> KernelBasis:
    """Orthonormal basis of the numerical kernel of ``a`` (``nullspace``).

    The blocks are split and gathered from the operator's entries, so one
    that ``tensor_sum`` built is never densified, and an operator made from
    a matrix gives the same bits as the ``tensor_sum`` of that matrix.
    Certified (``KernelBasis.certify``): every basis
    vector's residual must stay within tol * sigma_max * sqrt(dim), with
    sigma_max read off the singular values the kernel computation already
    has.  Both sigma_max and the measured residual are returned on the basis.
    """
    return KernelBasis.certify(a, *_nullspace_and_norm(a._entries, tol), tol)


def commutant_basis(ops: list[Operator], dim: int) -> SubspaceBasis:
    """Hilbert-Schmidt orthonormal basis of {X : [O, X] = 0 for all O}, for
    Hermitian generators O; a generator that is not Hermitian within
    ``HERMITICITY_TOL`` raises DomainError.

    Block-first: X commutes with a Hermitian O exactly when it maps every
    eigenspace of O into itself.  With tol = ``KERNEL_TOL``, each generator
    is diagonalized by ``sector_eigh`` and its eigenvalues are grouped into
    eigenspaces wherever consecutive ones differ by at most
    tol * (lambda_max - lambda_min); for one generator this is the cutoff of
    the dense system O kron I - I kron O^T, whose singular values are
    |lambda_i - lambda_j|.  In the eigenbasis V of the generator with the
    fewest unknowns sum_c m_c^2 (m_c the multiplicities), X = V Y V^dag with
    Y block diagonal; the other generators' constraints [V^dag O V, Y] = 0
    go through ``nullspace`` on those unknowns, with the cutoff relative to
    the largest spread lambda_max - lambda_min over the generators if that
    exceeds the constraints' own sigma_max.  Certified: every returned
    element has ||[O, X]||_HS <= tol * ||O|| for every generator, or
    DomainError is raised.  An empty operator list returns the full operator
    space.  The identity direction is always contained in the span.
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
    frames = [_eigenspaces(op) for op in ops]
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
        coef = _nullspace_and_norm(_Entries.of(np.concatenate([
            _frame_commutator(vecs.conj().T @ o @ vecs, i, j) for o in others
        ])), KERNEL_TOL, spread)[0]
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
        if float(resid.max(initial=0.0)) > KERNEL_TOL * max(abs(vals[0]), abs(vals[-1])):
            raise DomainError("commutant element fails the commutator certificate")
    return SubspaceBasis(dim * dim, out.reshape(-1, dim * dim), OPERATOR_SPACE)


def _eigenspaces(op: Operator):
    """Eigenvalues (ascending), eigenvectors and eigenspace sizes of a
    Hermitian operator; an eigenspace ends wherever the next eigenvalue is
    more than KERNEL_TOL * (lambda_max - lambda_min) above the last one."""
    vals, vecs = sector_eigh(op)
    cut = np.flatnonzero(np.diff(vals) > KERNEL_TOL * (vals[-1] - vals[0])) + 1
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


def unitary_exp(theta: Operator) -> Operator:
    """exp(i * theta) for Hermitian theta, via eigendecomposition."""
    vals, basis = eig_hermitian(theta)
    vecs = basis.vectors.T
    u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    op = Operator(u)
    if float(np.abs(u @ u.conj().T - np.eye(theta.dim)).max()) > UNITARITY_TOL:
        raise DomainError("exponential failed the unitarity check")
    return op
