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
  (``tensor`` is its one-term case; an Operator factor gives its entries,
  and an identity factor is given as its size, so neither forms or scans a
  dense array), and ``KroneckerSum`` diagonalizes a Kronecker sum of
  Hermitian factors from the factors' eigenpairs (eigenvalue grid and
  product eigenvectors);
* one splitter serves the three blocked solvers.  The connected blocks of
  the entries' pattern are found (an exact split, no tolerance) and each
  block is gathered from the entries, so a matrix and the ``tensor_sum``
  of it give the same blocks, the same values and the same bits.  Kernels
  and norms split the pattern as a bipartite graph of rows and columns;
  Hermitian eigenproblems (``sector_eigh``) read it as an undirected graph
  on the indices, so a block's rows and columns are the same indices.  A
  matrix that is one block is solved as one block, and a caller that reads
  only some indices has only the blocks holding them laid out;
* kernels, commutants and operator norms are computed from singular value
  decompositions with a relative cutoff, never from exact rank decisions.
  Every block gets its own SVD (with the full V^dag only for a block with
  more columns than rows; a square block gets its singular values first and
  its vectors only if it may have a kernel); the cutoff stays relative to
  the largest singular value of the whole matrix.  A kernel computed any
  other way (from a Kronecker sum's eigenpairs, say) is certified the same
  way, by ``KernelBasis.certify``, which checks orthonormality per kernel
  block where the caller passes disjoint blocks (a Kronecker sum's spinor
  halves);
* each Hermitian block is diagonalized on its own (blocks of one size in
  one stacked call), so a Hamiltonian that conserves a quantum number costs
  the cube of its largest block, not of its dimension.  Eigenvalues alone
  of entries with no imaginary part come from the real symmetric solver (the
  same matrix, several times cheaper); eigenvectors are always complex.
  ``lowest_eigenvalue`` refines the lowest eigenvalue to a Rayleigh quotient
  summed exactly, whose bits do not depend on BLAS threading;
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
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import BudgetError, DomainError, ShapeError, UsageError

# Default dimension budget for explicit dense constructions.
DIM_BUDGET = 4096

# Default tolerances; ``nullspace`` and ``kernel_basis`` take a cutoff.
# ``_is_hermitian`` is the one Hermiticity rule: HERMITICITY_TOL for the
# operators the package computes, SYMMETRY_TOL for the coefficient matrices a
# scenario gives (metrics, couplings, K and Lambda).
HERMITICITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
KERNEL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
UNITARITY_TOL = 1e-12

VECTOR_SPACE = "vector-space"
OPERATOR_SPACE = "operator-space"


def _capped_power(base: int, exp: int, budget: int) -> int | None:
    """``base ** exp`` (integers, base >= 1, exp >= 0) when it is at most
    ``budget`` squared, else None.  A size over its budget by up to that
    much is reported as its value; past it a message names only the inputs.
    The power is built one factor at a time and the loop stops at the first
    partial product past the cap, so a huge base or exponent costs a few
    products, not a huge integer."""
    if base == 1:
        return 1
    cap = budget * budget
    out = 1
    for _ in range(exp):
        out *= base
        if out > cap:
            return None
    return out


def _size_text(value: int) -> str:
    """An integer for a message: its digits, or its order of magnitude once
    it has more than 12 of them."""
    if value < 10**12:
        return str(value)
    return f"about 10^{math.floor(math.log10(value))}"


def _square_complex(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # false where either part is not finite
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
        # freeze a view: the caller's own array stays writeable
        arr = _square_complex(self.mat).view()
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
        """``_is_hermitian`` with HERMITICITY_TOL, read off the entries."""
        return _is_hermitian(self)

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


def _is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    """The one rule for "A is Hermitian": max |A - A^dag| <= tol * max(1,
    max |A|), for an ``Operator``, a matrix, or each matrix of a stack (...,
    d, d).  A backward-error test: roundoff in a computed matrix grows with
    its entries, so the bound scales with them (absolute for entries at most
    1), and an input valid at one scale stays valid at any other.  An
    operator's entries are each compared with the conjugate of the one at
    the swapped position (0 where none is stored), which covers every
    nonzero entry of A - A^dag with the same values.  A real antisymmetric
    X is one for which 1j * X passes."""
    if isinstance(a, Operator):
        e = a._entries
        vals, skew, axes = e.vals, e.vals - e.mirrored().conj(), -1
    else:
        vals = np.asarray(a)
        skew, axes = vals - vals.conj().swapaxes(-1, -2), (-2, -1)
    bound = tol * np.maximum(1.0, np.abs(vals).max(axis=axes, initial=0.0))
    return bool(np.all(np.abs(skew).max(axis=axes, initial=0.0) <= bound))


# The absolute floor of a kernel: the cutoff of a zero matrix, all of whose
# directions are kernel, and the least residual bound a kernel certificate
# grants.
KERNEL_FLOOR = 1e-12
# The residual bound of a kernel certificate when sigma_max vanishes.
ZERO_SIGMA_RESIDUAL = 1e-10


def _kernel_cutoff(tol: float, ref: float) -> float:
    """The largest singular value a kernel direction may have: tol * ref,
    relative to the reference singular value ref, or KERNEL_FLOOR when ref
    vanishes (a zero matrix, all of whose directions are kernel)."""
    return tol * ref if ref > 0 else KERNEL_FLOOR


def _kernel_residual_bound(tol: float, sigma_max: float, dim: int) -> float:
    """The largest residual ||A v|| a kernel direction of a dim x dim
    operator may have: the cutoff ``_kernel_cutoff(tol, sigma_max)``, the
    largest singular value a kept direction has, plus 2 dim eps sigma_max,
    the backward error of the decomposition that found it (dim eps
    sigma_max) and the rounding of the measured residual (as much again).
    Never below KERNEL_FLOOR; ZERO_SIGMA_RESIDUAL when sigma_max vanishes.
    ``_nullspace_and_norm`` reads it too: a square block whose smallest
    singular value, computed without vectors, is at most this bound is
    decomposed again with them."""
    if sigma_max <= 0:
        return ZERO_SIGMA_RESIDUAL
    roundoff = 2 * dim * np.finfo(np.float64).eps * sigma_max
    return max(_kernel_cutoff(tol, sigma_max) + roundoff, KERNEL_FLOOR)


def _check_orthonormal(rows: np.ndarray) -> None:
    """Raise DomainError unless the rows of ``rows`` are orthonormal: every
    entry of their Gram matrix within ORTHONORMALITY_TOL of the identity's."""
    if rows.shape[0]:
        gram = rows @ rows.conj().T
        if float(np.abs(gram - np.eye(rows.shape[0])).max()) > ORTHONORMALITY_TOL:
            raise DomainError("basis rows are not orthonormal")


def _check_blocks(rows: np.ndarray, blocks) -> None:
    """Raise DomainError unless ``blocks``, (row slice, column slice) pairs,
    put every row of ``rows`` in exactly one block and every column in at
    most one, and hold every nonzero entry of ``rows``.  Rows of different
    blocks then have disjoint supports, so the blocks' Gram matrices are
    the only nonzero blocks of the whole Gram matrix."""
    row_use = np.zeros(rows.shape[0], dtype=int)
    col_use = np.zeros(rows.shape[1], dtype=int)
    inside = 0
    for r, c in blocks:
        row_use[r] += 1
        col_use[c] += 1
        inside += np.count_nonzero(rows[r, c])
    if (row_use != 1).any() or (col_use > 1).any() or inside != np.count_nonzero(rows):
        raise DomainError("kernel blocks do not partition the basis rows' support")


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
        _check_orthonormal(self._kept_rows())

    def _kept_rows(self) -> np.ndarray:
        """Check the rows' shape, kind and finiteness, keep them as a
        read-only complex array, and return it."""
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
        arr = arr.view()
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)
        return arr

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
    def certify(cls, a: Operator, rows: np.ndarray, sigma_max: float, tol: float, blocks) -> "KernelBasis":
        """The span of ``rows`` as the kernel of ``a``, certified: the rows
        must be orthonormal, and the largest residual ||a v|| over them,
        measured on ``a``'s entries in a fixed order, not by BLAS
        (``Operator._apply``), must stay within ``_kernel_residual_bound(tol,
        sigma_max, dim)``, else DomainError.

        Orthonormality is checked per kernel block: one Gram matrix for
        ``rows[r, c]`` per slice pair ``(r, c)`` in ``blocks``;
        ``[np.s_[:, :]]`` is the whole Gram matrix.  The blocks must put each
        row in one block and each column in at most one, and hold every
        nonzero entry (``_check_blocks``), else DomainError; every Gram
        entry between two blocks is then exactly zero, so this is the full
        check.  The public constructor keeps the full Gram matrix."""
        resid = float(np.linalg.norm(a._apply(rows), axis=0).max()) if rows.shape[0] else 0.0
        values = {"ambient_dim": a.dim, "vectors": rows, "kind": VECTOR_SPACE,
                  "sigma_max": sigma_max, "residual": resid}
        basis = object.__new__(cls)
        for field in dataclass_fields(cls):
            object.__setattr__(basis, field.name, values[field.name])
        kept = basis._kept_rows()
        _check_blocks(kept, blocks)
        for r, c in blocks:
            _check_orthonormal(kept[r, c])
        if resid > _kernel_residual_bound(tol, sigma_max, a.dim):
            raise DomainError("kernel residual exceeds the certified bound")
        return basis


def tensor(*factors) -> Operator:
    """Kronecker product of Operators, square arrays or sizes (an int k is
    the k x k identity), first factor slowest: the one-term ``tensor_sum``."""
    if not factors:
        raise UsageError("tensor needs at least one factor")
    return tensor_sum([(1.0, factors)])


def _square_factors(factors, sizes: bool = False) -> tuple:
    """The factors as arrays, an Operator as its ``_Entries``; ShapeError
    unless there is at least one and each is square.  With ``sizes`` a
    factor may also be an int k, the k x k identity, kept as the int; it
    must be positive and not a bool."""
    mats = []
    for f in factors:
        if sizes and isinstance(f, (int, np.integer)):
            if isinstance(f, bool) or f < 1:
                raise ShapeError(f"an identity factor's size must be a positive int, got {f!r}")
            mats.append(int(f))
            continue
        m = f._entries if isinstance(f, Operator) else np.asarray(f)
        if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError("expected one or more square factor matrices")
        mats.append(m)
    if not mats:
        raise ShapeError("expected one or more square factor matrices")
    return tuple(mats)


def tensor_sum(terms) -> Operator:
    """sum_t coef_t * tensor(*factors_t), for ``terms`` a sequence of
    ``(coef, factors)`` pairs, as an ``Operator`` that keeps its nonzero
    entries.

    A factor is an Operator (read as its entries), a square array, or an
    int k, the k x k identity.  Each term multiplies its factors' nonzero
    entries, first factor first, and then scales them by ``coef``; an
    identity factor's positions come from index arithmetic and its unit
    entries repeat the values, with no product.  The entries of one position are added in the
    order of the terms, starting from zero, and a position whose sum is
    exactly zero keeps no entry.  So the entries are those of the running
    sum of the densified terms, bit for bit: ``mat``, formed when read, is
    that sum, and the stored positions are its nonzero pattern (the sum
    onto +0.0 also sends any signed zero that a product by 1.0 would have
    flipped to +0.0).  No full-space array is formed.  The budget is checked
    before anything is allocated; finiteness is checked once, on the summed
    entries.
    """
    return Operator._unchecked(_summed(*_tensor_terms(terms)))


def _tensor_terms(terms) -> tuple:
    """``(dim, parts)`` for ``tensor_sum``: the common dimension and, for
    each term in order, its entries as one ``(rows, cols, vals)`` triple with
    no position twice, before they are summed."""
    dim = None
    parts = []
    for coef, factors in terms:
        mats = _square_factors(factors, sizes=True)
        size = math.prod(m if isinstance(m, int) else m.shape[0] for m in mats)
        if dim is None:
            if size > DIM_BUDGET:
                raise BudgetError(f"tensor product dimension {size} exceeds budget {DIM_BUDGET}")
            dim = size
        elif size != dim:
            raise ShapeError(f"term dimension {size} does not match {dim}")
        rows = cols = np.zeros(1, dtype=np.intp)
        vals = None  # while every value so far is 1
        for m in mats:
            if isinstance(m, int):
                if m > 1:  # a 1 x 1 identity changes nothing
                    diag = np.arange(m)
                    rows = (rows[:, None] * m + diag).reshape(-1)
                    cols = (cols[:, None] * m + diag).reshape(-1)
                    vals = None if vals is None else np.repeat(vals, m)
                continue
            if isinstance(m, _Entries):
                r, c, v = m.rows, m.cols, m.vals
            else:
                r, c = np.nonzero(m)
                v = m[r, c]
            if vals is None:
                vals = v if rows.size == 1 else np.tile(v, rows.size)
            else:
                vals = (vals[:, None] * v).reshape(-1)
            rows = (rows[:, None] * m.shape[0] + r).reshape(-1)
            cols = (cols[:, None] * m.shape[0] + c).reshape(-1)
        parts.append((rows, cols, coef * (np.ones(rows.size) if vals is None else vals)))
    if dim is None:
        raise UsageError("tensor_sum needs at least one term")
    return dim, parts


def _summed(dim: int, parts) -> _Entries:
    """The complex entries of the (dim, dim) sum of ``parts``, each a
    ``(rows, cols, vals)`` triple with no position twice.  The values of one
    position are added in the order of the parts, starting from zero, and a
    position whose sum is exactly zero keeps no entry; finiteness is
    checked on the sums."""
    if len(parts) == 1:
        rows, cols, vals = parts[0]
        acc = np.zeros(vals.shape, dtype=np.complex128)
        acc += vals
    else:
        keys, acc = _key_sums(np.concatenate([r * dim + c for r, c, _ in parts]), [v for *_, v in parts])
        rows, cols = np.divmod(keys, dim)
    if not np.isfinite(acc).all():
        raise DomainError("matrix entries must be finite")
    keep = acc != 0
    return _Entries((dim, dim), rows[keep], cols[keep], acc[keep])


def _key_sums(keys: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending (one sort), and the complex sum of
    each key's values.  ``keys`` concatenates one key array per array of
    ``values``, with no key twice in one; the values of a key are added in
    the order of the arrays, starting from zero."""
    uniq, slot = np.unique(keys, return_inverse=True)
    acc = np.zeros(uniq.size, dtype=np.complex128)
    start = 0
    for vals in values:
        acc[slot[start:start + vals.size]] += vals
        start += vals.size
    return uniq, acc


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
        pairs = [sector_eigh(Operator._unchecked(m) if isinstance(m, _Entries) else m) for m in mats]
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
    stacked ``np.linalg.eigh`` (``eigvalsh`` when ``vectors`` is false, on
    the real parts when no entry has an imaginary part); a matrix that is
    one block is one such call.  The eigenvalues are merged by a stable
    sort, blocks laid out in the order of their smallest index; eigenvector
    k is column k, zero outside its block.  Each block's eigenpairs must
    reconstruct it to RECONSTRUCTION_TOL relative to the largest entry of
    its matrix.  Returns ``(vals, vecs)``, or ``vals`` alone when
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


# ``lowest_eigenvalue`` refines every block whose lowest eigenvalue lies
# within GROUND_WINDOW times the scale of the lowest one, each from an
# inverse-iteration solve shifted RAYLEIGH_SHIFT times the scale below it.
GROUND_WINDOW = 1e-10
RAYLEIGH_SHIFT = 1e-14


def lowest_eigenvalue(a: Operator) -> float:
    """The lowest eigenvalue of a Hermitian operator, refined so that its
    bits do not depend on how many threads BLAS runs.

    The blocks' eigenvalues (``sector_eigh`` without vectors) locate it,
    but their last bits move with the thread count, so each block whose
    lowest eigenvalue lies within GROUND_WINDOW of the scale (the largest
    of 1, that eigenvalue and the largest entry) of the lowest one is
    refined (``_rayleigh_quotient``), and the least of those quotients is
    returned.
    A degeneracy across blocks is then settled by the refined values, not
    by the located ones.
    """
    e = _real_if_exact(a._entries)
    located = [(float(w), rows) for block_rows, _, vals, _ in _block_eighs(e, vectors=False)
               for w, rows in zip(vals[:, 0], block_rows)]
    low = min(w for w, _ in located)
    scale = max(1.0, abs(low), float(np.abs(e.vals).max(initial=0.0)))
    window = low + GROUND_WINDOW * scale
    return min(_rayleigh_quotient(e, rows, w, scale) for w, rows in located if w <= window)


def _rayleigh_quotient(e: _Entries, rows: np.ndarray, located: float, scale: float) -> float:
    """The lowest eigenvalue of the block of ``e`` on ``rows``, from its
    located value: one inverse-iteration solve with the block, shifted
    RAYLEIGH_SHIFT ``scale`` below that value, gives its eigenvector v, and
    the value returned is the Rayleigh quotient v^dag A v / v^dag v, taken
    as the located value plus v^dag (A - located) v / v^dag v.  That
    numerator is summed exactly (``_exact_form``), so the quotient is the
    one of the v the solve returned, to far below one unit in the last
    place.  Its error is second order in v's, so the bits v takes from the
    solve do not reach it unless the eigenvalue is within roundoff of 0."""
    blk = e.gather(rows[None], rows[None])[0]
    # a fixed pseudo-random start: no symmetry of the block can make it
    # orthogonal to the lowest eigenvector, as it can a vector of ones
    start = np.random.default_rng(0).standard_normal(rows.size)
    v = np.linalg.solve(blk - (located - RAYLEIGH_SHIFT * scale) * np.eye(rows.size), start)
    v /= np.abs(v).max()
    full = np.zeros(e.shape[0], dtype=v.dtype)
    full[rows] = v
    # the entries of A - located in the block: A's own, and -located on its
    # diagonal
    inside = np.zeros(e.shape[0], dtype=bool)
    inside[rows] = True
    pick = inside[e.rows]
    r = np.concatenate([e.rows[pick], rows])
    c = np.concatenate([e.cols[pick], rows])
    vals = np.concatenate([e.vals[pick], np.full(rows.size, -located)])
    return located + _exact_form(full[r], vals, full[c]) / float(np.sum(np.abs(v) ** 2))


def _two_product(x: np.ndarray, y: np.ndarray):
    """x * y as p + err, exactly, for float arrays whose entries are below
    2**996 in magnitude (Dekker's splitting)."""
    p = x * y
    xs, ys = 134217729.0 * x, 134217729.0 * y  # 2**27 + 1
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _exact_form(left: np.ndarray, vals: np.ndarray, right: np.ndarray) -> float:
    """The real part of sum_k conj(left_k) vals_k right_k, correctly rounded.

    Each real triple product x y z is split exactly into four floats, x y =
    p + err and then p z and err z, and ``math.fsum`` adds all of them
    exactly before it rounds once."""
    triples = [(left.real, vals.real, right.real)]
    if np.iscomplexobj(left) or np.iscomplexobj(vals):
        triples += [(left.imag, vals.real, right.imag), (left.real, -vals.imag, right.imag),
                    (left.imag, vals.imag, right.real)]
    parts = []
    for x, y, z in triples:
        for term in _two_product(x, y):
            parts += _two_product(term, z)
    return math.fsum(np.concatenate(parts).tolist())


def _block_eighs(e: _Entries, vectors: bool = True, touched=None):
    """``sector_eigh``'s eigenproblems, one group of same-size blocks of the
    Hermitian matrix (or stack) with entries ``e`` at a time: ``(rows,
    start, vals, vecs)`` with rows (k, m_b) and start (k,) as ``_sectors``
    gives them, vals (..., k, m_b) ascending within each block and vecs (k,
    m_b, m_b), each block's eigenvectors as its columns over its own rows
    (None when ``vectors`` is false; then entries with no imaginary part
    are solved as real symmetric blocks).  With ``touched``, a boolean mask
    over the indices, only the blocks holding a touched index are laid out
    and solved (``_split``); no entry joins them to any other index, so
    this is an exact split, no tolerance."""
    if vectors:
        if e.vals.ndim != 1:
            raise ShapeError(
                f"eigenvectors are computed for one matrix, got shape {e.vals.shape[:-1] + e.shape}"
            )
        scale = max(1.0, float(np.abs(e.vals).max(initial=0.0)))
    else:
        e = _real_if_exact(e)
    for rows, _, start in _split(e, hermitian=True, touched=touched):
        blk = e.gather(rows, rows)
        if not vectors:
            yield rows, start, np.linalg.eigvalsh(blk), None
            continue
        w, v = np.linalg.eigh(blk)
        _check_reconstruction(blk, w, v, scale)
        yield rows, start, w, v


def _real_if_exact(e: _Entries) -> _Entries:
    """``e`` with real values when no value has an imaginary part: the same
    matrix, and a real symmetric eigenproblem is several times cheaper than
    a complex Hermitian one."""
    if np.iscomplexobj(e.vals) and not e.vals.imag.any():
        return _Entries(e.shape, e.rows, e.cols, e.vals.real)
    return e


# Largest entry of V diag(vals) V^dag - A, relative to the scale of A, that
# an eigendecomposition with vectors may leave.
RECONSTRUCTION_TOL = 1e-10


def _check_reconstruction(blk, vals, vecs, scale: float) -> None:
    """Raise unless V diag(vals) V^dag reproduces every block of the stack
    ``blk`` to RECONSTRUCTION_TOL times ``scale``."""
    recon = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if np.abs(recon - blk).max(initial=0.0) > RECONSTRUCTION_TOL * scale:
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


def _split(e: _Entries, hermitian: bool = False, touched=None):
    """The connected blocks of the pattern of the entries ``e``, as
    ``_sectors`` lists them.

    By default rows and columns are separate nodes and row r is joined to
    column c when that entry is stored.  With ``hermitian`` the matrix is
    square and its indices are the nodes, i -- j when entry (i, j) or
    (j, i) is stored, so each block's rows and columns are the same
    indices.  Either split is exact; a matrix with every entry stored is
    one block, without walking its pattern.  With ``touched`` (hermitian
    only), a boolean mask over the indices, only the blocks holding a
    touched index are laid out, in the same groups and order as in the
    whole split, and ``start`` counts only their rows."""
    m, n = e.shape
    if e.rows.size == m * n:
        label = np.zeros(m if hermitian else m + n, dtype=np.intp)
    elif hermitian:
        label = _components(m, e.rows, e.cols)
    else:
        label = _components(m + n, e.rows, e.cols + m)
    if not hermitian:
        return _sectors(label[:m], label[m:])
    if touched is None:
        return _sectors(label, label)
    held = np.zeros(m, dtype=bool)  # by block label
    held[label[touched]] = True
    index = np.flatnonzero(held[label])
    if not index.size:
        return []
    # the held blocks relabelled 0, 1, .. in their order
    label = (np.cumsum(held) - 1)[label[index]]
    return [(index[rows], index[cols], start) for rows, cols, start in _sectors(label, label)]


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
    scale).

    A square block's singular values come first, without vectors; only a
    block whose smallest value is at most the cutoff plus 2 dim eps
    sigma_max (``_kernel_residual_bound``) is decomposed again with them.
    Two backward-stable SVDs of one block agree on each singular value to
    within their two backward errors, dim eps sigma_max each, so this keeps
    the rows one SVD with vectors keeps.  A wide or tall block takes one SVD
    with vectors."""
    m, ncols = e.shape
    if m * ncols == 0:
        return np.eye(ncols, dtype=np.complex128), 0.0
    svds = []  # (rows, cols, sigma, vh), vh None for a square block's values alone
    for rows, cols, _ in _split(e):
        k, nb = cols.shape
        if not nb:
            continue  # zero rows
        if not rows.shape[1]:
            # zero columns: each is an exact kernel direction, vh = [[1]]
            svds.append((rows, cols, np.zeros((k, 0)), np.ones((k, 1, 1))))
        elif rows.shape[1] == nb:
            svds.append((rows, cols, np.linalg.svd(e.gather(rows, cols), compute_uv=False), None))
        else:
            # only a wide block needs the V^dag rows past its singular values;
            # a tall one would form a full U that nothing reads
            _, sigma, vh = np.linalg.svd(e.gather(rows, cols), full_matrices=rows.shape[1] < nb)
            svds.append((rows, cols, sigma, vh))
    smax = max(float(sigma.max(initial=0.0)) for _, _, sigma, _ in svds)
    ref = max(smax, scale)
    cutoff, near = _kernel_cutoff(tol, ref), _kernel_residual_bound(tol, ref, max(m, ncols))
    kept = []  # (cols, vh, (block, row)): the kept rows of each vh
    for rows, cols, sigma, vh in svds:
        if vh is None:
            need = sigma[:, -1] <= near
            if not need.any():
                continue
            rows, cols = rows[need], cols[need]
            _, sigma, vh = np.linalg.svd(e.gather(rows, cols), full_matrices=False)
        # columns beyond the number of singular values are exact kernel directions
        keep = np.ones(cols.shape, dtype=bool)
        keep[:, : sigma.shape[1]] = sigma <= cutoff
        kept.append((cols, vh, np.nonzero(keep)))
    out = np.zeros((sum(block.size for *_, (block, _) in kept), ncols), dtype=np.complex128)
    start = 0
    for cols, vh, (block, row) in kept:
        out[start + np.arange(block.size)[:, None], cols[block]] = vh[block, row].conj()
        start += block.size
    return out, smax


def nullspace(mat: np.ndarray, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal rows spanning the numerical right nullspace of ``mat``.

    Keeps right-singular directions with singular value <= tol * sigma_max,
    with an absolute floor of KERNEL_FLOOR when sigma_max vanishes.  The
    matrix is split into the connected blocks of its nonzero pattern first;
    each block gets its own SVD (blocks of one shape in one stacked call),
    sigma_max is the largest singular value over all blocks, and each
    block's kernel directions (the conjugated V^dag rows) are scattered back
    to its columns.  A block with more columns than rows and a column with no
    nonzero entry contribute their exact kernel directions.  A square block
    gets its singular values first; its singular vectors are formed only
    when its smallest value is at most the cutoff plus 2 dim eps sigma_max,
    so a square block with no kernel forms no vector.  A matrix with no zero
    entry is one block.
    The matrix enters as the entries of its complex128 copy
    (``_Entries.of``), as the other blocked solvers read an ``Operator``.
    """
    return _nullspace_and_norm(_Entries.of(np.asarray(mat, dtype=np.complex128)), tol)[0]


def kernel_basis(a: Operator, tol: float = KERNEL_TOL) -> KernelBasis:
    """Orthonormal basis of the numerical kernel of ``a`` (``nullspace``).

    The blocks are split and gathered from the operator's entries, so one
    that ``tensor_sum`` built is never densified, and an operator made from
    a matrix gives the same bits as the ``tensor_sum`` of that matrix.
    Singular vectors are formed only for wide and tall blocks and for square
    blocks that may have a kernel (``nullspace``).  Certified
    (``KernelBasis.certify``): the rows are orthonormal, checked with one
    Gram matrix of all of them, and every basis vector's residual must stay
    within ``_kernel_residual_bound``, with sigma_max read off the singular
    values the kernel computation already has.  Both sigma_max and
    the measured residual are returned on the basis.
    """
    return KernelBasis.certify(a, *_nullspace_and_norm(a._entries, tol), tol, [np.s_[:, :]])


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
