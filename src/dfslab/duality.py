"""Integer duality group of toroidal backgrounds and Narain charge lattices.

A background is a pair (metric, coupling): a symmetric positive definite
matrix and an antisymmetric matrix on the same N directions.  The combination
E = metric + coupling transforms under integer 2N x 2N matrices g satisfying
g^T J g = J (J the antidiagonal identity pairing) by the fractional-linear
rule E -> (aE + b)(cE + d)^-1.  Momentum and winding charges transform by an
integer linear map, and the lattice energy

    H(m, w) = 1/2 (m + xi w)^T eta^-1 (m + xi w) + 1/2 w^T eta w

is invariant when background and charges are mapped together.

Besides the matrix group there is a sign swap flipping the coupling and the
winding charges; it normalizes the matrix group, so elements carry the matrix
together with a swap flag and compose semidirectly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError, DomainError, ShapeError, UsageError
from .opcore import SYMMETRY_TOL, _capped_power, _is_hermitian, _size_text

INT64_MAX = int(np.iinfo(np.int64).max)
# Largest number of charges one lattice sweep may hold.  A sweep keeps a few
# (count, 2n) arrays alive at once: at n = 2 and box 15 (923,521 charges)
# max_energy_shift peaks at about 150 MB.
CHARGE_BUDGET = 2**20


def _check_square(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} entries must be finite")
    return arr


def _check_spd(arr, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A float copy of ``arr`` and its lower Cholesky factor: ``arr`` must be
    a finite square matrix, symmetric by the shared rule (``_is_hermitian``
    with SYMMETRY_TOL), whose Cholesky factorization succeeds."""
    eta = _check_square(np.array(arr, dtype=float), name)
    if not _is_hermitian(eta, SYMMETRY_TOL):
        raise DomainError(f"{name} must be symmetric")
    return eta, _cholesky(eta, name)


def _cholesky(eta: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor of ``eta``, read from its lower triangle."""
    try:
        return np.linalg.cholesky(eta)
    except np.linalg.LinAlgError:
        raise DomainError(f"{name} must be positive definite") from None


def _singular(mat: np.ndarray) -> bool:
    """Singular to working precision: scale-free, as E = 1e-5 I is as usable
    as E = I, so the condition number, not the size of the determinant."""
    return bool(np.linalg.cond(mat) > 1.0 / np.finfo(float).eps)


def _int_matrix(arr) -> np.ndarray:
    """``arr`` as int64: DomainError unless every entry is a finite integer
    in [-2^63, 2^63), the range ``astype`` keeps without wrapping."""
    arr = np.asarray(arr)
    if not np.issubdtype(arr.dtype, np.integer):
        if not (np.isfinite(arr).all() and np.array_equal(arr, np.rint(arr))):
            raise DomainError("duality matrices must have integer entries")
        # -2^63 and 2^63 are exact floats
        if np.any((arr < -(2.0 ** 63)) | (arr >= 2.0 ** 63)):
            raise DomainError("duality matrix entries must lie in the int64 range")
    return arr.astype(np.int64)


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for int64 arrays, exact: DomainError unless max |a_ik|
    times the largest column sum of |b|, which bounds every entry and every
    partial sum of the product, stays within the int64 range."""
    reach = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    # Python ints, so the column sums are exact however large
    column = max((sum(map(abs, col)) for col in b.T.tolist()), default=0)
    if reach * column > INT64_MAX:
        raise DomainError("integer duality product would leave the int64 range")
    return a @ b


def _int_det(a: np.ndarray) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in a]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def pairing_matrix(n: int) -> np.ndarray:
    """The antidiagonal block pairing used by the g^T J g = J condition."""
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    j[:n, n:] = np.eye(n, dtype=np.int64)
    j[n:, :n] = np.eye(n, dtype=np.int64)
    return j


def _charge_signs(n: int) -> np.ndarray:
    """The diagonal of the charge signature diag(1_n, -1_n)."""
    return np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)])


def _conjugate_by_signs(g: np.ndarray) -> np.ndarray:
    """S g S for the charge signature S, exactly: each entry times +-1."""
    s = _charge_signs(g.shape[0] // 2)
    return g * np.outer(s, s)


@dataclass(frozen=True)
class Background:
    """Constant metric and antisymmetric coupling on N compact directions.

    The one place a metric is judged: it must pass ``_check_spd`` and not be
    ``_singular``.  Its Cholesky factor ``_chol`` is kept, and ``_inverse``
    and ``_e_inverse`` are computed once, when first read, so code that
    builds from a background checks nothing again and forms neither inverse
    again."""

    metric: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        eta, chol = _check_spd(self.metric, "metric")
        if _singular(eta):
            raise DomainError("metric must be nonsingular to working precision")
        xi = _check_square(np.array(self.coupling, dtype=float), "coupling")
        if eta.shape != xi.shape:
            raise ShapeError("metric and coupling must have matching shapes")
        if not _is_hermitian(1j * xi, SYMMETRY_TOL):
            raise DomainError("coupling must be antisymmetric")
        self._keep(eta, xi, chol)

    def _keep(self, eta, xi, chol) -> None:
        for name, arr in (("metric", eta), ("coupling", xi), ("_chol", chol)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _derived(cls, e: np.ndarray, what: str) -> "Background":
        """The background with E = ``e``, which ``what`` computed from a
        checked one: its parts are exactly (anti)symmetric, so only the
        overflow of ``e`` and the metric's factorization can fail."""
        if not np.isfinite(e).all():
            raise DomainError(f"{what} overflows on this background")
        out = object.__new__(cls)
        eta = 0.5 * (e + e.T)
        out._keep(eta, 0.5 * (e - e.T), _cholesky(eta, "metric"))
        return out

    @cached_property
    def _inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """The inverse metric, exactly symmetric, and its lower Cholesky
        factor: the lower triangle of the computed inverse, the one the
        factor reads, mirrored onto the upper."""
        raw = np.linalg.inv(self.metric)
        eta_l = np.tril(raw) + np.tril(raw, -1).T
        return eta_l, _cholesky(eta_l, "inverse metric")

    @cached_property
    def _e_inverse(self) -> np.ndarray:
        """E^-1 for E = metric + coupling, the image of E under the
        coupling inversion."""
        inv = np.linalg.inv(self.e_matrix)
        if not np.isfinite(inv).all():
            raise DomainError("dual metric overflows on this background")
        return inv

    @property
    def n(self) -> int:
        return self.metric.shape[0]

    @property
    def e_matrix(self) -> np.ndarray:
        return self.metric + self.coupling

    @property
    def k_minus(self) -> np.ndarray:
        return self.metric - self.coupling


@dataclass(frozen=True)
class ONNElement:
    """An integer matrix with g^T J g = J, plus a coupling-sign swap flag."""

    matrix: np.ndarray
    swap: bool = False

    def __post_init__(self):
        g = _int_matrix(self.matrix).copy()
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise ShapeError("duality matrix must be square of even size")
        j = pairing_matrix(g.shape[0] // 2)
        if not np.array_equal(g.T @ j @ g, j):
            raise DomainError("matrix does not preserve the integer pairing")
        object.__setattr__(self, "matrix", g)
        g.setflags(write=False)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray, swap: bool) -> "ONNElement":
        """An element that keeps ``matrix`` without the boundary check: the
        caller vouches that it is a new int64 array with g^T J g = J, as the
        product or inverse of elements is."""
        out = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(out, "matrix", matrix)
        object.__setattr__(out, "swap", swap)
        return out

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def blocks(self):
        n = self.n
        g = self.matrix
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]

    def compose(self, other: "ONNElement") -> "ONNElement":
        """Group product; ``self`` acts after ``other``.  DomainError when
        the product's entries could leave the int64 range.

        The product is not checked again: (g h)^T J (g h) = J when g and h
        preserve J, S h S preserves J when h does (S J S = -J), and
        ``_int_matmul`` is exact."""
        if self.n != other.n:
            raise ShapeError("cannot compose elements of different rank")
        mid = other.matrix if not self.swap else _conjugate_by_signs(other.matrix)
        return ONNElement._unchecked(_int_matmul(self.matrix, mid), self.swap ^ other.swap)

    def inverse(self) -> "ONNElement":
        """J g^T J, the inverse of g as g^T J g = J, conjugated by the
        signature for a swap; exact, so not checked again."""
        j = pairing_matrix(self.n)
        inv = j @ self.matrix.T @ j
        if self.swap:
            inv = _conjugate_by_signs(inv)
        return ONNElement._unchecked(inv, self.swap)

    def det(self) -> int:
        return _int_det(self.matrix)


def factorized_inversion(n: int, directions) -> ONNElement:
    """Inversion of the chosen directions; all of them inverts the full torus."""
    dirs = sorted(set(int(d) for d in directions))
    if not dirs:
        raise UsageError("need at least one direction to invert")
    if dirs[0] < 0 or dirs[-1] >= n:
        raise DomainError(f"directions must lie in [0, {n})")
    e = np.zeros((n, n), dtype=np.int64)
    for d in dirs:
        e[d, d] = 1
    ident = np.eye(n, dtype=np.int64)
    g = np.block([[ident - e, e], [e, ident - e]])
    return ONNElement(g)


def coupling_shift(theta) -> ONNElement:
    """Integer shift of the antisymmetric coupling."""
    th = _int_matrix(theta)
    if not np.array_equal(th, -th.T):
        raise DomainError("shift matrix must be integer antisymmetric")
    n = th.shape[0]
    ident = np.eye(n, dtype=np.int64)
    zero = np.zeros((n, n), dtype=np.int64)
    return ONNElement(np.block([[ident, th], [zero, ident]]))


def basis_change(a) -> ONNElement:
    """Torus relabeling by an integer matrix with determinant +-1."""
    a = _int_matrix(a)
    _check_square(a, "basis change")
    det = _int_det(a)
    if det not in (1, -1):
        raise DomainError(f"basis change must be unimodular, got determinant {det}")
    inv = np.rint(np.linalg.inv(a.astype(float))).astype(np.int64)
    if not np.array_equal(a @ inv, np.eye(a.shape[0], dtype=np.int64)):
        raise DomainError("basis change inverse is not integer")
    n = a.shape[0]
    zero = np.zeros((n, n), dtype=np.int64)
    return ONNElement(np.block([[a.T, zero], [zero, inv]]))


def coupling_swap(n: int) -> ONNElement:
    """Sign flip of the coupling (and of the winding charges)."""
    return ONNElement(np.eye(2 * n, dtype=np.int64), swap=True)


def onn_generators(n: int) -> list[ONNElement]:
    """A convenient generating set: per-direction inversions, elementary
    coupling shifts, neighbor transpositions, and the coupling swap."""
    gens = [factorized_inversion(n, [i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            th = np.zeros((n, n), dtype=np.int64)
            th[i, j] = 1
            th[j, i] = -1
            gens.append(coupling_shift(th))
    for i in range(n - 1):
        perm = np.eye(n, dtype=np.int64)
        perm[[i, i + 1]] = perm[[i + 1, i]]
        gens.append(basis_change(perm))
    gens.append(coupling_swap(n))
    return gens


def onn_apply(element: ONNElement, background: Background) -> Background:
    """Fractional-linear action on E = metric + coupling.

    ``charge_matrix`` gives the matching integer charge map: the Narain
    energy of (background, charges) equals that of the transformed pair for
    every group element.
    """
    if element.n != background.n:
        raise ShapeError("element rank does not match the background")
    e = background.e_matrix
    if element.swap:
        e = e.T
    a, b, c, d = element.blocks()
    denom = c.astype(float) @ e + d.astype(float)
    if _singular(denom):
        raise DomainError("duality action is singular on this background")
    new_e = (a.astype(float) @ e + b.astype(float)) @ np.linalg.inv(denom)
    return Background._derived(new_e, "duality action")


def charge_matrix(element: ONNElement) -> np.ndarray:
    """Integer map acting on stacked charges (momenta above windings)."""
    rho = _conjugate_by_signs(element.matrix)
    if element.swap:
        rho = rho * _charge_signs(element.n)
    return rho


def transform_charge_stack(element: ONNElement, charges) -> np.ndarray:
    """Apply the charge map to a (k, 2n) integer stack, one charge per row;
    exact integer arithmetic, or DomainError when it could leave the int64
    range."""
    return _int_matmul(np.asarray(charges), charge_matrix(element).T)


def charge_box(n: int, box: int) -> np.ndarray:
    """Every charge with entries in [-box, box] as one (count, 2n) int64
    stack, momenta first, rows in lexicographic order.

    The count (2 box + 1)^(2n) is checked against CHARGE_BUDGET before
    anything is allocated, and never formed past CHARGE_BUDGET squared.
    """
    box = operator.index(box)
    if box < 0:
        raise DomainError("box must be nonnegative")
    count = _capped_power(2 * box + 1, 2 * n, CHARGE_BUDGET)
    if count is None:
        raise BudgetError(
            f"a charge box with box {_size_text(box)} on {2 * n} charge entries "
            f"exceeds the budget of {CHARGE_BUDGET}"
        )
    if count > CHARGE_BUDGET:
        raise BudgetError(
            f"a charge box of {count} charges exceeds the budget of {CHARGE_BUDGET}"
        )
    grid = np.arange(-box, box + 1, dtype=np.int64)
    mesh = np.meshgrid(*([grid] * (2 * n)), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def narain_energies(background: Background, charges) -> np.ndarray:
    """Lattice energies H(m, w) of a (k, 2n) charge stack, momenta above
    windings as in charge_matrix."""
    n = background.n
    q = np.asarray(charges)
    if q.ndim != 2 or q.shape[1] != 2 * n:
        raise ShapeError(f"charges must be a stack of rows of length {2 * n}")
    m = q[:, :n].astype(float)
    w = q[:, n:].astype(float)
    eta = background.metric
    shifted = m + w @ background.coupling.T
    solved = np.linalg.solve(eta, shifted.T)
    energies = 0.5 * np.einsum("ki,ik->k", shifted, solved) + 0.5 * np.einsum(
        "ki,ki->k", w @ eta, w
    )
    if not np.isfinite(energies).all():
        raise DomainError("lattice energies overflow on this background")
    return energies


def max_energy_shift(element: ONNElement, background: Background, charges) -> float:
    """Largest change of the lattice energy over a (k, 2n) charge stack when
    the background and the charges move together under ``element``; zero up
    to roundoff for a duality."""
    return _energy_shift(element, background, charges, 1.0)[0]


# The energy-shift bound of ``_energy_shift``, shared by the ``duality``
# scenario's narain-energy-invariance check and criterion 11.
ENERGY_SHIFT_TOL = 1e-10


def _energy_shift(element: ONNElement, background: Background, charges, tol_scale: float) -> tuple[float, float, Background]:
    """``max_energy_shift`` together with the bound it is checked against,
    ENERGY_SHIFT_TOL * tol_scale, relative to the largest |energy| of the
    charges on ``background`` when that exceeds 1, since roundoff in the
    energies grows with them; and the image onn_apply(element, background)
    the shift was measured on."""
    image = onn_apply(element, background)
    before = narain_energies(background, charges)
    after = narain_energies(image, transform_charge_stack(element, charges))
    shift = float(np.abs(before - after).max(initial=0.0))
    bound = ENERGY_SHIFT_TOL * tol_scale * max(1.0, float(np.abs(before).max(initial=0.0)))
    return shift, bound, image


def dual_metric(background: Background) -> np.ndarray:
    """Metric seen by the inverted background: the symmetric part of E^-1,
    exactly symmetric.  With zero coupling it is the inverse of the metric,
    and in general the inverse of G - B G^-1 B (Seiberg and Witten,
    hep-th/9908142)."""
    inv = background._e_inverse
    # halved before the sum, which then cannot overflow
    return 0.5 * inv + 0.5 * inv.T


def normal_modes(kinetic: np.ndarray, potential: np.ndarray) -> np.ndarray:
    """Frequencies of 1/2 p^T A p + 1/2 x^T B x, ascending.

    Both matrices must pass ``_check_spd``.  The Cholesky factor of the
    kinetic matrix reduces the generalized problem to an ordinary symmetric
    one.
    """
    a, ell = _check_spd(kinetic, "kinetic matrix")
    b, _ = _check_spd(potential, "potential matrix")
    if a.shape != b.shape:
        raise ShapeError("kinetic and potential matrices must match")
    sym = ell.T @ b @ ell
    vals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return np.sqrt(np.clip(vals, 0.0, None))
