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

import numpy as np

from .errors import BudgetError, DomainError, ShapeError, UsageError

SYMMETRY_TOL = 1e-12
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


def _check_spd(arr, name: str) -> np.ndarray:
    """A float copy of ``arr``: a finite square matrix, symmetric to
    SYMMETRY_TOL (absolute), whose smallest eigenvalue is above 0."""
    eta = _check_square(np.array(arr, dtype=float), name)
    if np.abs(eta - eta.T).max(initial=0.0) > SYMMETRY_TOL:
        raise DomainError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(eta).min() <= 0:
        raise DomainError(f"{name} must be positive definite")
    return eta


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
    column = max((sum(abs(int(x)) for x in col) for col in b.T), default=0)
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


def _charge_signature(n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(np.int64)


@dataclass(frozen=True)
class Background:
    """Constant metric and antisymmetric coupling on N compact directions."""

    metric: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        eta = _check_spd(self.metric, "metric")
        xi = _check_square(np.array(self.coupling, dtype=float), "coupling")
        if eta.shape != xi.shape:
            raise ShapeError("metric and coupling must have matching shapes")
        if np.abs(xi + xi.T).max(initial=0.0) > SYMMETRY_TOL:
            raise DomainError("coupling must be antisymmetric")
        object.__setattr__(self, "metric", eta)
        object.__setattr__(self, "coupling", xi)
        eta.setflags(write=False)
        xi.setflags(write=False)

    @property
    def n(self) -> int:
        return self.metric.shape[0]

    @property
    def e_matrix(self) -> np.ndarray:
        return self.metric + self.coupling

    @property
    def k_plus(self) -> np.ndarray:
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

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def blocks(self):
        n = self.n
        g = self.matrix
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]

    def compose(self, other: "ONNElement") -> "ONNElement":
        """Group product; ``self`` acts after ``other``.  DomainError when
        the product's entries could leave the int64 range."""
        if self.n != other.n:
            raise ShapeError("cannot compose elements of different rank")
        sig = _charge_signature(self.n)
        mid = other.matrix if not self.swap else sig @ other.matrix @ sig
        return ONNElement(_int_matmul(self.matrix, mid), self.swap ^ other.swap)

    def inverse(self) -> "ONNElement":
        j = pairing_matrix(self.n)
        inv = j @ self.matrix.T @ j
        if self.swap:
            sig = _charge_signature(self.n)
            inv = sig @ inv @ sig
        return ONNElement(inv, self.swap)

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
    # scale-free, as E = 1e-5 I is as usable as E = I: the condition number
    # of cE + d, not the size of its determinant
    if np.linalg.cond(denom) > 1.0 / np.finfo(float).eps:
        raise DomainError("duality action is singular on this background")
    new_e = (a.astype(float) @ e + b.astype(float)) @ np.linalg.inv(denom)
    if not np.isfinite(new_e).all():
        raise DomainError("duality action overflows on this background")
    return Background(0.5 * (new_e + new_e.T), 0.5 * (new_e - new_e.T))


def charge_matrix(element: ONNElement) -> np.ndarray:
    """Integer map acting on stacked charges (momenta above windings)."""
    sig = _charge_signature(element.n)
    rho = sig @ element.matrix @ sig
    if element.swap:
        rho = rho @ sig
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
    anything is allocated.
    """
    box = operator.index(box)
    if box < 0:
        raise DomainError("box must be nonnegative")
    count = (2 * box + 1) ** (2 * n)
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


def _energy_shift(element: ONNElement, background: Background, charges, tol_scale: float) -> tuple[float, float]:
    """``max_energy_shift`` together with the bound it is checked against:
    1e-10 * tol_scale, relative to the largest |energy| of the charges on
    ``background`` when that exceeds 1, since roundoff in the energies
    grows with them."""
    before = narain_energies(background, charges)
    after = narain_energies(
        onn_apply(element, background), transform_charge_stack(element, charges)
    )
    shift = float(np.abs(before - after).max(initial=0.0))
    return shift, 1e-10 * tol_scale * max(1.0, float(np.abs(before).max(initial=0.0)))


def dual_metric(background: Background) -> np.ndarray:
    """Metric seen by the inverted background.

    Equals the symmetric part of E^-1; with zero coupling it is the plain
    matrix inverse of the metric.
    """
    eta = background.metric
    prod = background.k_plus @ np.linalg.solve(eta, background.k_minus)
    dual = np.linalg.inv(prod)
    if not np.isfinite(dual).all():
        raise DomainError("dual metric overflows on this background")
    return dual


def normal_modes(kinetic: np.ndarray, potential: np.ndarray) -> np.ndarray:
    """Frequencies of 1/2 p^T A p + 1/2 x^T B x, ascending.

    Uses the Cholesky factor of the kinetic matrix to reduce the generalized
    problem to an ordinary symmetric one.
    """
    a = _check_square(np.asarray(kinetic, dtype=float), "kinetic")
    b = _check_square(np.asarray(potential, dtype=float), "potential")
    if a.shape != b.shape:
        raise ShapeError("kinetic and potential matrices must match")
    if np.abs(a - a.T).max(initial=0.0) > 1e-10 or np.abs(b - b.T).max(initial=0.0) > 1e-10:
        raise DomainError("mode matrices must be symmetric")
    if np.linalg.eigvalsh(b).min() <= 0:
        raise DomainError("potential matrix must be positive definite")
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DomainError("kinetic matrix must be positive definite") from exc
    sym = ell.T @ b @ ell
    vals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return np.sqrt(np.clip(vals, 0.0, None))
