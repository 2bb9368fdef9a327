"""Spectral triples and the Connes distance between states.

The distance between state functionals Psi and Psi' over an operator algebra
with Dirac operator D is

    sup { |Psi[A] - Psi'[A]| : A in the algebra, ||[D, A]|| <= 1 }.

The supremum may be restricted to Hermitian A without loss: the difference of
two states is a Hermitian functional, so the real part of any feasible A
achieves at least the same value with no larger commutator norm.  With a
Hermitian algebra basis {B_k} and real coefficients c the problem becomes

    maximize  g . c     with  g_k = Re Tr(B_k (rho - rho'))
    subject to h(c) <= 1,  h(c) = || sum_k c_k [D, B_k] ||,

a linear objective over a convex set.  h is a seminorm; directions in its
kernel with nonzero objective make the distance unbounded and are reported as
such rather than raised.  With D Hermitian, H_k = i [D, B_k] is Hermitian and
the constraint is -I <= M(c) = sum_k c_k H_k <= I.  Every Z with
Re Tr(H_k Z) = g_k bounds the distance: g . c = Re Tr(M(c) Z) <= ||M(c)|| ||Z||_*
(Iochum, Krajewski & Martinetti, J. Geom. Phys. 37 (2001)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, ShapeError, UsageError
from .opcore import (
    DIM_BUDGET,
    OPERATOR_SPACE,
    Operator,
    SubspaceBasis,
    _is_hermitian,
    commutator,
    nullspace,
    operator_norm,
)
from .states import StateFunctional

# The seminorm kernel is the nullspace (cutoff SEMINORM_KERNEL_TOL) of the
# map c -> [D, A(c)].  A kernel direction counts as commutant when its
# commutator norm is at most the larger of COMMUTANT_FRACTION * ||D|| and
# COMMUTANT_FLOOR.
SEMINORM_KERNEL_TOL = 1e-12
COMMUTANT_FRACTION = 1e-10
COMMUTANT_FLOOR = 1e-14
UNBOUNDED_OBJECTIVE_TOL = 1e-9
# An objective of norm at most ZERO_OBJECTIVE_TOL off the commutant gives
# distance 0.
ZERO_OBJECTIVE_TOL = 1e-14
# The solve stops once (upper_bound - value) <= GAP_TOL * value.  Weak
# duality gives upper_bound >= value; at an exact optimum roundoff in the two
# norms can put the computed bound up to DUALITY_ROUNDOFF (relative) below.
GAP_TOL = 1e-9
DUALITY_ROUNDOFF = 1e-14
# A maximizer's commutator norm may exceed 1 by at most this much
# (``DistanceResult`` refuses one past it); the ``distance`` scenario reports
# the excess as its constraint-on-boundary check.
BOUNDARY_SLACK = 1e-8
# How far a distance may lie from the value a scenario or criterion expects:
# the ``distance`` scenario's distance-matches-expected check and criterion 1.
EXPECTED_DISTANCE_TOL = 1e-6
# Interior-point steps: the share of the way to the cone boundary a step may
# go, and the number of Newton steps before the solve gives up certifying.
STEP_FRACTION = 0.95
MAX_NEWTON = 100
# The largest |D_ij| of a nonzero Dirac operator must lie in this range: the
# solve squares commutator entries in its SVDs and divides by their singular
# values, which overflow or underflow outside it.
DIRAC_SCALE_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class SpectralTriple:
    """Finite-dimensional spectral data: a Hermitian operator algebra spanned
    by ``algebra_basis`` and a Hermitian Dirac operator on the same space."""

    hilbert_dim: int
    algebra_basis: SubspaceBasis
    dirac: Operator

    def __post_init__(self):
        if self.dirac.dim != self.hilbert_dim:
            raise ShapeError("Dirac operator does not act on the stated space")
        if not self.dirac.is_hermitian():
            raise DomainError("Dirac operator must be Hermitian")
        low, high = DIRAC_SCALE_RANGE
        peak = float(np.abs(self.dirac.mat).max(initial=0.0))
        if peak and not low <= peak <= high:
            raise DomainError(f"largest Dirac entry {peak:.3e} lies outside [{low:g}, {high:g}]")
        if self.algebra_basis.kind != OPERATOR_SPACE:
            raise UsageError("algebra basis must be an operator-space basis")
        if self.algebra_basis.ambient_dim != self.hilbert_dim ** 2:
            raise ShapeError("algebra basis lives on the wrong operator space")
        side = self.hilbert_dim
        if not _is_hermitian(self.algebra_basis.vectors.reshape(-1, side, side)):
            raise DomainError("algebra basis elements must be Hermitian")


@dataclass(frozen=True)
class DistanceResult:
    """``value`` is attained by ``maximizer``; ``dual`` is a matrix Z with
    Re Tr(i [D, B_k] Z) = g_k, so ``upper_bound`` = ||Z||_* bounds the
    distance from above.  ``iterations`` counts Newton steps."""

    value: float
    maximizer: Operator
    constraint_norm: float
    unbounded: bool = False
    iterations: int = 0
    upper_bound: float = 0.0
    dual: Operator | None = None

    def __post_init__(self):
        if not self.unbounded and self.constraint_norm > 1.0 + BOUNDARY_SLACK:
            raise DomainError("maximizer violates the commutator constraint")

    @property
    def gap(self) -> float:
        """Relative duality gap (upper_bound - value) / value; 0 for distance 0."""
        return (self.upper_bound - self.value) / self.value if self.value else self.upper_bound

    def gap_within(self, bound: float) -> bool:
        """-DUALITY_ROUNDOFF <= gap <= bound: the certificate checked against
        ``bound``, GAP_TOL scaled by a check's tolerance scale."""
        return -DUALITY_ROUNDOFF <= self.gap <= bound

    @property
    def certified(self) -> bool:
        return self.gap_within(GAP_TOL)


def make_two_point_triple(lam: complex) -> SpectralTriple:
    """Two-point space: diagonal algebra with off-diagonal Dirac coupling."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("two-point Dirac coupling must be nonzero")
    return make_diagonal_triple(2, Operator(np.array([[0.0, np.conj(lam)], [lam, 0.0]])))


def make_diagonal_triple(n: int, dirac: Operator) -> SpectralTriple:
    """n-point space: real diagonal algebra with a supplied Hermitian Dirac.

    The algebra basis is an n x n^2 array, so n^2 may not exceed
    ``DIM_BUDGET`` (BudgetError).
    """
    if dirac.dim != n:
        raise ShapeError(f"Dirac dimension {dirac.dim} does not match {n} points")
    if n * n > DIM_BUDGET:
        raise BudgetError(f"{n} points give an algebra of dimension {n * n}, over the budget {DIM_BUDGET}")
    rows = np.zeros((n, n * n), dtype=np.complex128)
    for i in range(n):
        rows[i, i * n + i] = 1.0
    return SpectralTriple(n, SubspaceBasis(n * n, rows, OPERATOR_SPACE), dirac)


def _h(flat: np.ndarray, c: np.ndarray) -> float:
    """h(c) = ||sum_k c_k F_k|| for a stack F given by ``flat``, row k the
    row-major vec of F_k."""
    side = math.isqrt(flat.shape[1])
    return float(np.linalg.svd((c @ flat).reshape(side, side), compute_uv=False)[0])


def _re_traces(hs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(hs[i] y) for every i, or Re Tr(hs[i] y[j]) at [i, j] for a
    stack y, with Hermitian hs (m, n, n): Tr(hs[i] y) is the sum of
    conj(hs[i]) * y entry by entry, so each is a real dot product of the
    float views, and a stack of them is one matrix product."""
    rows = hs.reshape(hs.shape[0], -1).view(np.float64)
    return rows @ y.reshape(*y.shape[:-2], -1).view(np.float64).T


def _schur(hs: np.ndarray, x: np.ndarray, sinv: np.ndarray) -> np.ndarray:
    """The Newton system's Schur complement sum_b Re Tr(A_i,b X_b A_j,b
    S_b^-1) for A_j = (hs[j], -hs[j]): the signs cancel, so X_b hs[j] S_b^-1
    of both blocks add into one stack over j, formed one block at a time."""
    p = x[0] @ hs @ sinv[0]
    p += x[1] @ hs @ sinv[1]
    return _re_traces(hs, p)


def _corrected_dual(herm: np.ndarray, t: np.ndarray, g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Z plus the least-norm correction along the H_k^dagger, within the
    span of the columns of t, that makes Re Tr(H_k Z) = g_k.  Row k of
    ``herm`` is the row-major vec of H_k, so Re Tr(H_k Z) pairs it with
    vec(Z^T), and sum_k u_k H_k^dagger is the conjugate transpose of
    sum_k u_k H_k for real u."""
    resid = g - (herm @ z.T.reshape(-1)).real
    return z + ((t @ (t.T @ resid)) @ herm).reshape(z.shape).conj().T


def _max_steps(li: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """The largest alpha in (0, 1] with x + alpha dx positive semidefinite,
    and the same for s + alpha ds, for positive definite blocks (x0, x1, s0,
    s1) given by the inverses ``li`` of their Cholesky factors and the stack
    d = (dx0, dx1, ds0, ds1)."""
    low = np.linalg.eigvalsh(li @ d @ li.conj().transpose(0, 2, 1))[:, 0].reshape(2, 2).min(axis=1)
    return tuple(min(1.0, -1.0 / v) if v < 0 else 1.0 for v in low.tolist())


def _newton_steps(hs: np.ndarray, b: np.ndarray):
    """Primal-dual interior-point iterates (Mehrotra predictor-corrector on
    the HKM direction; Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim.
    6 (1996)) for the pair, with Frobenius-orthonormal Hermitian ``hs``,

        max b . w   s.t.  S = (I - M(w), I + M(w)) >= 0,  M(w) = sum_j w_j hs[j]
        min Tr(X1 + X2)   s.t.  Tr(hs[j] (X1 - X2)) = b_j,  X1, X2 >= 0.

    Yields (w, X1 - X2): first the feasible pair (b, z0 = sum_j b_j hs[j]),
    then the iterate after each Newton step from w = 0, X1 - X2 = z0.
    Every sum over j is a matrix product with the (m, n^2) view of hs.
    """
    m, n = hs.shape[:2]
    flat = hs.reshape(m, n * n)
    eye = np.eye(n)
    signs = np.array([-1.0, 1.0])[:, None, None]  # S = eye + signs * M(w)

    def field(v):  # M(v)
        return (v @ flat).reshape(n, n)

    def inner(y):  # Re Tr(A_j y) for A_j = (hs[j], -hs[j]) and a block pair y
        return _re_traces(hs, y[0] - y[1])

    z0 = field(b)
    yield b, z0
    ev, vec = np.linalg.eigh(z0)
    x = np.stack([(vec * (np.maximum(sign * ev, 0.0) + 1.0)) @ vec.conj().T for sign in (1.0, -1.0)])
    w = np.zeros(b.size)
    for _ in range(MAX_NEWTON):
        s = eye + signs * field(w)
        try:
            # x and s factored together; the predictor and the corrector
            # both step from them
            li = np.linalg.inv(np.linalg.cholesky(np.concatenate([x, s])))
            sinv = li[2:].conj().transpose(0, 2, 1) @ li[2:]
            xs = x @ s
            mu = np.vdot(s, x).real / (2 * n)
            schur = _schur(hs, x, sinv)
            rp = b - inner(x)

            def direction(rc):
                dw = np.linalg.solve(schur, rp - inner(rc @ sinv))
                ds = signs * field(dw)
                dx = (rc - x @ ds) @ sinv
                return dw, ds, 0.5 * (dx + dx.conj().transpose(0, 2, 1))

            _, ds, dx = direction(-xs)
            ap, ad = _max_steps(li, np.concatenate([dx, ds]))
            sigma = (np.vdot(s + ad * ds, x + ap * dx).real / (2 * n * mu)) ** 3
            dw, ds, dx = direction(sigma * mu * eye - xs - dx @ ds)
            ap, ad = (STEP_FRACTION * a for a in _max_steps(li, np.concatenate([dx, ds])))
        except np.linalg.LinAlgError:
            return
        x = x + ap * dx
        w = w + ad * dw
        yield w, x[0] - x[1]


def connes_distance(
    triple: SpectralTriple,
    psi: StateFunctional,
    psi_prime: StateFunctional,
) -> DistanceResult:
    """Distance between two states, certified by a dual bound.

    On the orthogonal complement of the seminorm kernel the coefficients are
    changed so that the H_j are Frobenius-orthonormal, and the interior-point
    method runs until the attained value and ||Z||_* agree to ``GAP_TOL``.
    """
    if psi.rho.dim != triple.hilbert_dim or psi_prime.rho.dim != triple.hilbert_dim:
        raise ShapeError("states do not act on the triple's Hilbert space")
    # The algebra basis B_k and the commutators [D, B_k] as (k, n^2) arrays
    # whose row k is the row-major vec of its matrix.
    n = triple.hilbert_dim
    basis = triple.algebra_basis.vectors
    k = basis.shape[0]
    mats = basis.reshape(k, n, n)
    cflat = (triple.dirac.mat @ mats - mats @ triple.dirac.mat).reshape(k, n * n)
    zero = Operator.zeros(n)
    delta = psi.rho.op.mat - psi_prime.rho.op.mat
    g = (basis @ delta.T.reshape(-1)).real  # Re Tr(B_k delta)

    def build(c: np.ndarray) -> Operator:
        return Operator((c @ basis).reshape(n, n))

    if float(np.abs(g).max(initial=0.0)) == 0.0:
        return DistanceResult(0.0, zero, 0.0, dual=zero)

    # Split off the seminorm kernel: flatten the real-linear map c -> [D, A(c)].
    dnorm = operator_norm(triple.dirac)
    stacked = np.vstack([cflat.real.T, cflat.imag.T])
    ker = nullspace(stacked, tol=SEMINORM_KERNEL_TOL).real
    genuine = []
    for row in ker:
        if _h(cflat, row) <= max(COMMUTANT_FRACTION * dnorm, COMMUTANT_FLOOR):
            genuine.append(row)
    for row in genuine:
        if abs(float(g @ row)) > UNBOUNDED_OBJECTIVE_TOL:
            direction = build(row if g @ row > 0 else -row)
            return DistanceResult(
                math.inf, direction, _h(cflat, row), unbounded=True, upper_bound=math.inf
            )
    complement = np.eye(k)
    if genuine:
        kermat = np.array(genuine)
        g = g - kermat.T @ (kermat @ g)
        complement = np.linalg.svd(kermat)[2][len(genuine):]
    if float(np.linalg.norm(g)) <= ZERO_OBJECTIVE_TOL:
        return DistanceResult(0.0, zero, 0.0, dual=zero)

    # Coefficients c = T w make the H_j = sum_k T_kj H_k Frobenius-orthonormal.
    _, sigma, vt = np.linalg.svd(stacked @ complement.T, full_matrices=False)
    t = complement.T @ (vt.T / sigma)
    herm = 1j * cflat  # rows of H_k = i [D, B_k]
    hs = (t.T @ herm).reshape(-1, n, n)
    hs = 0.5 * (hs + hs.conj().transpose(0, 2, 1))  # D is Hermitian only to HERMITICITY_TOL
    b = t.T @ g
    scale = float(np.linalg.norm(b))

    for iterations, (w, zhat) in enumerate(_newton_steps(hs, b / scale)):
        c = t @ w
        hval = _h(cflat, c)
        value = float(g @ c) / hval
        z = _corrected_dual(herm, t, g, scale * zhat)
        upper = float(np.linalg.svd(z, compute_uv=False).sum())
        if upper - value <= GAP_TOL * value:
            break
    maximizer = build(c / hval)
    final_norm = float(operator_norm(commutator(triple.dirac, maximizer)))
    return DistanceResult(
        value, maximizer, final_norm, iterations=iterations, upper_bound=upper, dual=Operator(z)
    )
