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
        for b in self.algebra_basis.matrices():
            if not b.is_hermitian():
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


def _seminorm_data(triple: SpectralTriple):
    basis_mats = [b.mat for b in triple.algebra_basis.matrices()]
    commutators = np.array([commutator(triple.dirac, Operator(b)).mat for b in basis_mats])
    return basis_mats, commutators


def _h(commutators: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.norm(np.tensordot(c, commutators, axes=1), 2))


def _max_step(li: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha in (0, 1] with every block of x + alpha dx positive
    semidefinite, for a stack x of positive definite blocks given by the
    inverses ``li`` of its Cholesky factors."""
    low = float(np.linalg.eigvalsh(li @ dx @ li.conj().transpose(0, 2, 1)).min())
    return min(1.0, -1.0 / low) if low < 0 else 1.0


def _newton_steps(hs: np.ndarray, b: np.ndarray):
    """Primal-dual interior-point iterates (Mehrotra predictor-corrector on
    the HKM direction; Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim.
    6 (1996)) for the pair, with Frobenius-orthonormal Hermitian ``hs``,

        max b . w   s.t.  S = (I - M(w), I + M(w)) >= 0,  M(w) = sum_j w_j hs[j]
        min Tr(X1 + X2)   s.t.  Tr(hs[j] (X1 - X2)) = b_j,  X1, X2 >= 0.

    Yields (w, X1 - X2): first the feasible pair (b, z0 = sum_j b_j hs[j]),
    then the iterate after each Newton step from w = 0, X1 - X2 = z0.
    """
    n = hs.shape[1]
    eye = np.eye(n)
    # A_j = diag(hs[j], -hs[j]) as a stack of its two blocks, shape (2, m, n, n).
    ahs = np.stack([hs, -hs])
    z0 = np.tensordot(b, hs, axes=1)
    yield b, z0
    ev, vec = np.linalg.eigh(z0)
    x = np.stack([(vec * (np.maximum(sign * ev, 0.0) + 1.0)) @ vec.conj().T for sign in (1.0, -1.0)])
    w = np.zeros(b.size)

    def inner(y):  # <A_j, y> for a block stack y
        return np.einsum("bjac,bca->j", ahs, y).real

    for _ in range(MAX_NEWTON):
        s = eye - np.tensordot(w, ahs, axes=(0, 1))
        try:
            sinv = np.linalg.inv(s)
            xs = x @ s
            mu = np.vdot(s, x).real / (2 * n)
            schur = np.einsum("biac,bjca->ij", ahs, x[:, None] @ ahs @ sinv[:, None]).real
            rp = b - inner(x)

            def direction(rc):
                dw = np.linalg.solve(schur, rp - inner(rc @ sinv))
                ds = -np.tensordot(dw, ahs, axes=(0, 1))
                dx = (rc - x @ ds) @ sinv
                return dw, ds, 0.5 * (dx + dx.conj().transpose(0, 2, 1))

            # the predictor and the corrector both step from this x and s
            lx, ls = (np.linalg.inv(np.linalg.cholesky(m)) for m in (x, s))
            _, ds, dx = direction(-xs)
            ap, ad = _max_step(lx, dx), _max_step(ls, ds)
            sigma = (np.vdot(s + ad * ds, x + ap * dx).real / (2 * n * mu)) ** 3
            dw, ds, dx = direction(sigma * mu * eye - xs - dx @ ds)
            ap = STEP_FRACTION * _max_step(lx, dx)
            ad = STEP_FRACTION * _max_step(ls, ds)
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
    basis_mats, commutators = _seminorm_data(triple)
    k = len(basis_mats)
    zero = Operator.zeros(triple.hilbert_dim)
    delta = psi.rho.op.mat - psi_prime.rho.op.mat
    g = np.array([np.real(np.trace(b @ delta)) for b in basis_mats])

    def build(c: np.ndarray) -> Operator:
        return Operator(np.tensordot(c, basis_mats, axes=1))

    if float(np.abs(g).max(initial=0.0)) == 0.0:
        return DistanceResult(0.0, zero, 0.0, dual=zero)

    # Split off the seminorm kernel: flatten the real-linear map c -> [D, A(c)].
    dnorm = operator_norm(triple.dirac)
    flat = commutators.reshape(k, -1).T
    stacked = np.vstack([flat.real, flat.imag])
    ker = nullspace(stacked, tol=SEMINORM_KERNEL_TOL).real
    genuine = []
    for row in ker:
        if _h(commutators, row) <= max(COMMUTANT_FRACTION * dnorm, COMMUTANT_FLOOR):
            genuine.append(row)
    for row in genuine:
        if abs(float(g @ row)) > UNBOUNDED_OBJECTIVE_TOL:
            direction = build(row if g @ row > 0 else -row)
            return DistanceResult(
                math.inf, direction, _h(commutators, row), unbounded=True, upper_bound=math.inf
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
    herm = 1j * commutators
    hs = np.tensordot(t.T, herm, axes=1)
    hs = 0.5 * (hs + hs.conj().transpose(0, 2, 1))  # D is Hermitian only to HERMITICITY_TOL
    b = t.T @ g
    scale = float(np.linalg.norm(b))

    for iterations, (w, zhat) in enumerate(_newton_steps(hs, b / scale)):
        c = t @ w
        hval = _h(commutators, c)
        value = float(g @ c) / hval
        # Least-norm correction along the H_k^dagger makes Re Tr(H_k Z) = g_k.
        z = scale * zhat
        resid = g - np.einsum("kab,ba->k", herm, z).real
        z = z + np.tensordot(t @ (t.T @ resid), herm.conj().transpose(0, 2, 1), axes=1)
        upper = float(np.linalg.svd(z, compute_uv=False).sum())
        if upper - value <= GAP_TOL * value:
            break
    maximizer = build(c / hval)
    final_norm = float(operator_norm(commutator(triple.dirac, maximizer)))
    return DistanceResult(
        value, maximizer, final_norm, iterations=iterations, upper_bound=upper, dual=Operator(z)
    )
