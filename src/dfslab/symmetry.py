"""Finite symmetry groups generated by Hermitian charges.

A model's symmetry is specified by Hermitian generators Theta_g; the group is
the multiplicative closure of the unitaries exp(i Theta_g).  Averaging over
the closure projects onto the invariant sector, symmetrizes Hamiltonians, and
(through the commutant of the generators) exposes the subalgebra that never
mixes charge sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonClosureError, ShapeError, UsageError
from .opcore import (
    Operator,
    SubspaceBasis,
    commutant_basis,
    nullspace,
    unitary_exp,
)

MAX_GROUP_ORDER = 10_000
DEDUP_DECIMALS = 8
# Largest entry of U^2 - 1 or [U_a, U_b] that symmetrize_factorized accepts.
FACTORIZATION_TOL = 1e-8


def _unitary_key(mat: np.ndarray) -> bytes:
    # +0.0 collapses -0.0 so rounding is a stable dedup key.
    rounded = np.round(mat, DEDUP_DECIMALS) + 0.0
    return rounded.tobytes()


@dataclass(frozen=True)
class GroupRep:
    """A finite group of unitaries with the Hermitian generators that built it."""

    elements: tuple[Operator, ...]
    generators: tuple[Operator, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


@dataclass(frozen=True)
class InvariantProjector:
    """Idempotent Hermitian average of a group representation."""

    op: Operator

    def __post_init__(self):
        mat = self.op.mat
        if float(np.abs(mat @ mat - mat).max()) > 1e-12:
            raise DomainError("projector is not idempotent")
        if not self.op.is_hermitian(1e-12):
            raise DomainError("projector is not Hermitian")

    @property
    def rank(self) -> int:
        return int(round(float(np.real(self.op.trace()))))


def close_group(generators: list[Operator], max_order: int = MAX_GROUP_ORDER) -> GroupRep:
    """Multiplicative closure of exp(i Theta) over the given Hermitian Thetas.

    Breadth-first products with rounded-entry deduplication.  Raises
    NonClosureError when the closure exceeds ``max_order`` elements, which is
    the expected outcome for generators with irrational spectra.
    """
    if not generators:
        raise UsageError("need at least one generator")
    dim = generators[0].dim
    for th in generators:
        if th.dim != dim:
            raise ShapeError("generators act on different spaces")
        if not th.is_hermitian():
            raise DomainError("generators must be Hermitian")
    gens = [unitary_exp(th) for th in generators]

    identity = Operator.identity(dim)
    seen = {_unitary_key(identity.mat): identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for u in frontier:
            for gmat in gens:
                prod = gmat @ u
                key = _unitary_key(prod.mat)
                if key not in seen:
                    if len(seen) >= max_order:
                        raise NonClosureError(
                            f"group closure exceeded {max_order} elements"
                        )
                    seen[key] = prod
                    next_frontier.append(prod)
        frontier = next_frontier
    return GroupRep(tuple(seen.values()), tuple(generators))


def invariant_projector(group: GroupRep) -> InvariantProjector:
    """Average of the group unitaries; projects onto the fixed-point sector."""
    acc = np.zeros((group.dim, group.dim), dtype=np.complex128)
    for u in group.elements:
        acc += u.mat
    pi = acc / group.order
    # The raw average of a closed unitary group is idempotent up to roundoff;
    # symmetrize the Hermitian part so the projector invariants hold strictly.
    pi = 0.5 * (pi + pi.conj().T)
    return InvariantProjector(Operator(pi))


def joint_kernel(generators: list[Operator], tol: float = 1e-10) -> SubspaceBasis:
    """Orthonormal basis of the common null space of the generators."""
    if not generators:
        raise UsageError("need at least one generator")
    stacked = np.vstack([th.mat for th in generators])
    vecs = nullspace(stacked, tol=tol)
    return SubspaceBasis(generators[0].dim, vecs, "vector-space")


def symmetrize_operator(group: GroupRep, h: Operator) -> Operator:
    """Group-average U^dag H U; the result commutes with every element."""
    if h.dim != group.dim:
        raise ShapeError("operator does not act on the group's space")
    acc = np.zeros_like(h.mat)
    for u in group.elements:
        acc += u.mat.conj().T @ h.mat @ u.mat
    return Operator(acc / group.order)


def symmetrize_factorized(h: Operator, generators: list[Operator]) -> Operator:
    """Sequential averaging for generators whose unitaries square to identity.

    When every exp(i Theta) is an involution and the generators commute, the
    full group is the product of the per-generator Z2 averages, so averaging
    one generator at a time reproduces the group average at a fraction of the
    cost.  Each generator must satisfy exp(i Theta)^2 = 1 and every pair of
    unitaries must commute; violations raise.

    When every generator is diagonal, each exp(i Theta) is a diagonal of
    signs s = sign(Re exp(i theta_jj)) and the average is the exact mask
    that keeps h_ij where s_i = s_j for every generator and sets the rest to
    zero: no matrix exponential and no product.
    """
    for th in generators:
        if th.dim != h.dim:
            raise ShapeError("generator does not act on the operator's space")
    if generators and all(_is_diagonal(th.mat) for th in generators):
        keep = np.ones(h.mat.shape, dtype=bool)
        for th in generators:
            if not th.is_hermitian():
                raise DomainError("operator is not Hermitian within tolerance")
            u = np.exp(1j * np.diagonal(th.mat))
            _check_involution(float(np.abs(u * u - 1.0).max()))
            s = u.real > 0
            keep &= s[:, None] == s[None, :]
        return Operator(np.where(keep, h.mat, 0.0))
    acc = h.mat
    unitaries = []
    for th in generators:
        u = unitary_exp(th).mat
        _check_involution(float(np.abs(u @ u - np.eye(h.dim)).max()))
        for prev in unitaries:
            comm_residual = float(np.abs(u @ prev - prev @ u).max())
            if comm_residual > FACTORIZATION_TOL:
                raise DomainError(
                    f"factorized path needs commuting unitaries (residual {comm_residual:.2e})"
                )
        unitaries.append(u)
        acc = 0.5 * (acc + u.conj().T @ acc @ u)
    return Operator(acc)


def _is_diagonal(mat: np.ndarray) -> bool:
    return np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))


def _check_involution(sq_residual: float) -> None:
    """Raise unless the largest entry of U^2 - 1 is within FACTORIZATION_TOL."""
    if sq_residual > FACTORIZATION_TOL:
        raise DomainError(
            f"factorized path needs involutive unitaries (residual {sq_residual:.2e})"
        )


def invariant_subalgebra(group: GroupRep, tol: float = 1e-10) -> SubspaceBasis:
    """Basis of the algebra commuting with every stored generator.  The
    generators must be Hermitian, as ``close_group`` requires; any other
    raises DomainError (``commutant_basis``).

    Operators in this span preserve each charge eigenspace, in particular the
    joint kernel, so they act on the protected sector without leaking.
    """
    if not group.generators:
        raise UsageError("group carries no generators")
    return commutant_basis(list(group.generators), group.dim, tol=tol)
