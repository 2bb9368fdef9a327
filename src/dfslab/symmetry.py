"""Finite symmetry groups generated by Hermitian charges.

A model's symmetry is specified by Hermitian generators Theta_g; the group is
the multiplicative closure of the unitaries exp(i Theta_g).  Averaging over
the closure projects onto the invariant sector, symmetrizes Hamiltonians, and
(through the commutant of the generators) exposes the subalgebra that never
mixes charge sectors.

When every generator is diagonal the group is kept as its phase vectors
exp(i diag Theta): the closure multiplies vectors entrywise, the projector is
their mean and the average of an operator is an exact entrywise mask.  Other
generators are closed and averaged as dense unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonClosureError, ShapeError, UsageError
from .opcore import (
    HERMITICITY_TOL,
    KERNEL_TOL,
    Operator,
    SubspaceBasis,
    _nullspace_and_norm,
    _row_stack,
    commutant_basis,
    unitary_exp,
)

MAX_GROUP_ORDER = 10_000
DEDUP_DECIMALS = 8
# Largest entry of P^2 - P or P - P^dag that an InvariantProjector accepts.
PROJECTOR_TOL = 1e-12


def _rounded(arr: np.ndarray) -> np.ndarray:
    # +0.0 collapses -0.0 so rounding is a stable dedup key.
    return np.round(arr, DEDUP_DECIMALS) + 0.0


@dataclass(frozen=True)
class GroupRep:
    """A finite group of unitaries with the Hermitian generators that built it.
    ``elements`` holds the group once, identity first: (order, d) phase
    vectors (the diagonals) when every generator is diagonal, else (order,
    d, d) unitaries."""

    elements: np.ndarray
    generators: tuple[Operator, ...]

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]


@dataclass(frozen=True)
class InvariantProjector:
    """Idempotent Hermitian average P of a group representation: ``mean`` is
    the diagonal of P for a diagonal group, else P.  ``idempotency`` and
    ``hermiticity``, the largest entries of P^2 - P and P - P^dag, are
    measured by the certificate; either above ``PROJECTOR_TOL`` raises
    DomainError."""

    mean: np.ndarray
    idempotency: float = field(init=False)
    hermiticity: float = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.mean, dtype=np.complex128)
        p.setflags(write=False)
        object.__setattr__(self, "mean", p)
        square = p * p if p.ndim == 1 else p @ p
        object.__setattr__(self, "idempotency", float(np.abs(square - p).max(initial=0.0)))
        object.__setattr__(self, "hermiticity", float(np.abs(p - p.conj().T).max(initial=0.0)))
        if self.idempotency > PROJECTOR_TOL:
            raise DomainError("projector is not idempotent")
        if self.hermiticity > PROJECTOR_TOL:
            raise DomainError("projector is not Hermitian")

    @property
    def op(self) -> Operator:
        return Operator(np.diag(self.mean) if self.mean.ndim == 1 else self.mean)

    @property
    def rank(self) -> int:
        diag = self.mean if self.mean.ndim == 1 else np.diagonal(self.mean)
        return int(round(float(np.real(diag.sum()))))


def close_group(generators: list[Operator]) -> GroupRep:
    """Multiplicative closure of exp(i Theta) over the given Hermitian Thetas.

    Breadth-first products with rounded-entry deduplication, over the phase
    vectors exp(i diag Theta) when every generator is diagonal (read off
    its entries; no matrix exponential, no matrix product), else over dense
    unitaries.  Raises NonClosureError when the closure exceeds
    ``MAX_GROUP_ORDER`` elements, which is the expected outcome for
    generators with irrational spectra.
    """
    dim = _common_dim(generators)
    diags = [th._diagonal() for th in generators]
    if all(t is not None for t in diags):
        # a diagonal matrix passes Operator.is_hermitian exactly when this holds
        if any(2 * np.abs(t.imag).max() > HERMITICITY_TOL * max(1.0, np.abs(t).max()) for t in diags):
            raise DomainError("generators must be Hermitian")
        gens = [np.exp(1j * t.real) for t in diags]
        identity, product = np.ones(dim, dtype=np.complex128), np.multiply
    else:
        if not all(th.is_hermitian() for th in generators):
            raise DomainError("generators must be Hermitian")
        gens = [unitary_exp(th).mat for th in generators]
        identity, product = np.eye(dim, dtype=np.complex128), np.matmul

    seen = {_rounded(identity).tobytes(): identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for u in frontier:
            for g in gens:
                prod = product(g, u)
                key = _rounded(prod).tobytes()
                if key not in seen:
                    if len(seen) >= MAX_GROUP_ORDER:
                        raise NonClosureError(f"group closure exceeded {MAX_GROUP_ORDER} elements")
                    seen[key] = prod
                    next_frontier.append(prod)
        frontier = next_frontier
    return GroupRep(np.array(list(seen.values())), tuple(generators))


def _common_dim(generators: list[Operator]) -> int:
    if not generators:
        raise UsageError("need at least one generator")
    if any(th.dim != generators[0].dim for th in generators):
        raise ShapeError("generators act on different spaces")
    return generators[0].dim


def invariant_projector(group: GroupRep) -> InvariantProjector:
    """Average of the group elements (of the phase vectors for a diagonal
    group); projects onto the fixed-point sector."""
    pi = group.elements.mean(axis=0)
    # The raw average of a closed unitary group is idempotent up to roundoff;
    # symmetrize the Hermitian part so the projector invariants hold strictly.
    return InvariantProjector(0.5 * (pi + pi.conj().T))


def joint_kernel(generators: list[Operator]) -> SubspaceBasis:
    """Orthonormal basis of the common null space of the generators:
    ``nullspace`` of their row stack, split and gathered from their
    entries, so no dense stack is formed."""
    dim = _common_dim(generators)
    vecs = _nullspace_and_norm(_row_stack(generators), KERNEL_TOL)[0]
    return SubspaceBasis(dim, vecs, "vector-space")


def symmetrize_operator(group: GroupRep, h: Operator) -> Operator:
    """Group-average U^dag H U; the result commutes with every element.

    Over a diagonal group the average of conj(u_i) u_j is 1 where i and j
    carry the same phase under every element and 0 elsewhere (a nontrivial
    character sums to zero), so h_ij is kept exactly where the rounded
    phases agree and every other entry is exactly 0, as the entries that
    stay.
    """
    if h.dim != group.dim:
        raise ShapeError("operator does not act on the group's space")
    if group.elements.ndim == 2:
        # label each index by the bytes of its rounded phases, the closure's key
        phases = np.ascontiguousarray(_rounded(group.elements).T)
        keys = phases.view(np.dtype((np.void, phases.strides[0]))).ravel()
        label = np.unique(keys, return_inverse=True)[1]
        return h._masked(label)
    acc = np.zeros_like(h.mat)
    for u in group.elements:
        acc += u.conj().T @ h.mat @ u
    return Operator(acc / group.order)


def invariant_subalgebra(group: GroupRep) -> SubspaceBasis:
    """Basis of the algebra commuting with every stored generator.  The
    generators must be Hermitian, as ``close_group`` requires; any other
    raises DomainError (``commutant_basis``).

    Operators in this span preserve each charge eigenspace, in particular the
    joint kernel, so they act on the protected sector without leaking.
    """
    if not group.generators:
        raise UsageError("group carries no generators")
    return commutant_basis(list(group.generators), group.dim)
