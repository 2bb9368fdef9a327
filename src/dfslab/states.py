"""Density matrices, state functionals, and the two-point observable encoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .opcore import Operator

TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-10


def _clip_spectrum(vals: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues in [POSITIVITY_FLOOR, 0); larger negativity is an error."""
    if float(vals.min(initial=0.0)) < POSITIVITY_FLOOR:
        raise DomainError(f"matrix has eigenvalue {vals.min()} below the positivity floor")
    return np.where(vals < 0.0, 0.0, vals)


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator, optionally with a tensor
    factorization recorded in ``dims`` for partial traces."""

    op: Operator
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        mat = self.op.mat
        if not self.op.is_hermitian():
            raise DomainError("density matrix is not Hermitian within tolerance")
        if abs(self.op.trace() - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix trace {self.op.trace()} is not 1")
        vals = np.linalg.eigvalsh(mat)
        _clip_spectrum(vals)
        if self.dims is not None:
            dims = tuple(int(d) for d in self.dims)
            if int(np.prod(dims)) != self.op.dim:
                raise ShapeError(f"factor dims {dims} do not multiply to {self.op.dim}")
            object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class StateFunctional:
    """The linear functional A -> Tr(A rho) attached to a density matrix."""

    rho: DensityMatrix

    def __call__(self, a: Operator) -> complex:
        return expectation(self, a)


def pure_state(v, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise DomainError("cannot build a pure state from the zero vector")
    if abs(nrm - 1.0) > 1e-10:
        raise DomainError(f"state vector norm {nrm} is not 1")
    return DensityMatrix(Operator(np.outer(vec, vec.conj())), dims)


def expectation(psi: StateFunctional, a: Operator) -> complex:
    if a.dim != psi.rho.dim:
        raise ShapeError(f"observable dim {a.dim} does not match state dim {psi.rho.dim}")
    return complex(np.trace(a.mat @ psi.rho.op.mat))


def encode_two_point(atilde: Operator) -> tuple[Operator, Operator]:
    """Two commuting-with-the-reference observables carrying the diagonal of a
    2x2 observable, so that the maximally mixed state reads them off as the
    original diagonal entries."""
    if atilde.dim != 2:
        raise ShapeError("two-point encoding takes a 2x2 observable")
    a = atilde.mat
    a0 = Operator(np.array([[a[0, 0], np.conj(a[1, 0])], [a[1, 0], a[0, 0]]]))
    a1 = Operator(np.array([[a[1, 1], a[0, 1]], [np.conj(a[0, 1]), a[1, 1]]]))
    return a0, a1


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all tensor factors not listed in ``keep`` (kept factors stay
    in their original order)."""
    if rho.dims is None:
        raise UsageError("partial_trace needs a density matrix with recorded factor dims")
    dims = rho.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise UsageError(f"keep indices {keep} out of range for {n} factors")
    tensor_form = rho.op.mat.reshape(dims + dims)
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        ax = k - offset  # earlier traces shrink the index list
        tensor_form = np.trace(tensor_form, axis1=ax, axis2=ax + (n - offset))
    kept_dims = tuple(dims[k] for k in keep)
    d = int(np.prod(kept_dims))
    out = tensor_form.reshape(d, d)
    return DensityMatrix(Operator(out), kept_dims)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = _clip_spectrum(vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (squared-overlap convention), clipped to [0, 1]."""
    if rho.dim != sigma.dim:
        raise ShapeError("fidelity needs states of equal dimension")
    return _fidelity_from_root(_psd_sqrt(rho.op.mat), sigma)


def _fidelity_from_root(root: np.ndarray, sigma: DensityMatrix) -> float:
    """Fidelity of sigma against the state whose PSD square root is ``root``."""
    inner = root @ sigma.op.mat @ root
    vals = np.linalg.eigvalsh(inner)
    vals = _clip_spectrum(vals)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(max(f, 0.0), 1.0)
