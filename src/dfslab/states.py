"""Density matrices, state functionals, and the two-point observable encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .opcore import HERMITICITY_TOL, Operator, sector_eigh

TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-10


def _clip_spectrum(vals: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues in [POSITIVITY_FLOOR, 0); larger negativity is an error."""
    if float(vals.min(initial=0.0)) < POSITIVITY_FLOOR:
        raise DomainError(f"matrix has eigenvalue {vals.min()} below the positivity floor")
    return np.where(vals < 0.0, 0.0, vals)


def _check_states(mats: np.ndarray) -> None:
    """The density-matrix checks on one matrix or a stack (..., d, d): each
    must be Hermitian within HERMITICITY_TOL (relative to its largest entry,
    as ``Operator.is_hermitian``), have trace 1 within TRACE_TOL and no
    eigenvalue below POSITIVITY_FLOOR."""
    skew = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1), initial=0.0))
    if np.any(skew > HERMITICITY_TOL * scale):
        raise DomainError("density matrix is not Hermitian within tolerance")
    traces = np.trace(mats, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if np.any(off):
        raise DomainError(f"density matrix trace {complex(traces[off][0])} is not 1")
    _clip_spectrum(sector_eigh(mats, vectors=False))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator, optionally with a tensor
    factorization recorded in ``dims`` for partial traces."""

    op: Operator
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_states(self.op.mat)
        if self.dims is not None:
            dims = tuple(self.dims)
            if not all(isinstance(d, (int, np.integer)) and d > 0 for d in dims):
                raise ShapeError(f"factor dims {dims} must be positive integers")
            dims = tuple(int(d) for d in dims)
            if math.prod(dims) != self.op.dim:
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


def _factor(mat: np.ndarray) -> np.ndarray:
    """W with mat = W W^dag for a density matrix, from its eigenpairs above
    numpy's matrix_rank cutoff (largest eigenvalue * dim * eps); a pure
    state gives one column."""
    vals, vecs = sector_eigh(mat)
    keep = vals > vals[-1] * vals.size * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (squared-overlap convention), clipped to [0, 1]."""
    if rho.dim != sigma.dim:
        raise ShapeError("fidelity needs states of equal dimension")
    return float(_fidelities(_factor(rho.op.mat), sigma.op.mat))


def _fidelities(w: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Fidelity of each state in the stack ``sigmas`` (..., d, d) against
    rho = W W^dag: F = (sum sqrt eig(W^dag sigma W))^2, which is the
    expectation w^dag sigma w itself when W is one column w."""
    inner = w.conj().T @ sigmas @ w
    if w.shape[1] == 1:
        return np.clip(_clip_spectrum(inner[..., 0, 0].real), 0.0, 1.0)
    vals = _clip_spectrum(np.linalg.eigvalsh(inner))
    return np.clip(np.sum(np.sqrt(vals), axis=-1) ** 2, 0.0, 1.0)
