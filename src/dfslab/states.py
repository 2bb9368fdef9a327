"""Density matrices, state functionals, and the two-point observable encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .opcore import Operator, _Entries, _is_hermitian, sector_eigh

TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-10


def _clip_spectrum(vals: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues in [POSITIVITY_FLOOR, 0); larger negativity is an error."""
    if float(vals.min(initial=0.0)) < POSITIVITY_FLOOR:
        raise DomainError(f"matrix has eigenvalue {vals.min()} below the positivity floor")
    return np.where(vals < 0.0, 0.0, vals)


def _check_states(mats: np.ndarray) -> None:
    """The density-matrix checks on one matrix or a stack (..., d, d): each
    must be Hermitian (``_is_hermitian``, as ``Operator.is_hermitian``), have
    trace 1 within TRACE_TOL and no eigenvalue below POSITIVITY_FLOOR.

    Positivity is certified by one Cholesky factorization of each matrix
    shifted by -POSITIVITY_FLOOR: it succeeds only on a matrix positive
    definite to within its backward error, a few eps times its norm, so
    success shows every eigenvalue at or above the floor.  Only when it fails
    are the eigenvalues computed, to name the one below the floor."""
    if not _is_hermitian(mats):
        raise DomainError("density matrix is not Hermitian within tolerance")
    traces = np.trace(mats, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if np.any(off):
        raise DomainError(f"density matrix trace {complex(traces[off][0])} is not 1")
    try:
        np.linalg.cholesky(mats - POSITIVITY_FLOOR * np.eye(mats.shape[-1]))
    except np.linalg.LinAlgError:
        _clip_spectrum(sector_eigh(mats, vectors=False))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator, optionally with a tensor
    factorization recorded in ``dims`` for partial traces.

    A pure state that ``pure_state`` made keeps its unit vector v instead:
    its ``op`` = v v^dag is formed the first time it is read, as the entries
    v_i conj(v_j) over the nonzero indices of v, and then cached; ``dim``
    never forms it.
    """

    op: Operator
    dims: tuple[int, ...] | None = None

    # the unit vector of a pure state that keeps it, whose op is not formed
    # until read (see __getattr__); None for one made from an operator
    _vector = None

    def __post_init__(self):
        _check_states(self.op.mat)
        object.__setattr__(self, "dims", _factor_dims(self.dims, self.op.dim))

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the op of a pure
        # state that keeps its vector, before anything has read it
        if name != "op" or self._vector is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        v = self._vector
        nz = np.flatnonzero(v)
        vals = np.outer(v[nz], v[nz].conj()).reshape(-1)
        keep = vals != 0  # a product of two nonzeros can underflow
        entries = _Entries(
            (v.size, v.size), np.repeat(nz, nz.size)[keep], np.tile(nz, nz.size)[keep], vals[keep]
        )
        op = Operator._unchecked(entries)
        object.__setattr__(self, "op", op)
        return op

    @property
    def dim(self) -> int:
        return self.op.dim if self._vector is None else self._vector.size


def _factor_dims(dims, dim: int):
    """``dims`` as a tuple of ints multiplying to ``dim``, or None."""
    if dims is None:
        return None
    dims = tuple(dims)
    if not all(isinstance(d, (int, np.integer)) and d > 0 for d in dims):
        raise ShapeError(f"factor dims {dims} must be positive integers")
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != dim:
        raise ShapeError(f"factor dims {dims} do not multiply to {dim}")
    return dims


@dataclass(frozen=True)
class StateFunctional:
    """The linear functional A -> Tr(A rho) attached to a density matrix."""

    rho: DensityMatrix

    def __call__(self, a: Operator) -> complex:
        return expectation(self, a)


def pure_state(v, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """The pure state v v^dag of a unit vector, kept as v: no d x d matrix
    is formed until its ``op`` is read.  v must be finite, and the trace
    sum |v_i|^2 must be 1 within TRACE_TOL, as ``DensityMatrix`` checks it,
    which puts the norm of v within TRACE_TOL / 2 of 1; v v^dag is exactly
    Hermitian and rank one, so the Hermitian and positivity checks cannot
    fail."""
    vec = np.array(v, dtype=np.complex128).reshape(-1)
    if not np.isfinite(vec).all():
        raise DomainError("state vector entries must be finite")
    trace = float(np.sum(vec.real ** 2 + vec.imag ** 2))
    if abs(trace - 1.0) > TRACE_TOL:
        raise DomainError(f"density matrix trace {trace} is not 1")
    vec.setflags(write=False)
    out = object.__new__(DensityMatrix)
    object.__setattr__(out, "_vector", vec)
    object.__setattr__(out, "dims", _factor_dims(dims, vec.size))
    return out


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


def _state_factor(rho: DensityMatrix) -> np.ndarray:
    """W with rho = W W^dag: the kept vector of a pure state as one column,
    else ``_factor`` of its matrix."""
    return _factor(rho.op.mat) if rho._vector is None else rho._vector[:, None]


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
    return float(_fidelities(_state_factor(rho), sigma.op.mat))


def _fidelities(w: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Fidelity of each state in the stack ``sigmas`` (..., d, d) against
    rho = W W^dag: F = (sum sqrt eig(W^dag sigma W))^2, which is the
    expectation w^dag sigma w itself when W is one column w."""
    inner = w.conj().T @ sigmas @ w
    if w.shape[1] == 1:
        return np.clip(_clip_spectrum(inner[..., 0, 0].real), 0.0, 1.0)
    vals = _clip_spectrum(np.linalg.eigvalsh(inner))
    return np.clip(np.sum(np.sqrt(vals), axis=-1) ** 2, 0.0, 1.0)
