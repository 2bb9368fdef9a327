"""Closed-system evolution and the coherence experiment.

Evolution is exact diagonalization of the Hamiltonian, H = V diag(lambda) V^dag,
one block of its nonzero pattern at a time (``opcore.sector_eigh``).
``evolve`` returns the density matrix rho_t = U rho U^dag with
U = V exp(-i lambda t) V^dag.  The coherence experiment never forms a d x d
state: it factors rho0 = W W^dag once, moves W into each Hamiltonian's
eigenbasis, C = V^dag W, and takes the d x r blocks
psi(t) = V (exp(-i lambda t) C), so rho_t = psi psi^dag, for a whole chunk of
sample times as one (n, d, r) stack.  Leakages, reduced system states, their
density-matrix checks and their fidelities are computed on that stack, each
as one array operation.  The symmetrized Hamiltonian is the parity group's
average, an exact entrywise mask (``symmetry``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .fock import DecoherenceModel, parity_generators
from .opcore import Operator, SubspaceBasis, sector_eigh
from .states import DensityMatrix, _check_states, _factor, _fidelities, partial_trace
from .symmetry import close_group, symmetrize_operator

BOUNDS_SLACK = 1e-9
SUPPORT_TOL = 1e-10
# Most complex entries in one chunk of the coherence experiment's stacks:
# the evolved blocks psi(t) and the reduced system states.
CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class Trajectory:
    """Sampled fidelities and leakages along an evolution."""

    times: np.ndarray
    fidelities: np.ndarray
    leakages: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        fid = np.asarray(self.fidelities, dtype=float)
        leak = np.asarray(self.leakages, dtype=float)
        if not (times.shape == fid.shape == leak.shape) or times.ndim != 1:
            raise ShapeError("times, fidelities and leakages must be 1-d and equal length")
        for name, arr in (("fidelities", fid), ("leakages", leak)):
            if arr.size and (arr.min() < -BOUNDS_SLACK or arr.max() > 1 + BOUNDS_SLACK):
                raise DomainError(f"{name} leave [0, 1] by more than {BOUNDS_SLACK}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fidelities", np.clip(fid, 0.0, 1.0))
        object.__setattr__(self, "leakages", np.clip(leak, 0.0, 1.0))
        for arr in (self.times, self.fidelities, self.leakages):
            arr.setflags(write=False)


class _Propagator:
    """Eigendecomposition of a Hamiltonian, applied at arbitrary times."""

    def __init__(self, h: Operator):
        if not h.is_hermitian():
            raise DomainError("Hamiltonian must be Hermitian")
        self.vals, self.vecs = sector_eigh(h)

    def advance(self, rho: np.ndarray, t: float) -> np.ndarray:
        phases = np.exp(-1.0j * self.vals * t)
        u = (self.vecs * phases) @ self.vecs.conj().T
        return u @ rho @ u.conj().T


def evolve(h: Operator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """State at time t under the Hamiltonian h, starting from rho0."""
    if h.dim != rho0.op.dim:
        raise ShapeError("Hamiltonian and state dimensions differ")
    rho_t = _Propagator(h).advance(rho0.op.mat, float(t))
    return DensityMatrix(Operator(rho_t), dims=rho0.dims)


def coherence_experiment(
    model: DecoherenceModel,
    code: SubspaceBasis,
    rho0: DensityMatrix,
    times,
) -> tuple[Trajectory, Trajectory]:
    """Run the same initial state under the bare and the symmetrized
    Hamiltonian and sample leakage out of the protected subspace plus
    fidelity of the reduced system state.

    The code basis lives on the system factor; the protected subspace is
    code x environment vacuum, and rho0 must be supported inside it.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise UsageError("need a non-empty 1-d array of sample times")
    if code.kind != "vector-space":
        raise UsageError("code must be a vector-space basis")
    sys_dim = model.system_space.dim
    env_dim = model.env_space.dim
    if code.ambient_dim != sys_dim:
        raise ShapeError(f"code basis lives on dimension {code.ambient_dim}, system has {sys_dim}")
    if rho0.op.dim != sys_dim * env_dim:
        raise ShapeError("initial state does not live on the full model space")
    if rho0.dims is None:
        rho0 = DensityMatrix(rho0.op, dims=(sys_dim, env_dim))
    elif tuple(rho0.dims) != (sys_dim, env_dim):
        raise UsageError(f"initial state dims {rho0.dims} do not match ({sys_dim}, {env_dim})")

    w = _factor(rho0.op.mat)
    rank = w.shape[1]

    p_code = code.projector().mat

    def code_weights(psi: np.ndarray) -> np.ndarray:
        """Tr(P psi psi^dag) for each psi in the stack (n, d, r), P the
        projector onto code x environment vacuum."""
        in_vacuum = psi.reshape(-1, sys_dim, env_dim, rank)[:, :, 0, :]
        return np.sum(np.abs(p_code @ in_vacuum) ** 2, axis=(1, 2))

    support = float(code_weights(w[None])[0])
    if abs(support - 1.0) > SUPPORT_TOL:
        raise UsageError(
            f"initial state has weight {support:.6f} inside the protected subspace, need 1"
        )

    h_full = model.h_total
    h_sym = symmetrize_operator(close_group(parity_generators(model)), h_full)

    w_sys = _factor(partial_trace(rho0, keep=(0,)).op.mat)
    chunk = max(1, CHUNK_ELEMENTS // max(rho0.dim * rank, sys_dim * sys_dim))
    results = []
    for ham in (h_full, h_sym):
        prop = _Propagator(ham)
        # V^dag W, without a conjugated copy of the d x d eigenvector matrix
        coeffs = (w.conj().T @ prop.vecs).conj().T
        fids = np.empty(times.size)
        leaks = np.empty(times.size)
        for lo in range(0, times.size, chunk):
            ts = times[lo : lo + chunk]
            psi = prop.vecs @ (np.exp(-1.0j * prop.vals * ts[:, None])[:, :, None] * coeffs)
            leaks[lo : lo + chunk] = 1.0 - code_weights(psi)
            m = psi.reshape(ts.size, sys_dim, env_dim * rank)
            reduced = m @ m.conj().swapaxes(1, 2)
            _check_states(reduced)
            fids[lo : lo + chunk] = _fidelities(w_sys, reduced)
        results.append(Trajectory(times, fids, leaks))
    return results[0], results[1]
