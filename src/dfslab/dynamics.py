"""Closed-system evolution and the coherence experiment.

Evolution is exact diagonalization of the Hamiltonian, H = V diag(lambda) V^dag,
one block of its nonzero pattern at a time (``opcore.sector_eigh``).
``evolve`` is the dense reference: it returns the density matrix
rho_t = U rho U^dag with U = V exp(-i lambda t) V^dag.

The coherence experiment forms no d x d state, eigenbasis or state check.
It takes rho0 = W W^dag as W: a pure state's kept vector, else the factor
of its matrix.  A Hamiltonian never joins two blocks of its nonzero
pattern, so psi(t) = exp(-i H t) W stays inside the blocks that W's nonzero
rows touch.  Only those blocks are gathered from the Hamiltonian's entries
and diagonalized, each block's rows of W are evolved with its own
eigenpairs, psi_b(t) = V_b (exp(-i lambda_b t) V_b^dag W_b), and the
results are scattered into exact zeros on the system indices the blocks
reach.  This is an exact split, not a truncation.  A chunk of sample times
forms one (n, k env_dim, r) stack, at most CHUNK_ELEMENTS entries.
Leakages, the reduced system states (k x k, exactly zero on every other
system index), their density-matrix checks and their fidelities are each
one array operation on it.  The symmetrized Hamiltonian is the parity
group's average, an exact mask of the entries (``symmetry``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .fock import DecoherenceModel, parity_generators
from .opcore import Operator, SubspaceBasis, _block_eighs, sector_eigh
from .states import DensityMatrix, _check_states, _factor, _fidelities, _state_factor
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


def evolve(h: Operator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """State at time t under the Hamiltonian h, starting from rho0: the dense
    reference, with U = V exp(-i lambda t) V^dag from the eigenpairs of all
    of h."""
    if h.dim != rho0.dim:
        raise ShapeError("Hamiltonian and state dimensions differ")
    if not h.is_hermitian():
        raise DomainError("Hamiltonian must be Hermitian")
    vals, vecs = sector_eigh(h)
    u = (vecs * np.exp(-1.0j * vals * float(t))) @ vecs.conj().T
    return DensityMatrix(Operator(u @ rho0.op.mat @ u.conj().T), dims=rho0.dims)


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
    if rho0.dim != sys_dim * env_dim:
        raise ShapeError("initial state does not live on the full model space")
    if rho0.dims is not None and tuple(rho0.dims) != (sys_dim, env_dim):
        raise UsageError(f"initial state dims {rho0.dims} do not match ({sys_dim}, {env_dim})")

    w = _state_factor(rho0)
    rank = w.shape[1]

    p_code = code.projector().mat

    def code_weights(psi: np.ndarray, reach: np.ndarray) -> np.ndarray:
        """Tr(P psi psi^dag) for each psi in the stack (n, k * env_dim, r)
        whose k system indices are ``reach``, P the projector onto code x
        environment vacuum."""
        in_vacuum = psi.reshape(-1, reach.size, env_dim, rank)[:, :, 0, :]
        return np.sum(np.abs(p_code[:, reach] @ in_vacuum) ** 2, axis=(1, 2))

    support = float(code_weights(w[None], np.arange(sys_dim))[0])
    if abs(support - 1.0) > SUPPORT_TOL:
        raise UsageError(
            f"initial state has weight {support:.6f} inside the protected subspace, need 1"
        )

    h_full = model.h_total
    h_sym = symmetrize_operator(close_group(parity_generators(model)), h_full)

    # rho_sys(0) = M M^dag, M = W with environment and rank as columns
    m0 = w.reshape(sys_dim, env_dim * rank)
    w_sys = _factor(m0 @ m0.conj().T)
    occupied = np.any(w != 0, axis=1)
    results = []
    for ham in (h_full, h_sym):
        if not ham.is_hermitian():
            raise DomainError("Hamiltonian must be Hermitian")
        blocks = [
            (rows, vals, vecs, vecs.conj().swapaxes(1, 2) @ w[rows])
            for rows, _, vals, vecs in _block_eighs(ham._entries, touched=occupied)
        ]
        # psi(t) lives on the system indices the touched blocks reach, with
        # every environment index of each: exact zeros off the touched indices
        idx = np.concatenate([rows.ravel() for rows, *_ in blocks])
        reach = np.unique(idx // env_dim)
        pos = np.zeros(rho0.dim, dtype=np.intp)
        pos[idx] = np.searchsorted(reach, idx // env_dim) * env_dim + idx % env_dim
        chunk = max(1, CHUNK_ELEMENTS // max(reach.size * env_dim * rank, reach.size**2))
        fids = np.empty(times.size)
        leaks = np.empty(times.size)
        for lo in range(0, times.size, chunk):
            ts = times[lo : lo + chunk]
            psi = np.zeros((ts.size, reach.size * env_dim, rank), dtype=np.complex128)
            for rows, vals, vecs, coeffs in blocks:
                phases = np.exp(-1.0j * vals * ts[:, None, None])
                psi[:, pos[rows]] = vecs @ (phases[..., None] * coeffs)
            leaks[lo : lo + chunk] = 1.0 - code_weights(psi, reach)
            m = psi.reshape(ts.size, reach.size, env_dim * rank)
            reduced = m @ m.conj().swapaxes(1, 2)
            _check_states(reduced)
            fids[lo : lo + chunk] = _fidelities(w_sys[reach], reduced)
        results.append(Trajectory(times, fids, leaks))
    return results[0], results[1]
