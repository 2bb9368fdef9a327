"""Closed-system evolution and the coherence experiment.

Evolution is exact diagonalization of the Hamiltonian, H = V diag(lambda) V^dag.
``evolve`` returns the density matrix rho_t = U rho U^dag with
U = V exp(-i lambda t) V^dag.  The coherence experiment never forms a d x d
state: it factors rho0 = W W^dag once, moves W into each Hamiltonian's
eigenbasis, C = V^dag W, and at every sample time takes the d x r block
psi(t) = V (exp(-i lambda t) C), so rho_t = psi psi^dag.  Leakage and the
reduced system state are read off psi directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .fock import DecoherenceModel, parity_generators
from .opcore import HERMITICITY_TOL, Operator, SubspaceBasis
from .states import DensityMatrix, _fidelity_from_root, _psd_sqrt, partial_trace
from .symmetry import symmetrize_factorized

BOUNDS_SLACK = 1e-9
SUPPORT_TOL = 1e-10


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
        if not h.is_hermitian(HERMITICITY_TOL):
            raise DomainError("Hamiltonian must be Hermitian")
        self.vals, self.vecs = np.linalg.eigh(h.mat)

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

    # rho0 = W W^dag over the eigenpairs above numpy's matrix_rank cutoff;
    # a pure state gives a single column.
    vals, vecs = np.linalg.eigh(rho0.op.mat)
    keep = vals > vals[-1] * vals.size * np.finfo(float).eps
    w = vecs[:, keep] * np.sqrt(vals[keep])
    rank = w.shape[1]

    p_code = code.projector().mat

    def code_weight(psi: np.ndarray) -> float:
        """Tr(P psi psi^dag) for P the projector onto code x environment vacuum."""
        in_vacuum = psi.reshape(sys_dim, env_dim, rank)[:, 0, :]
        return float(np.sum(np.abs(p_code @ in_vacuum) ** 2))

    support = code_weight(w)
    if abs(support - 1.0) > SUPPORT_TOL:
        raise UsageError(
            f"initial state has weight {support:.6f} inside the protected subspace, need 1"
        )

    h_full = model.h_total
    h_sym = symmetrize_factorized(h_full, parity_generators(model))

    root0 = _psd_sqrt(partial_trace(rho0, keep=(0,)).op.mat)
    results = []
    for ham in (h_full, h_sym):
        prop = _Propagator(ham)
        coeffs = prop.vecs.conj().T @ w
        fids = np.empty(times.size)
        leaks = np.empty(times.size)
        for k, t in enumerate(times):
            psi = prop.vecs @ (np.exp(-1.0j * prop.vals * t)[:, None] * coeffs)
            leaks[k] = 1.0 - code_weight(psi)
            m = psi.reshape(sys_dim, env_dim * rank)
            reduced = DensityMatrix(Operator(m @ m.conj().T), dims=(sys_dim,))
            fids[k] = _fidelity_from_root(root0, reduced)
        results.append(Trajectory(times, fids, leaks))
    return results[0], results[1]
