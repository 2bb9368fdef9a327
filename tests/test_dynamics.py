import numpy as np
import pytest

from dfslab import (
    DensityMatrix,
    DomainError,
    Operator,
    ShapeError,
    SubspaceBasis,
    Trajectory,
    UsageError,
    build_decoherence_model,
    coherence_experiment,
    env_vacuum_projector,
    evolve,
    fidelity,
    parity_generators,
    partial_trace,
    pure_state,
    symmetrize_operator,
    close_group,
)
from dfslab.states import _check_states

EVOLVE_TOL = 1e-12
REFERENCE_TOL = 1e-12

SZ = np.diag([1.0, -1.0])


def small_model(w=0.3, n_max=2):
    return build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.0]]),
        w_int=np.array([[w]]),
        n_max=n_max,
    )


def level_code(sys_dim, levels=(0, 1)):
    rows = np.zeros((len(levels), sys_dim), dtype=complex)
    for k, lv in enumerate(levels):
        rows[k, lv] = 1.0
    return SubspaceBasis(ambient_dim=sys_dim, vectors=rows)


def mixed_coded_state(model, weights, amp_rows):
    """Mixture of code x vacuum pure states, one per row of amplitudes."""
    sys_dim = model.system_space.dim
    vac = np.eye(model.env_space.dim)[0]
    rho = np.zeros((sys_dim * vac.size,) * 2, dtype=complex)
    for p, amps in zip(weights, amp_rows):
        vec_sys = np.zeros(sys_dim, dtype=complex)
        vec_sys[: len(amps)] = amps
        vec = np.kron(vec_sys, vac)
        rho += p * np.outer(vec, vec.conj())
    return DensityMatrix(Operator(rho), dims=(sys_dim, vac.size))


def coded_state(model, amps):
    amps = np.asarray(amps, dtype=complex)
    return mixed_coded_state(model, (1.0,), (amps / np.linalg.norm(amps),))


def reference_experiment(model, code, rho0, times):
    """The density-matrix path: evolve rho0 to each time, project, trace out."""
    env_dim = model.env_space.dim
    p_code = np.kron(code.projector().mat, np.eye(env_dim)) @ env_vacuum_projector(model).mat
    rho_sys0 = partial_trace(rho0, keep=(0,))
    h_full = model.h_total
    out = []
    for ham in (h_full, symmetrized(model)):
        leaks, fids = [], []
        for t in times:
            rho_t = evolve(ham, rho0, t)
            leaks.append(1.0 - float(np.real(np.trace(p_code @ rho_t.op.mat))))
            fids.append(fidelity(rho_sys0, partial_trace(rho_t, keep=(0,))))
        out.append((np.array(leaks), np.array(fids)))
    return out


def assert_matches_reference(model, code, rho0, times):
    got = coherence_experiment(model, code, rho0, times)
    for traj, (leaks, fids) in zip(got, reference_experiment(model, code, rho0, times)):
        assert float(np.abs(traj.leakages - np.clip(leaks, 0.0, 1.0)).max()) < REFERENCE_TOL
        assert float(np.abs(traj.fidelities - np.clip(fids, 0.0, 1.0)).max()) < REFERENCE_TOL
    return got


def test_zero_hamiltonian_is_identity_channel():
    rho = pure_state(np.array([0.6, 0.8]))
    out = evolve(Operator(np.zeros((2, 2))), rho, 3.7)
    assert float(np.abs(out.op.mat - rho.op.mat).max()) < EVOLVE_TOL


def test_eigenstate_is_stationary():
    rho = pure_state(np.array([1.0, 0.0]))
    out = evolve(Operator(SZ), rho, 2.0)
    assert float(np.abs(out.op.mat - rho.op.mat).max()) < EVOLVE_TOL


def test_qubit_phase_oracle():
    """Under sigma_z the |+> coherence rotates as exp(-2it)."""
    plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    for t in (0.0, 0.3, 1.7):
        out = evolve(Operator(SZ), plus, t)
        assert out.op.mat[0, 1] == pytest.approx(0.5 * np.exp(-2.0j * t), abs=1e-12)


def test_evolution_preserves_trace_and_energy():
    rng = np.random.Generator(np.random.Philox(41))
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = Operator(h + h.conj().T)
    p = rng.dirichlet(np.ones(3))
    rho = DensityMatrix(Operator(np.diag(p.astype(complex))))
    for t in (0.5, 2.0):
        out = evolve(h, rho, t)
        assert abs(np.trace(out.op.mat) - 1.0) < 1e-12
        e0 = np.real(np.trace(rho.op.mat @ h.mat))
        e1 = np.real(np.trace(out.op.mat @ h.mat))
        assert abs(e0 - e1) < 1e-10


def test_trajectory_bounds_are_enforced():
    t = np.array([0.0, 1.0])
    with pytest.raises(DomainError):
        Trajectory(t, np.array([0.5, 1.5]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        Trajectory(t, np.array([0.5, 0.5]), np.array([-1e-3, 0.0]))


def test_trajectory_clips_float_noise():
    t = np.array([0.0, 1.0])
    traj = Trajectory(t, np.array([1.0 + 1e-12, 0.5]), np.array([-1e-12, 0.25]))
    assert traj.fidelities[0] == 1.0
    assert traj.leakages[0] == 0.0


def test_trajectory_rejects_ragged_arrays():
    with pytest.raises(ShapeError):
        Trajectory(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0, 0.0]))


def test_decoupled_model_full_equals_symmetrized():
    model = small_model(w=0.0)
    code = level_code(model.system_space.dim)
    rho0 = coded_state(model, [1.0, 1.0])
    times = np.linspace(0.0, 5.0, 11)
    full, sym = coherence_experiment(model, code, rho0, times)
    assert np.array_equal(full.times, times)
    assert float(np.abs(full.leakages - sym.leakages).max()) < 1e-12
    assert float(np.abs(full.fidelities - sym.fidelities).max()) < 1e-12
    assert float(full.leakages.max()) < 1e-10


def test_symmetrized_dynamics_protects_the_code():
    model = small_model(w=0.3, n_max=3)
    code = level_code(model.system_space.dim)
    rho0 = coded_state(model, [1.0, 1.0])
    times = np.arange(0.0, 10.0001, 0.5)
    full, sym = coherence_experiment(model, code, rho0, times)
    assert float(sym.leakages.max()) <= 1e-10
    assert float(full.leakages.max()) > 1e-4


def test_experiment_rejects_unsupported_initial_state():
    model = small_model()
    code = level_code(model.system_space.dim)
    sys_dim = model.system_space.dim
    env_dim = model.env_space.dim
    vec = np.kron(np.eye(sys_dim)[0], np.eye(env_dim)[1])  # one env quantum
    rho0 = DensityMatrix(Operator(np.outer(vec, vec)), dims=(sys_dim, env_dim))
    with pytest.raises(UsageError):
        coherence_experiment(model, code, rho0, np.array([0.0, 1.0]))


def test_experiment_accepts_a_state_in_a_complex_code_basis():
    model = small_model(n_max=1)
    row = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    code = SubspaceBasis(model.system_space.dim, row[None, :])
    assert code.residual(row) < 1e-15
    full, sym = coherence_experiment(model, code, coded_state(model, row), np.array([0.0, 1.0]))
    assert full.leakages[0] < 1e-12 and sym.leakages[0] < 1e-12
    with pytest.raises(UsageError):
        coherence_experiment(model, code, coded_state(model, row.conj()), np.array([0.0, 1.0]))


def test_experiment_rejects_empty_times():
    model = small_model()
    code = level_code(model.system_space.dim)
    rho0 = coded_state(model, [1.0, 0.0])
    with pytest.raises(UsageError):
        coherence_experiment(model, code, rho0, np.array([]))


def test_experiment_rejects_foreign_code_basis():
    model = small_model()
    code = level_code(model.system_space.dim + 1)
    rho0 = coded_state(model, [1.0, 0.0])
    with pytest.raises(ShapeError):
        coherence_experiment(model, code, rho0, np.array([0.0]))


def two_mode_complex_w_model():
    return build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.2, 0.1], [0.1, 0.8]]),
        w_int=np.array([[0.4 + 0.2j, 0.25 - 0.3j]]),
        n_max=2,
    )


def test_experiment_matches_density_matrix_path_two_modes_complex_w():
    model = two_mode_complex_w_model()
    code = level_code(model.system_space.dim)
    rho0 = coded_state(model, [1.0, 1.0j])
    full, _ = assert_matches_reference(model, code, rho0, np.linspace(0.0, 6.0, 13))
    assert float(full.leakages.max()) > 1e-4


def test_experiment_matches_density_matrix_path_unequal_moduli():
    """Unequal moduli used to leave ~1e-8 roundoff in the reference's
    fidelities, whose pure first argument went through a matrix square root."""
    model = two_mode_complex_w_model()
    code = level_code(model.system_space.dim)
    rho0 = coded_state(model, [1.0, 0.6 - 0.8j])
    full, _ = assert_matches_reference(model, code, rho0, np.linspace(0.0, 6.0, 13))
    assert float(full.leakages.max()) > 1e-4


def test_experiment_matches_density_matrix_path_rank_two_state():
    model = small_model(w=0.45, n_max=3)
    code = level_code(model.system_space.dim, levels=(0, 1, 2))
    s = np.sqrt(0.5)
    rho0 = mixed_coded_state(model, (0.7, 0.3), ([s, s * 1j, 0.0], [s, -s * 1j, 0.0]))
    assert np.linalg.matrix_rank(rho0.op.mat) == 2
    full, sym = assert_matches_reference(model, code, rho0, np.linspace(0.0, 8.0, 17))
    assert float(full.leakages.max()) > 1e-4
    assert float(sym.leakages.max()) <= 1e-10


def factor_calls(monkeypatch):
    """The shapes of the matrices the experiment factors by eigenpairs."""
    from dfslab import dynamics

    shapes = []
    original = dynamics._factor

    def recording(mat):
        shapes.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(dynamics, "_factor", recording)
    return shapes


def test_experiment_matches_density_matrix_path_more_columns_than_system_levels(monkeypatch):
    """A rank-three state on three system levels whose members carry
    off-vacuum amplitudes of 1e-7, inside SUPPORT_TOL: its M has more
    nonzero columns than system levels, so the system factor comes from the
    eigenpairs of M M^dag.  A pure product state's M has one nonzero
    column, which is the factor itself."""
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.2, 0.1], [0.1, 0.8]]),
        w_int=np.array([[0.4 + 0.2j, 0.25 - 0.3j]]),
        n_max=2,
    )
    sys_dim, env_dim = model.system_space.dim, model.env_space.dim
    assert (sys_dim, env_dim) == (3, 9)
    code = level_code(sys_dim, levels=range(sys_dim))
    rng = np.random.Generator(np.random.Philox(59))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rho = np.zeros((sys_dim * env_dim,) * 2, dtype=complex)
    for p, v in zip((0.5, 0.3, 0.2), q.T):
        m = np.zeros((sys_dim, env_dim), dtype=complex)
        m[:, 0] = v
        off = (sys_dim, env_dim - 1)
        m[:, 1:] = 1e-7 * (rng.normal(size=off) + 1j * rng.normal(size=off))
        psi = m.reshape(-1) / np.linalg.norm(m)
        rho += p * np.outer(psi, psi.conj())
    rho0 = DensityMatrix(Operator(rho), dims=(sys_dim, env_dim))
    shapes = factor_calls(monkeypatch)
    full, _ = assert_matches_reference(model, code, rho0, np.linspace(0.0, 6.0, 13))
    assert shapes == [(sys_dim, sys_dim)]
    assert float(full.leakages.max()) > 1e-4
    shapes.clear()
    product = pure_state(np.kron(np.array([0.8, 0.6j, 0.0]), np.eye(env_dim)[0]), dims=(sys_dim, env_dim))
    assert_matches_reference(model, code, product, np.linspace(0.0, 6.0, 13))
    assert shapes == []


def test_experiment_rejects_mixed_state_leaking_out_of_the_code():
    model = small_model()
    code = level_code(model.system_space.dim, levels=(0, 1))
    rho0 = mixed_coded_state(model, (0.9, 0.1), ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
    with pytest.raises(UsageError):
        coherence_experiment(model, code, rho0, np.array([0.0, 1.0]))


def density_stack(rng, n, d):
    mats = []
    for _ in range(n):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        mats.append(rho / np.trace(rho).real)
    return np.stack(mats)


def test_state_checks_cover_every_member_of_a_stack():
    rng = np.random.Generator(np.random.Philox(51))
    good = density_stack(rng, 5, 4)
    _check_states(good)
    skewed = good.copy()
    skewed[3, 0, 1] += 1e-6
    heavy = good.copy()
    heavy[2] *= 1.1
    negative = good.copy()
    vals, vecs = np.linalg.eigh(good[4])
    vals[0] = -1e-9
    vals[1:] += (1.0 - vals.sum()) / 3
    negative[4] = (vecs * vals) @ vecs.conj().T
    for bad, message in ((skewed, "Hermitian"), (heavy, "trace"), (negative, "positivity")):
        with pytest.raises(DomainError, match=message):
            _check_states(bad)


def two_by_two_model(n_max, seed=52):
    """Two system and two environment modes, dimension (n_max + 1)^4."""
    rng = np.random.Generator(np.random.Philox(seed))
    w = rng.uniform(0.2, 1.0, size=(2, 2)) * np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
    return build_decoherence_model(
        k_sys=np.array([[1.0, 0.3], [0.3, 0.7]]),
        lam_env=np.array([[1.1, 0.2j], [-0.2j, 0.9]]),
        w_int=w,
        n_max=n_max,
    )


def touched_size(ham, occupied):
    """How many indices the nonzero entries of ham join to ``occupied``,
    breadth first over the dense pattern."""
    joined = (ham.mat != 0) | (ham.mat != 0).T
    seen = np.zeros(ham.dim, dtype=bool)
    seen[occupied] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = joined[frontier].any(axis=0) & ~seen
        seen |= frontier
    return int(seen.sum())


def symmetrized(model):
    return symmetrize_operator(close_group(parity_generators(model)), model.h_total)


def test_experiment_matches_density_matrix_path_full_superposition_dim_1296():
    """A state on every system level touches many blocks of h_total."""
    model = two_by_two_model(n_max=5)
    assert model.h_total.dim == 1296
    sys_dim = model.system_space.dim
    rng = np.random.Generator(np.random.Philox(53))
    amps = rng.normal(size=sys_dim) + 1j * rng.normal(size=sys_dim)
    rho0 = coded_state(model, amps)
    occupied = np.flatnonzero(np.diagonal(rho0.op.mat))
    assert occupied.size == sys_dim
    assert touched_size(model.h_total, occupied) > sys_dim * 10
    full, sym = assert_matches_reference(model, level_code(sys_dim, range(sys_dim)), rho0, [1.3])
    assert float(full.leakages.max()) > 1e-4
    assert float(sym.leakages.max()) <= 1e-10


def test_experiment_matches_density_matrix_path_rank_two_state_dim_256():
    model = two_by_two_model(n_max=3, seed=54)
    sys_dim = model.system_space.dim
    code = level_code(sys_dim, levels=range(sys_dim))
    rng = np.random.Generator(np.random.Philox(55))
    amps = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    rho0 = mixed_coded_state(model, (0.65, 0.35), amps)
    assert np.linalg.matrix_rank(rho0.op.mat) == 2
    full, sym = assert_matches_reference(model, code, rho0, np.linspace(0.0, 4.0, 5))
    assert float(full.leakages.max()) > 1e-4
    assert float(sym.leakages.max()) <= 1e-10


def test_experiment_matches_density_matrix_path_complex_code_basis_dim_256():
    model = two_by_two_model(n_max=3, seed=56)
    sys_dim = model.system_space.dim
    rng = np.random.Generator(np.random.Philox(57))
    q, _ = np.linalg.qr(rng.normal(size=(sys_dim, 3)) + 1j * rng.normal(size=(sys_dim, 3)))
    code = SubspaceBasis(sys_dim, q.T)
    amps = q @ np.array([0.6, 0.48j, -0.64])
    # a random code is not invariant under h_sys, so both Hamiltonians leak
    full, _ = assert_matches_reference(model, code, coded_state(model, amps), np.linspace(0.0, 4.0, 5))
    assert full.leakages[0] < 1e-12 and float(full.leakages.max()) > 1e-4


def test_experiment_at_dim_1296_diagonalizes_only_blocks(monkeypatch):
    """Every eigenproblem on the experiment's path is at most the total size
    of the blocks the initial state touches (5 of 1296 under h_total, 3
    under the symmetrized Hamiltonian), never the full space.  Checks
    shapes, not time."""
    model = two_by_two_model(n_max=5)
    assert model.h_total.dim == 1296
    sys_dim = model.system_space.dim
    code = level_code(sys_dim, levels=range(sys_dim))
    rho0 = coded_state(model, [1.0, 1.0])
    occupied = np.flatnonzero(np.diagonal(rho0.op.mat))
    touched = [touched_size(ham, occupied) for ham in (model.h_total, symmetrized(model))]
    assert touched == [5, 3]
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    full, sym = coherence_experiment(model, code, rho0, np.linspace(0.0, 5.0, 11))
    assert sizes and max(sizes) <= max(touched)
    assert float(sym.leakages.max()) <= 1e-10


def three_plus_one_model(n_max):
    """Three system modes and one environment mode."""
    return build_decoherence_model(
        k_sys=np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]]),
        lam_env=np.array([[1.0]]),
        w_int=np.array([[0.4], [0.3], [0.25]]),
        n_max=n_max,
    )


def test_experiment_memory_is_bounded_by_the_chunk_not_the_sample_count(monkeypatch):
    """A full superposition reaches all 64 system levels, so the reduced
    states of 2,000 samples would be 2000 * 64^2 * 16 B = 131 MB at once;
    chunks of at most CHUNK_ELEMENTS entries keep the peak far below that,
    and the chunked trajectories are the unchunked ones."""
    import tracemalloc

    from dfslab import dynamics

    model = three_plus_one_model(n_max=3)
    sys_dim = model.system_space.dim
    assert sys_dim == 64
    code = level_code(sys_dim, levels=range(sys_dim))
    rho0 = pure_state(np.kron(np.full(sys_dim, 1.0 / 8.0), np.eye(model.env_space.dim)[0]), dims=(sys_dim, 4))
    times = np.linspace(0.0, 10.0, 2000)
    whole = coherence_experiment(model, code, rho0, times[:40])
    monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", 1 << 16)
    tracemalloc.start()
    try:
        full, sym = coherence_experiment(model, code, rho0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times.size * sys_dim**2 * 16 // 8
    assert float(full.leakages.max()) > 1e-4 and float(sym.leakages.max()) <= 1e-10
    for chunked, one in zip((full, sym), whole):
        assert np.abs(chunked.leakages[:40] - one.leakages).max() <= 1e-15
        assert np.abs(chunked.fidelities[:40] - one.fidelities).max() <= 1e-15
