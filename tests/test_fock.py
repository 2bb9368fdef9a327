import dataclasses

import numpy as np
import pytest
from conftest import kron, kronecker_sum_dense

from dfslab import (
    Background,
    BudgetError,
    CliffordPair,
    DiracOperator,
    DomainError,
    FockSpace,
    ShapeError,
    UsageError,
    build_decoherence_model,
    build_string_model,
    clifford_pair,
    dfs_from_dirac,
    duality_substitution,
    env_vacuum_projector,
    gamma_pair_norm,
    hw_mode,
    interior_indices,
    kernel_basis,
    ladder,
    number_operator,
    Operator,
    parity_generators,
    position_momentum,
    SubspaceBasis,
    unitary_exp,
)

INTERIOR_TOL = 1e-12


def interior(space, mat):
    idx = interior_indices(space)
    return mat[np.ix_(idx, idx)]


def test_ladder_matrix_entries():
    space = FockSpace(1, 2)
    a, a_dag = ladder(space, 0)
    expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2.0)], [0, 0, 0]])
    assert np.array_equal(a.mat, expected)
    assert np.array_equal(a_dag.mat, expected.T)


def test_number_operator_diagonal():
    space = FockSpace(1, 3)
    n = number_operator(space, 0)
    # built as a_dag @ a, so sqrt(n)**2 wobbles in the last ulp
    assert float(np.abs(n.mat - np.diag([0.0, 1.0, 2.0, 3.0])).max()) < 1e-14


def test_canonical_commutator_on_interior():
    space = FockSpace(1, 5)
    a, a_dag = ladder(space, 0)
    comm = a.mat @ a_dag.mat - a_dag.mat @ a.mat
    inner = interior(space, comm)
    assert float(np.abs(inner - np.eye(len(inner))).max()) < INTERIOR_TOL


def test_quadratures_hermitian_and_conjugate():
    space = FockSpace(1, 4)
    x, p = position_momentum(space, 0)
    assert float(np.abs(x.mat - x.mat.conj().T).max()) < INTERIOR_TOL
    assert float(np.abs(p.mat - p.mat.conj().T).max()) < INTERIOR_TOL
    comm = interior(space, x.mat @ p.mat - p.mat @ x.mat)
    assert float(np.abs(comm - 1j * np.eye(len(comm))).max()) < INTERIOR_TOL


def test_truncated_oscillator_ground_energy():
    space = FockSpace(1, 12)
    x, p = position_momentum(space, 0)
    h = 0.5 * (p.mat @ p.mat + x.mat @ x.mat)
    lowest = float(np.linalg.eigvalsh(h)[0])
    assert abs(lowest - 0.5) < 1e-6


def test_multimode_ordering_first_mode_slowest():
    space = FockSpace(2, 2)
    n0 = number_operator(space, 0)
    n1 = number_operator(space, 1)
    assert np.allclose(np.diag(n0.mat).real, np.repeat([0.0, 1.0, 2.0], 3), atol=1e-14)
    assert np.allclose(np.diag(n1.mat).real, np.tile([0.0, 1.0, 2.0], 3), atol=1e-14)


def test_interior_indices_two_modes():
    space = FockSpace(2, 2)
    assert list(interior_indices(space)) == [0, 1, 3, 4]


def test_occupations_roundtrip():
    space = FockSpace(2, 3)
    assert space.occupations(0) == (0, 0)
    assert space.occupations(5) == (1, 1)
    assert space.dim == 16


def test_space_validation():
    with pytest.raises(DomainError):
        FockSpace(1, 0)
    with pytest.raises(DomainError):
        FockSpace(0, 2)
    with pytest.raises(BudgetError):
        FockSpace(7, 3)  # 4**7 = 16384


def test_hw_level_one_identity_metric_is_plain_ladder():
    space = FockSpace(1, 3)
    a, _ = ladder(space, 0)
    (e,) = hw_mode(space, 1, np.array([[1.0]]))
    assert float(np.abs(e.mat - a.mat).max()) < INTERIOR_TOL


def test_hw_interior_commutators_scale_with_level_and_metric():
    eta = np.array([[2.0, 1.0], [1.0, 2.0]])
    for level in (1, 2):
        space = FockSpace(2, 4)
        ops = hw_mode(space, level, eta)
        for i in range(2):
            for j in range(2):
                comm = ops[i].mat @ ops[j].mat.conj().T - ops[j].mat.conj().T @ ops[i].mat
                inner = interior(space, comm)
                target = level * eta[i, j] * np.eye(len(inner))
                assert float(np.abs(inner - target).max()) < INTERIOR_TOL


def test_hw_modes_argument_places_levels_on_disjoint_factors():
    eta = np.array([[1.5]])
    space = FockSpace(2, 2)
    (e1,) = hw_mode(space, 1, eta, modes=(0,))
    (e2,) = hw_mode(space, 2, eta, modes=(1,))
    comm = e1.mat @ e2.mat - e2.mat @ e1.mat
    assert float(np.abs(comm).max()) < INTERIOR_TOL


def test_hw_modes_argument_validation():
    space = FockSpace(2, 2)
    eta = np.eye(2)
    with pytest.raises(UsageError):
        hw_mode(space, 1, eta, modes=(0, 0))
    with pytest.raises(UsageError):
        hw_mode(space, 1, eta, modes=(0, 5))
    with pytest.raises(DomainError):
        hw_mode(space, 0, np.array([[1.0]]))
    with pytest.raises(DomainError):
        hw_mode(space, 1, np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_decoherence_model_shapes_and_hermiticity():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.0]]),
        w_int=np.array([[0.3]]),
        n_max=3,
    )
    dim = model.space.dim
    assert dim == model.system_space.dim * model.env_space.dim
    for h in (model.h_sys, model.h_env, model.h_int, model.h_total):
        assert float(np.abs(h.mat - h.mat.conj().T).max()) < 1e-12


def test_decoherence_model_decouples_at_zero_interaction():
    model = build_decoherence_model(
        k_sys=np.array([[1.3]]),
        lam_env=np.array([[0.9]]),
        w_int=np.array([[0.0]]),
        n_max=2,
    )
    assert float(np.abs(model.h_int.mat).max()) == 0.0
    rebuilt = np.kron(model.h_sys.mat, np.eye(model.env_space.dim)) + np.kron(
        np.eye(model.system_space.dim), model.h_env.mat
    )
    assert np.array_equal(model.h_total.mat, rebuilt)


def test_decoherence_model_rejects_mismatched_interaction():
    with pytest.raises(ShapeError):
        build_decoherence_model(
            k_sys=np.array([[1.0]]),
            lam_env=np.eye(2),
            w_int=np.array([[0.3]]),
            n_max=2,
        )


def test_parity_conjugation_flips_environment_ladders():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.0]]),
        w_int=np.array([[0.3]]),
        n_max=3,
    )
    (theta,) = parity_generators(model)
    u = unitary_exp(theta)
    a_env, _ = ladder(model.env_space, 0)
    e_full = np.kron(np.eye(model.system_space.dim), a_env.mat)
    conj = u.mat.conj().T @ e_full @ u.mat
    assert float(np.abs(conj + e_full).max()) < 1e-12


def test_env_vacuum_projector_is_rank_sys_dim():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.0, 0.0], [0.0, 2.0]]),
        w_int=np.array([[0.1, 0.2]]),
        n_max=2,
    )
    proj = env_vacuum_projector(model)
    assert int(round(np.real(np.trace(proj.mat)))) == model.system_space.dim
    assert float(np.abs(proj.mat @ proj.mat - proj.mat).max()) < 1e-12


def test_clifford_pair_identity_metric():
    pair = clifford_pair(np.eye(1))
    assert pair.rep_dim == 2
    gp = pair.gamma_plus[0].mat
    gm = pair.gamma_minus[0].mat
    assert float(np.abs(gp @ gp - np.eye(2)).max()) < 1e-12
    assert float(np.abs(gm @ gm + np.eye(2)).max()) < 1e-12
    assert float(np.abs(gp @ gm + gm @ gp).max()) < 1e-12


def test_clifford_pair_general_metric_relations():
    eta = np.array([[2.0, 0.5], [0.5, 1.0]])
    pair = clifford_pair(eta)
    assert pair.rep_dim == 4
    for i in range(2):
        for j in range(2):
            gp_i, gp_j = pair.gamma_plus[i].mat, pair.gamma_plus[j].mat
            gm_i, gm_j = pair.gamma_minus[i].mat, pair.gamma_minus[j].mat
            eye = np.eye(4)
            assert float(np.abs(gp_i @ gp_j + gp_j @ gp_i - 2 * eta[i, j] * eye).max()) < 1e-12
            assert float(np.abs(gm_i @ gm_j + gm_j @ gm_i + 2 * eta[i, j] * eye).max()) < 1e-12
            assert float(np.abs(gp_i @ gm_j + gm_j @ gp_i).max()) < 1e-12


def test_clifford_pair_rejects_inconsistent_arrays():
    good = clifford_pair(np.eye(1))
    with pytest.raises(DomainError):
        CliffordPair(np.eye(1), good.gamma_plus, good.gamma_plus)


def string_background(value=1.0):
    return Background(np.array([[value]]), np.zeros((1, 1)))


def test_string_model_dimensions():
    model = build_string_model(string_background(), n_max=2, levels=1)
    assert model.dim == 2 * 3 * 3 * 3
    assert model.system_space.dim == 3
    assert model.tower_space.dim == 3


def test_string_model_budget_message_reports_factors():
    with pytest.raises(BudgetError) as err:
        build_string_model(string_background(), n_max=15, levels=2)
    assert "budget" in str(err.value)


def test_string_hamiltonian_is_oscillator_at_unit_metric():
    model = build_string_model(string_background(1.0), n_max=3, levels=1)
    x, p = model.x[0].mat, model.p[0].mat
    direct = 0.5 * (p @ p + x @ x)
    assert float(np.abs(model.h_sys.mat - direct).max()) < 1e-12


def test_dirac_parts_have_expected_symmetry():
    coupled = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.4], [-0.4, 0.0]]))
    for model in (
        build_string_model(string_background(2.25), n_max=2, levels=1),
        build_string_model(string_background(0.7), n_max=2, levels=2),
        build_string_model(coupled, n_max=1, levels=1),
    ):
        d, d_bar = model.d.mat, model.d_bar.mat
        assert np.array_equal(d_bar, d.conj().T)
        # (d + d_bar)/2 = D+ is Hermitian and (d - d_bar)/2 = D- anti-Hermitian
        d_plus = 0.5 * (d + d_bar)
        d_minus = 0.5 * (d - d_bar)
        assert np.array_equal(d_plus, d_plus.conj().T)
        assert np.array_equal(d_minus, -d_minus.conj().T)
        assert np.abs(d_plus).max() > 0.1 and np.abs(d_minus).max() > 0.1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("levels", [1, 2])
def test_towers_are_hw_mode_operators(n, levels):
    metric = np.array([[1.7]]) if n == 1 else np.array([[1.0, 0.3], [0.3, 2.0]])
    background = Background(metric, np.zeros((n, n)))
    model = build_string_model(background, n_max=1, levels=levels)
    assert model.e_minus is model.e_plus
    assert len(model.e_plus) == levels
    for m, ops in enumerate(model.e_plus, start=1):
        ref = hw_mode(model.tower_space, m, metric, modes=range((m - 1) * n, m * n))
        assert len(ops) == n
        for op, expected in zip(ops, ref):
            assert np.array_equal(op.mat, expected.mat)


def test_string_model_stores_one_full_space_matrix():
    """Only d is a (dim, dim) matrix; d_bar is derived from it on access."""
    model = build_string_model(string_background(2.25), n_max=2, levels=1)
    full = []
    for field in dataclasses.fields(model):
        value = getattr(model, field.name)
        mat = value.mat if isinstance(value, Operator) else value
        if isinstance(mat, np.ndarray) and mat.shape == (model.dim, model.dim):
            full.append(field.name)
    assert full == ["d"]


def test_dfs_from_dirac_block_example():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = np.zeros((4, 4))
    d[:2, :2] = sx
    kernel = dfs_from_dirac(Operator(d))
    assert kernel.vectors.shape[0] == 2


def test_dbar_kernel_dimension_frozen():
    model = build_string_model(string_background(2.25), n_max=2, levels=1)
    kernel = dfs_from_dirac(model.d_bar, tol=1e-9)
    assert kernel.vectors.shape[0] == 6
    # residual actually certifies the kernel, not just the count
    worst = float(np.abs(model.d_bar.mat @ kernel.vectors.T).max())
    assert worst < 1e-9


@pytest.mark.parametrize("n_max, levels", [(4, 1), (2, 2)])
def test_sector_kernel_matches_dense_svd(n_max, levels):
    model = build_string_model(string_background(1.7), n_max=n_max, levels=levels)
    assert model.dim in (250, 486)
    for dirac in (model.d, model.d_bar):
        kernel = dfs_from_dirac(dirac, tol=1e-9)
        _, sigma, vh = np.linalg.svd(dirac.mat)
        oracle = vh[sigma <= 1e-9 * sigma[0]].conj()
        assert kernel.size == oracle.shape[0]
        proj = kernel.vectors.T @ kernel.vectors.conj()
        assert np.abs(proj - oracle.T @ oracle.conj()).max() < 1e-10


def test_gamma_pair_norm_is_basis_invariant():
    model = build_string_model(string_background(2.25), n_max=2, levels=1)
    kernel = dfs_from_dirac(model.d_bar, tol=1e-9)
    rng = np.random.Generator(np.random.Philox(92))
    raw = rng.normal(size=(kernel.size,) * 2) + 1j * rng.normal(size=(kernel.size,) * 2)
    rotated = SubspaceBasis(model.dim, np.linalg.qr(raw)[0] @ kernel.vectors)
    eye_rest = np.eye(model.dim // model.clifford.rep_dim)
    pair = model.clifford.gamma_plus[0].mat + model.clifford.gamma_minus[0].mat
    dense = np.linalg.norm(np.kron(pair, eye_rest) @ kernel.vectors.T, 2)
    for basis in (kernel, rotated):
        assert abs(gamma_pair_norm(model, basis) - dense) < 1e-12
    assert abs(dense - 4.0 / 3.0) < 1e-12
    with pytest.raises(UsageError):
        gamma_pair_norm(model, SubspaceBasis(model.dim, np.zeros((0, model.dim))))
    with pytest.raises(ShapeError):
        gamma_pair_norm(model, dfs_from_dirac(Operator(np.zeros((3, 3)))))


def test_substitution_exact_for_single_direction():
    model = build_string_model(string_background(2.25), n_max=1, levels=1)
    report = duality_substitution(model)
    assert report.max_residual < 1e-12
    assert report.max_gram_residual < 1e-12


def test_substitution_random_single_direction_metrics():
    rng = np.random.Generator(np.random.Philox(71))
    for _ in range(5):
        value = float(rng.uniform(0.3, 3.0))
        model = build_string_model(string_background(value), n_max=1, levels=1)
        report = duality_substitution(model)
        assert report.max_residual < 1e-12


def test_substitution_two_directions_gauge_invariant_match():
    background = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.zeros((2, 2)))
    model = build_string_model(background, n_max=1, levels=1)
    report = duality_substitution(model)
    assert report.max_gram_residual < 1e-12
    assert set(report.substituted) == set(report.dual)


def running_sum_dirac(model):
    """d as the parent formula: the running sum of four dense Kronecker
    products per direction."""
    eye_s = np.eye(model.system_space.dim)
    eye_t = np.eye(model.tower_space.dim)
    d = np.zeros((model.dim,) * 2, dtype=np.complex128)
    for i in range(model.background.n):
        env = sum(op.mat + op.mat.conj().T for op in (lvl[i] for lvl in model.e_plus))
        gp, gm = model.clifford.gamma_plus[i].mat, model.clifford.gamma_minus[i].mat
        d += kron(gp, model.a_plus[i].mat, eye_t, eye_t)
        d += kron(gp, eye_s, env, eye_t)
        d += kron(gm, model.a_minus[i].mat, eye_t, eye_t)
        d += kron(gm, eye_s, eye_t, env)
    return d


@pytest.mark.parametrize(
    "metric, coupling, n_max, levels",
    [
        ([[2.25]], [[0.0]], 4, 1),
        ([[0.7]], [[0.0]], 2, 2),
        ([[1.0, 0.3], [0.3, 2.0]], [[0.0, 0.4], [-0.4, 0.0]], 1, 1),
        ([[1.0, 0.3], [0.3, 2.0]], [[0.0, 0.4], [-0.4, 0.0]], 2, 1),
        # a full Cholesky factor: G+_2 and G+_3 add gamma terms on shared
        # entries, so their products are complex times complex
        ([[2.0, 0.6, 0.3], [0.6, 1.5, 0.4], [0.3, 0.4, 1.2]], [[0.0] * 3] * 3, 1, 1),
    ],
)
def test_string_model_operators_equal_the_summed_tensor_products(metric, coupling, n_max, levels):
    model = build_string_model(Background(np.array(metric), np.array(coupling)), n_max, levels)
    assert np.array_equal(model.d.mat, running_sum_dirac(model))
    eta_l = np.linalg.inv(model.background.metric)
    n = model.background.n
    half = sum(
        eta_l[i, j] * (ops[i].mat.conj().T @ ops[j].mat)
        for ops in model.e_plus
        for i in range(n)
        for j in range(n)
    )
    eye_t = np.eye(model.tower_space.dim)
    assert np.array_equal(model.h_env.mat, np.kron(half, eye_t) + np.kron(eye_t, half))


@pytest.mark.parametrize("n_max, levels, metric", [(2, 1, 2.25), (4, 1, 0.7), (2, 2, 1.7), (3, 2, 2.25)])
def test_one_direction_dirac_operator_is_its_split(n_max, levels, metric):
    model = build_string_model(string_background(metric), n_max, levels)
    split = model.d.split
    assert split.scale > 0
    assert np.array_equal(split.upper[0], model.a_plus[0].mat + model.a_minus[0].mat)
    assert np.array_equal(split.lower[0], model.a_plus[0].mat - model.a_minus[0].mat)
    env = sum(op.mat + op.mat.conj().T for op in (lvl[0] for lvl in model.e_plus))
    for got, want in zip(split.upper[1:] + split.lower[1:], (env, env, env, -env)):
        assert np.array_equal(got, want)
    raise_, lower_ = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    expected = split.scale * (
        np.kron(raise_, kronecker_sum_dense(split.upper)) + np.kron(lower_, kronecker_sum_dense(split.lower))
    )
    assert np.abs(model.d.mat - expected).max() <= 1e-14 * np.abs(model.d.mat).max()
    # the adjoint swaps the two sums
    bar = model.d_bar.split
    assert bar.scale == split.scale and bar.upper is split.lower and bar.lower is split.upper


# (n_max, levels, metric): with metric 2.25, n_max 1 has an empty kernel;
# with metric 0.25 its grid value 1 - 1/2 - 1/2 vanishes
FACTORED_CASES = [
    (1, 1, 2.25),
    (1, 1, 0.25),
    (2, 1, 2.25),
    (3, 1, 0.7),
    (4, 1, 1.7),
    (7, 1, 2.25),
    (8, 1, 2.25),
    (8, 1, 0.45),
    (1, 2, 1.3),
    (2, 2, 2.25),
    (3, 2, 0.7),
]


@pytest.mark.parametrize("n_max, levels, metric", FACTORED_CASES)
def test_factored_kernel_matches_the_svd_oracle(n_max, levels, metric, svd_dtypes):
    model = build_string_model(string_background(metric), n_max, levels)
    for dirac in (model.d, model.d_bar):
        svd_dtypes.clear()
        kernel = dfs_from_dirac(dirac, tol=1e-9)
        assert not svd_dtypes
        oracle = kernel_basis(dirac, tol=1e-9)
        assert kernel.size == oracle.size
        assert np.abs(kernel.projector().mat - oracle.projector().mat).max(initial=0.0) < 1e-10
        assert abs(kernel.sigma_max - oracle.sigma_max) <= 1e-12 * oracle.sigma_max
        # the certificate multiplies d's entries; the dense BLAS product
        # rounds differently, by a few ulps of sigma_max
        measured = np.linalg.norm(dirac.mat @ kernel.vectors.T, axis=0).max(initial=0.0)
        assert abs(kernel.residual - float(measured)) <= 1e-15 * kernel.sigma_max
        assert kernel.residual <= 1e-9 * kernel.sigma_max * np.sqrt(model.dim)
    if (n_max, metric) == (1, 2.25):
        assert kernel.size == 0 and kernel.vectors.shape == (0, model.dim)
    if (n_max, levels, metric) == (1, 1, 0.25):
        assert kernel.size > 0


def test_a_split_that_disagrees_with_its_matrix_fails_the_certificate():
    model = build_string_model(string_background(2.25), n_max=2, levels=1)
    assert dfs_from_dirac(model.d, tol=1e-9).size > 0
    with pytest.raises(DomainError):
        dfs_from_dirac(DiracOperator(model.d.mat, split=model.d_bar.split), tol=1e-9)
    small = build_string_model(string_background(2.25), n_max=1, levels=1)
    with pytest.raises(ShapeError):
        dfs_from_dirac(DiracOperator(model.d.mat, split=small.d.split), tol=1e-9)


def test_two_direction_kernels_keep_the_block_svds(svd_dtypes):
    background = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.4], [-0.4, 0.0]]))
    model = build_string_model(background, n_max=1, levels=1)
    assert model.d.split is None and model.d_bar.split is None
    kernel = dfs_from_dirac(model.d_bar, tol=1e-9)
    assert svd_dtypes
    oracle = kernel_basis(model.d_bar, tol=1e-9)
    assert np.array_equal(kernel.vectors, oracle.vectors) and kernel.sigma_max == oracle.sigma_max


def test_decoherence_operators_equal_the_summed_tensor_products():
    rng = np.random.Generator(np.random.Philox(53))
    w = rng.uniform(0.2, 1.0, size=(2, 2)) * np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
    model = build_decoherence_model(
        k_sys=np.array([[1.0, 0.3], [0.3, 0.7]]),
        lam_env=np.array([[1.1, 0.2j], [-0.2j, 0.9]]),
        w_int=w,
        n_max=3,
    )
    a_ops = [ladder(model.system_space, i)[0].mat for i in range(2)]
    e_ops = [ladder(model.env_space, al)[0].mat for al in range(2)]
    h_int = np.zeros((model.space.dim,) * 2, dtype=np.complex128)
    for i in range(2):
        for al in range(2):
            term = np.kron(a_ops[i], e_ops[al].conj().T)
            h_int += w[i, al] * term + np.conj(w[i, al]) * term.conj().T
    eye_s = np.eye(model.system_space.dim)
    eye_e = np.eye(model.env_space.dim)
    h_total = np.kron(model.h_sys.mat, eye_e) + np.kron(eye_s, model.h_env.mat) + h_int
    assert np.array_equal(model.h_int.mat, h_int)
    assert np.array_equal(model.h_total.mat, h_total)
