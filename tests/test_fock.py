import dataclasses
import math

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
    coherence_experiment,
    dfs_from_dirac,
    duality_substitution,
    env_vacuum_projector,
    hw_mode,
    interior_indices,
    kernel_basis,
    ladder,
    normal_modes,
    onn_apply,
    onn_generators,
    Operator,
    parity_generators,
    position_momentum,
    pure_state,
    SubspaceBasis,
    tensor,
    tensor_sum,
    unitary_exp,
)
from dfslab import duality as duality_module
from dfslab import fock as fock_module
from dfslab.fock import _dual_side_arrays, _substitution_arrays
from dfslab.opcore import SYMMETRY_TOL

INTERIOR_TOL = 1e-12


@pytest.mark.parametrize("eta", [[[np.nan]], [[np.inf]], [[1.0, np.nan], [np.nan, 1.0]]])
def test_eta_rejects_non_finite_entries(eta):
    for build in (clifford_pair, lambda e: hw_mode(FockSpace(2, 1), 1, e)):
        with pytest.raises(DomainError, match="eta entries must be finite"):
            build(eta)


def interior(space, mat):
    idx = interior_indices(space)
    return mat[np.ix_(idx, idx)]


def test_ladder_matrix_entries():
    space = FockSpace(1, 2)
    a, a_dag = ladder(space, 0)
    expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2.0)], [0, 0, 0]])
    assert np.array_equal(a.mat, expected)
    assert np.array_equal(a_dag.mat, expected.T)


def number_operator(space, mode):
    """a_dag a on one mode of the space, from the full-space ladders."""
    a, a_dag = ladder(space, mode)
    return a_dag.mat @ a.mat


def test_number_operator_diagonal():
    space = FockSpace(1, 3)
    n = number_operator(space, 0)
    # built as a_dag @ a, so sqrt(n)**2 wobbles in the last ulp
    assert float(np.abs(n - np.diag([0.0, 1.0, 2.0, 3.0])).max()) < 1e-14


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
    assert np.allclose(np.diag(n0).real, np.repeat([0.0, 1.0, 2.0], 3), atol=1e-14)
    assert np.allclose(np.diag(n1).real, np.tile([0.0, 1.0, 2.0], 3), atol=1e-14)


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
    with pytest.raises(DomainError, match="minus-family anticommutators do not close"):
        CliffordPair(np.eye(1), good.gamma_plus, good.gamma_plus)


def per_matrix_gamma_sums(eta):
    """The gamma families as one matrix at a time: each Jordan-Wigner gamma
    a tensor product of Paulis, each G+_i and G-_i a running sum over a."""
    n = eta.shape[0]
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    gammas = [tensor(*[z] * k, pauli, *[2] * (n - k - 1)).mat for k in range(n) for pauli in (x, y)]
    ell = np.linalg.cholesky(eta)
    plus, minus = [], []
    for i in range(n):
        gp = np.zeros((2 ** n,) * 2, dtype=complex)
        gm = np.zeros((2 ** n,) * 2, dtype=complex)
        for a in range(n):
            gp += ell[i, a] * gammas[a]
            gm += 1.0j * ell[i, a] * gammas[n + a]
        plus.append(gp)
        minus.append(gm)
    return plus, minus


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_gamma_families_equal_the_per_matrix_sums_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    for scale in (1.0, 1e-5, 3e4):
        a = rng.normal(size=(n, n))
        eta = scale * (a @ a.T + 0.25 * np.eye(n))
        pair = clifford_pair(eta)
        plus, minus = per_matrix_gamma_sums(eta)
        for got, want in zip(pair.gamma_plus + pair.gamma_minus, plus + minus):
            assert got.mat.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_clifford_pair_names_the_first_failing_pair():
    """Each inconsistent input is refused with the message of the first
    failing (i, j) in row-major order, plus before minus before mixed."""
    eta = np.eye(2)
    good = clifford_pair(eta)
    gp, gm = good.gamma_plus, good.gamma_minus

    def scaled(ops, factor):
        return tuple(Operator(factor * g.mat) for g in ops)

    with pytest.raises(DomainError, match="^plus-family anticommutators do not close$"):
        CliffordPair(eta, scaled(gp, 2.0), gm)
    with pytest.raises(DomainError, match="^minus-family anticommutators do not close$"):
        CliffordPair(eta, gp, scaled(gm, 2.0))
    with pytest.raises(DomainError, match="^the two families fail to anticommute$"):
        CliffordPair(eta, gp, scaled(gp, 1.0j))
    # mixed fails at (0, 0) and plus first at (0, 1): (0, 0) comes first
    tilted_plus = (gp[0], Operator(gp[1].mat + 1e-6 * gp[0].mat))
    tilted_minus = (Operator(gm[0].mat + 1e-7 * gp[0].mat), gm[1])
    with pytest.raises(DomainError, match="^the two families fail to anticommute$"):
        CliffordPair(eta, tilted_plus, tilted_minus)
    # the plus family alone fails at (0, 1)
    with pytest.raises(DomainError, match="^plus-family anticommutators do not close$"):
        CliffordPair(eta, tilted_plus, gm)


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


def public_factors(model):
    """The factors of the model's d from the public builders: the gammas of
    ``clifford_pair`` on the inverse metric, a_+ = (p + K+ x)/sqrt2 and
    a_- = (p - K- x)/sqrt2 from ``position_momentum``, and per direction
    the tower sum of e + e^dag over the ``hw_mode`` operators of each
    level."""
    bg, n = model.background, model.background.n
    cliff = clifford_pair(np.linalg.inv(bg.metric))
    xs, ps = zip(*(position_momentum(model.system_space, i) for i in range(n)))
    a_plus, a_minus = [], []
    for i in range(n):
        plus, minus = ps[i].mat.copy(), ps[i].mat.copy()
        for j in range(n):
            plus += bg.e_matrix[i, j] * xs[j].mat
            minus -= bg.k_minus[i, j] * xs[j].mat
        a_plus.append(plus / math.sqrt(2.0))
        a_minus.append(minus / math.sqrt(2.0))
    towers = [
        hw_mode(model.tower_space, m, bg.metric, modes=range((m - 1) * n, m * n))
        for m in range(1, model.levels + 1)
    ]
    envs = [sum(op.mat + op.mat.conj().T for op in (lvl[i] for lvl in towers)) for i in range(n)]
    return cliff, a_plus, a_minus, envs


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("levels", [1, 2])
def test_towers_are_hw_mode_operators(n, levels):
    """d's entries, bit for bit, are those of the tensor sum of the public
    builders' factors: the hw_mode towers, clifford_pair's gammas and the
    position_momentum quadratures."""
    metric = np.array([[1.7]]) if n == 1 else np.array([[1.0, 0.3], [0.3, 2.0]])
    background = Background(metric, np.zeros((n, n)))
    model = build_string_model(background, n_max=1, levels=levels)
    cliff, a_plus, a_minus, envs = public_factors(model)
    eye_s, eye_t = model.system_space.dim, model.tower_space.dim
    terms = []
    for i in range(n):
        gp, gm = cliff.gamma_plus[i], cliff.gamma_minus[i]
        terms += [
            (1.0, (gp, a_plus[i], eye_t, eye_t)),
            (1.0, (gp, eye_s, envs[i], eye_t)),
            (1.0, (gm, a_minus[i], eye_t, eye_t)),
            (1.0, (gm, eye_s, eye_t, envs[i])),
        ]
    assert_same_entries(model.d, tensor_sum(terms))


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


def test_substitution_exact_for_single_direction():
    assert duality_substitution(string_background(2.25), levels=1) < 1e-12


def test_substitution_random_single_direction_metrics():
    rng = np.random.Generator(np.random.Philox(71))
    for _ in range(5):
        value = float(rng.uniform(0.3, 3.0))
        assert duality_substitution(string_background(value), levels=1) < 1e-12


def test_substitution_two_directions_gauge_invariant_match():
    background = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.zeros((2, 2)))
    assert duality_substitution(background, levels=1) < 1e-12


@pytest.mark.parametrize("n, levels", [(2, 2), (3, 1)])
def test_substitution_matches_at_random_couplings(n, levels):
    """The p, x and tower slots at B != 0 (G K^-T, G - B G^-1 B and no
    K G^-1 in front of the tower): the per-slot Gram residual stays at
    roundoff for random metrics and couplings with entries up to 2."""
    rng = np.random.Generator(np.random.Philox(36 + n))
    for _ in range(20):
        a = rng.normal(size=(n, n))
        c = rng.uniform(-2.0, 2.0, size=(n, n))
        background = Background(a @ a.T + 0.5 * np.eye(n), 0.5 * (c - c.T))
        assert duality_substitution(background, levels=levels) < 1e-12


def running_sum_dirac(model):
    """d as the running sum of four dense Kronecker products per
    direction, of the public builders' factors."""
    cliff, a_plus, a_minus, envs = public_factors(model)
    eye_s = np.eye(model.system_space.dim)
    eye_t = np.eye(model.tower_space.dim)
    d = np.zeros((model.dim,) * 2, dtype=np.complex128)
    for i in range(model.background.n):
        gp, gm = cliff.gamma_plus[i].mat, cliff.gamma_minus[i].mat
        d += kron(gp, a_plus[i], eye_t, eye_t)
        d += kron(gp, eye_s, envs[i], eye_t)
        d += kron(gm, a_minus[i], eye_t, eye_t)
        d += kron(gm, eye_s, eye_t, envs[i])
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


@pytest.mark.parametrize("n_max, levels, metric", [(2, 1, 2.25), (4, 1, 0.7), (2, 2, 1.7), (3, 2, 2.25)])
def test_one_direction_dirac_operator_is_its_split(n_max, levels, metric):
    model = build_string_model(string_background(metric), n_max, levels)
    split = model.d.split
    assert split.scale > 0
    _, (a_plus,), (a_minus,), (env,) = public_factors(model)
    assert np.array_equal(split.upper[0], a_plus + a_minus)
    assert np.array_equal(split.lower[0], a_plus - a_minus)
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


@pytest.mark.parametrize("n_modes, n_max", [(1, 1), (1, 5), (2, 3), (3, 2), (3, 3)])
def test_embedded_ladders_are_the_ladder_matrices(n_modes, n_max):
    """The dense ladders the decoherence model multiplies are the mats of
    ``ladder``, bit for bit, for every mode."""
    from dfslab.fock import _embedded_ladder

    space = FockSpace(n_modes, n_max)
    for mode in range(n_modes):
        got, want = _embedded_ladder(space, mode), ladder(space, mode)[0].mat
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def assert_same_entries(got, want):
    """Equal entries bit for bit: positions, and values with signed zeros."""
    got, want = got._entries, want._entries
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("n_sys, n_env, n_max", [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 2)])
def test_decoherence_hamiltonians_and_parities_keep_their_entries(n_sys, n_env, n_max):
    """h_int, h_total and the parity generators, formed from single-mode
    factors, have the entries of the construction on the system and
    environment spaces, which is written out here: the exchange terms as
    (a_i, e_al^dag) on (system, environment), and each generator as
    I_sys x pi a_al^dag a_al, the environment ladders' product."""
    rng = np.random.Generator(np.random.Philox(58))
    k = rng.normal(size=(n_sys, n_sys)) + 1j * rng.normal(size=(n_sys, n_sys))
    lam = rng.normal(size=(n_env, n_env)) + 1j * rng.normal(size=(n_env, n_env))
    w = rng.normal(size=(n_sys, n_env)) + 1j * rng.normal(size=(n_sys, n_env))
    model = build_decoherence_model(k + k.conj().T, lam + lam.conj().T, w, n_max)
    a_ops = [ladder(model.system_space, i)[0].mat for i in range(n_sys)]
    e_ops = [ladder(model.env_space, al)[0].mat for al in range(n_env)]
    exchange = []
    for i in range(n_sys):
        for al in range(n_env):
            exchange.append((w[i, al], (a_ops[i], e_ops[al].conj().T)))
            exchange.append((np.conj(w[i, al]), (a_ops[i].conj().T, e_ops[al])))
    eye_s = np.eye(model.system_space.dim)
    eye_e = np.eye(model.env_space.dim)
    free = [(1.0, (model.h_sys.mat, eye_e)), (1.0, (eye_s, model.h_env.mat))]
    assert_same_entries(model.h_int, tensor_sum(exchange))
    assert_same_entries(model.h_total, tensor_sum(free + exchange))
    gens = parity_generators(model)
    assert len(gens) == n_env
    for al, gen in enumerate(gens):
        assert_same_entries(gen, tensor(eye_s, math.pi * (e_ops[al].conj().T @ e_ops[al])))


def test_each_decoherence_hamiltonian_is_formed_only_when_read(monkeypatch):
    """A coherence experiment reads h_total and never forms h_int; a
    symmetrize run reads h_int and never forms h_total."""
    import dfslab.cli as cli

    model = build_decoherence_model([[1.0]], [[1.0]], [[0.3]], 3)
    assert "h_int" not in vars(model) and "h_total" not in vars(model)
    sys_dim = model.system_space.dim
    vec = np.zeros(model.space.dim, dtype=np.complex128)
    vec[[0, model.env_space.dim]] = np.sqrt(0.5)
    code = SubspaceBasis(sys_dim, np.eye(sys_dim, dtype=np.complex128))
    coherence_experiment(model, code, pure_state(vec, dims=(sys_dim, model.env_space.dim)), [0.0, 1.0])
    assert "h_total" in vars(model) and "h_int" not in vars(model)

    built = []

    def recording(*args):
        built.append(build_decoherence_model(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_decoherence_model", recording)
    params = {"n_max": 3, "K": [[1.0]], "Lambda": [[1.0]], "w": [[0.3]]}
    report = cli.run_scenario({"schema_version": 1, "kind": "symmetrize", "params": params})
    assert report["pass"] and len(built) == 1
    assert "h_int" in vars(built[0]) and "h_total" not in vars(built[0])


# A valid n = 3 metric (eigenvalues 3.1e-4 to 346) whose inverse, as
# np.linalg.inv returns it, is asymmetric by 3.7e-12 of its largest entry.
N3_METRIC = [[219.037, 145.753, 81.2133], [145.753, 96.9898, 54.0418], [81.2133, 54.0418, 30.1122]]


def test_a_metric_whose_computed_inverse_is_asymmetric_builds_its_model(monkeypatch):
    """The input rule refuses the computed inverse ("eta must be
    symmetric"), as the model did when it checked that inverse again; the
    model reads the background's factors, and its gammas pass their
    certificate against the lower triangle of the inverse, which their
    Cholesky factor read."""
    background = Background(np.array(N3_METRIC), np.zeros((3, 3)))
    inverse = np.linalg.inv(background.metric)
    with pytest.raises(DomainError, match="^eta must be symmetric$"):
        clifford_pair(inverse)
    pairs = []

    class Recording(CliffordPair):
        def __post_init__(self):
            super().__post_init__()
            pairs.append(self)

    monkeypatch.setattr(fock_module, "CliffordPair", Recording)
    model = build_string_model(background, n_max=1, levels=1)
    assert model.dim == 4096 and len(pairs) == 1
    assert np.array_equal(pairs[0].eta, np.tril(inverse) + np.tril(inverse, -1).T)
    residual = float(fock_module._anticommutator_residuals(pairs[0]).max())
    assert residual <= SYMMETRY_TOL * np.abs(inverse).max()


def test_the_inverse_metric_is_exactly_symmetric_and_keeps_its_factor():
    """The computed inverse of N3_METRIC is asymmetric; the background keeps
    its lower triangle, the one the Cholesky factor reads, mirrored onto the
    upper, so the factor is that of the computed inverse bit for bit."""
    background = Background(np.array(N3_METRIC), np.zeros((3, 3)))
    raw = np.linalg.inv(background.metric)
    inverse, factor = background._inverse
    assert not np.array_equal(raw, raw.T)
    assert np.array_equal(inverse, inverse.T)
    assert np.array_equal(np.tril(inverse), np.tril(raw))
    assert np.array_equal(factor, np.linalg.cholesky(raw))


def test_normal_modes_take_the_inverse_metric_a_background_keeps():
    """Criterion 9's unit-frequency pair on N3_METRIC: its computed inverse
    is refused as a kinetic matrix, the background's symmetric one is not."""
    metric = np.array(N3_METRIC)
    with pytest.raises(DomainError, match="^kinetic matrix must be symmetric$"):
        normal_modes(np.linalg.inv(metric), metric)
    freqs = normal_modes(Background(metric, np.zeros((3, 3)))._inverse[0], metric)
    # the metric's condition number, 1.1e6, limits how near to 1 they come
    assert freqs.shape == (3,) and np.abs(freqs - 1.0).max() < 1e-5


def test_library_paths_check_no_matrix_they_derived(monkeypatch):
    """Once a background is checked, building its string models, its
    substitution and its images under the duality group runs no input check
    on a matrix the library computed from it."""
    background = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.7], [-0.7, 0.0]]))

    def refuse(*args):
        raise AssertionError("an input check ran on a derived matrix")

    monkeypatch.setattr(duality_module, "_check_spd", refuse)
    monkeypatch.setattr(fock_module, "_check_spd", refuse)
    build_string_model(background, n_max=1, levels=2)
    assert duality_substitution(background, levels=2) < 1e-12
    for element in onn_generators(2):
        onn_apply(element, background)


def test_each_metric_is_factored_once(monkeypatch):
    """One Cholesky factorization of the metric per background, in its
    check, and one of its inverse, however many models and substitutions
    read them; the substitution's inverse background adds its two."""
    real = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or real(a))
    background = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.4], [-0.4, 0.0]]))
    assert len(calls) == 1
    build_string_model(background, n_max=1, levels=2)
    build_string_model(background, n_max=2, levels=1)
    assert len(calls) == 2
    duality_substitution(background, levels=2)
    assert len(calls) == 4


def _square(n):
    return [[1.0] * n for _ in range(n)]


# (what is wrong, the input, the error, the message with {name} for the
# matrix's name) for every public entry that reads a metric-like matrix
BAD_MATRICES = [
    ("non-symmetric", [[1.0, 0.5], [0.4, 1.0]], DomainError, "{name} must be symmetric"),
    ("non-positive-definite", [[1.0, 2.0], [2.0, 1.0]], DomainError, "{name} must be positive definite"),
    ("non-finite", [[1.0, np.nan], [np.nan, 1.0]], DomainError, "{name} entries must be finite"),
    ("mis-shaped", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ShapeError, "{name} must be a square matrix"),
]
PUBLIC_ENTRIES = [
    ("Background", "metric", lambda m: Background(m, np.zeros((2, 2)))),
    ("clifford_pair", "eta", clifford_pair),
    ("hw_mode", "eta", lambda m: hw_mode(FockSpace(2, 1), 1, m)),
    ("normal_modes kinetic", "kinetic matrix", lambda m: normal_modes(m, np.eye(2))),
    ("normal_modes potential", "potential matrix", lambda m: normal_modes(np.eye(2), m)),
    ("decoherence system", "system coupling", lambda m: build_decoherence_model(m, [[1.0]], [[0.1], [0.2]], 1)),
    ("decoherence environment", "environment coupling", lambda m: build_decoherence_model([[1.0]], m, [[0.1, 0.2]], 1)),
]


@pytest.mark.parametrize("what, bad, error, message", BAD_MATRICES, ids=[b[0] for b in BAD_MATRICES])
@pytest.mark.parametrize("entry, name, build", PUBLIC_ENTRIES, ids=[e[0] for e in PUBLIC_ENTRIES])
def test_every_public_entry_refuses_invalid_input_with_its_message(what, bad, error, message, entry, name, build):
    """Each public entry checks its own input at the boundary, with the
    message it gave before library code stopped checking derived
    matrices.  A decoherence coupling need only be Hermitian."""
    if entry.startswith("decoherence"):
        if what == "non-positive-definite":
            build(bad)  # Hermitian, so accepted
            return
        message = message.replace("symmetric", "Hermitian")
    with pytest.raises(error, match="^" + message.format(name=name) + "$"):
        build(np.array(bad))


def _stacked_gram(arrays):
    """The Gram product of [p | x]: the per-slot products and the cross
    terms p^T x between the slots."""
    stacked = np.hstack([arrays["p"], arrays["x"]])
    return stacked.T @ stacked


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_p_and_x_gram_matches_the_dual_side(n):
    """The substituted and dual-side [p | x] arrays agree up to a rotation
    of the gamma gauge, so their Gram products agree, cross terms included,
    to roundoff relative to their largest entry (1.6e-15 at most over these
    draws; the p slot G K^-1 of the form before the B != 0 slots gives 0.79
    at n = 2 and 0.45 at n = 3)."""
    rng = np.random.Generator(np.random.Philox(37 + n))
    for _ in range(20):
        a = rng.normal(size=(n, n))
        c = rng.uniform(-2.0, 2.0, size=(n, n))
        background = Background(a @ a.T + 0.5 * np.eye(n), 0.5 * (c - c.T))
        subbed, dual = _substitution_arrays(background, 1), _dual_side_arrays(background, 1)
        for sector in ("plus", "minus"):
            got, want = _stacked_gram(subbed[sector]), _stacked_gram(dual[sector])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
