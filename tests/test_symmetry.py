import numpy as np
import pytest

from dfslab import (
    DomainError,
    GroupRep,
    NonClosureError,
    Operator,
    ShapeError,
    UsageError,
    build_decoherence_model,
    close_group,
    invariant_projector,
    invariant_subalgebra,
    joint_kernel,
    parity_generators,
    symmetrize_operator,
)
from dfslab import symmetry
from dfslab.cli import run_scenario

GROUP_TOL = 1e-12

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def as_matrices(group):
    """The group's elements as an (order, d, d) stack, phase vectors as
    diagonal matrices."""
    if group.elements.ndim == 3:
        return group.elements
    return group.elements[:, :, None] * np.eye(group.dim)


@pytest.mark.parametrize("mean", [np.array([1.0, 0.0, 1.0], dtype=complex), np.diag([1.0, 0.0]).astype(complex)])
def test_invariant_projector_leaves_the_callers_array_writeable(mean):
    proj = symmetry.InvariantProjector(mean)
    assert mean.flags.writeable and not proj.mean.flags.writeable
    assert np.shares_memory(proj.mean, mean)


def test_parity_generator_closes_to_z2():
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0]))
    group = close_group([theta])
    assert group.order == 2


def test_two_commuting_parities_close_to_klein_four():
    t1 = Operator(np.pi * np.diag([0.0, 1.0, 0.0, 1.0]))
    t2 = Operator(np.pi * np.diag([0.0, 0.0, 1.0, 1.0]))
    group = close_group([t1, t2])
    assert group.order == 4


def test_quarter_rotation_closes_to_cyclic_four():
    theta = Operator((np.pi / 2.0) * np.diag([1.0, -1.0]))
    group = close_group([theta])
    assert group.order == 4


def test_irrational_rotation_does_not_close(monkeypatch):
    theta = Operator(np.diag([1.0, -1.0]))  # angle 1 rad, never returns to identity
    monkeypatch.setattr(symmetry, "MAX_GROUP_ORDER", 60)
    with pytest.raises(NonClosureError):
        close_group([theta])


@pytest.mark.parametrize("theta", [
    np.diag([0.0, 1.0 + 1e-6j]),  # diagonal: phase-vector path
    np.array([[0.0, 1.0], [0.5, 0.0]]),  # dense path
])
def test_close_group_rejects_non_hermitian_generators(theta):
    with pytest.raises(DomainError):
        close_group([Operator(np.pi * np.diag([0.0, 1.0])), Operator(theta)])


def test_group_elements_are_unitary():
    theta = Operator((np.pi / 2.0) * np.diag([1.0, -1.0]))
    group = close_group([theta])
    for u in as_matrices(group):
        assert float(np.abs(u @ u.conj().T - np.eye(2)).max()) < GROUP_TOL


def test_invariant_projector_selects_even_levels():
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0, 3.0, 4.0]))
    proj = invariant_projector(close_group([theta]))
    assert proj.rank == 3
    expected = np.diag([1.0, 0.0, 1.0, 0.0, 1.0])
    assert float(np.abs(proj.op.mat - expected).max()) < GROUP_TOL


def test_projector_absorbs_group_elements():
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0]))
    group = close_group([theta])
    proj = invariant_projector(group)
    for u in as_matrices(group):
        assert float(np.abs(u @ proj.op.mat - proj.op.mat).max()) < GROUP_TOL


def test_joint_kernel_rejects_generators_on_different_spaces():
    with pytest.raises(ShapeError):
        joint_kernel([Operator(np.eye(2)), Operator(np.eye(3))])


def test_joint_kernel_of_number_like_generator():
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0]))
    kernel = joint_kernel([theta])
    assert kernel.vectors.shape == (1, 3)
    assert abs(abs(kernel.vectors[0, 0]) - 1.0) < GROUP_TOL


def test_symmetrize_two_term_average():
    theta = Operator(np.pi * np.diag([0.0, 1.0]))
    group = close_group([theta])
    h = Operator(np.array([[0.3, 0.7], [0.7, -0.1]], dtype=complex))
    u = np.diag([1.0, -1.0])
    expected = 0.5 * (h.mat + u @ h.mat @ u)
    got = symmetrize_operator(group, h)
    assert float(np.abs(got.mat - expected).max()) < GROUP_TOL


def test_symmetrize_fixed_point():
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0]))
    group = close_group([theta])
    got = symmetrize_operator(group, theta)
    assert float(np.abs(got.mat - theta.mat).max()) < GROUP_TOL


def test_parity_average_matches_the_dense_sandwiches():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.2, 0.0], [0.0, 0.8]]),
        w_int=np.array([[0.4, 0.25]]),
        n_max=1,
    )
    group = close_group(parity_generators(model))
    assert group.order == 4
    assert group.elements.shape == (4, model.h_total.dim)
    h = model.h_total.mat
    direct = sum(u.conj().T @ h @ u for u in as_matrices(group)) / group.order
    assert float(np.abs(direct - symmetrize_operator(group, model.h_total).mat).max()) < 1e-12


def test_parity_average_kills_interaction():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.0]]),
        w_int=np.array([[0.3]]),
        n_max=3,
    )
    sym = symmetrize_operator(close_group(parity_generators(model)), model.h_int)
    assert np.count_nonzero(sym.mat) == 0


def random_model(rng, n_sys, n_env, n_max):
    def hermitian(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * (a + a.conj().T)

    w = rng.uniform(0.2, 1.0, size=(n_sys, n_env)) * np.exp(2j * np.pi * rng.uniform(size=(n_sys, n_env)))
    return build_decoherence_model(
        k_sys=hermitian(n_sys), lam_env=hermitian(n_env), w_int=w, n_max=n_max
    )


# (system modes, environment modes, n_max) of the benchmark's coherence mix, dims 64-216
PROTECT_SIZES = [(1, 2, 3), (1, 1, 7), (2, 1, 4), (1, 1, 11), (2, 1, 5)]


@pytest.mark.parametrize("n_sys, n_env, n_max", PROTECT_SIZES)
def test_parity_mask_matches_the_group_average(n_sys, n_env, n_max):
    """Diagonal parity generators take the exact mask; the sandwiches
    U^dag H U over the group's unitaries are the reference.  The phases
    carry the roundoff of exp(i pi n), about n * 1e-16, so the bound is
    relative to the largest entry."""
    model = random_model(np.random.Generator(np.random.Philox(n_max)), n_sys, n_env, n_max)
    group = close_group(parity_generators(model))
    h = model.h_total.mat
    direct = sum(u.conj().T @ h @ u for u in as_matrices(group)) / group.order
    fast = symmetrize_operator(group, model.h_total).mat
    tol = 1e-14 * np.abs(h).max()
    assert float(np.abs(direct - fast).max()) < tol
    # killed entries are exact zeros, kept entries the Hamiltonian's own
    kept = fast != 0
    assert np.array_equal(fast[kept], h[kept])
    assert np.abs(direct[~kept]).max() < tol


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# diagonal generators (angles on 8 levels) and the order of the group they generate
DIAGONAL_GROUPS = {
    "z2": ([np.pi * np.array([0, 1, 2, 3, 0, 1, 1, 0])], 2),
    "klein-four": ([np.pi * np.array([0, 1, 0, 1, 0, 1, 0, 1]),
                    np.pi * np.array([0, 0, 1, 1, 0, 0, 1, 1])], 4),
    "z2-cubed": ([np.pi * np.array([0, 1, 0, 1, 0, 1, 0, 1]),
                  np.pi * np.array([0, 0, 1, 1, 0, 0, 1, 1]),
                  np.pi * np.array([0, 0, 0, 0, 1, 1, 1, 1])], 8),
    "quarter-turn": ([0.5 * np.pi * np.array([0, 1, 2, 3, 4, 5, 6, 7])], 4),
}


@pytest.mark.parametrize("name", sorted(DIAGONAL_GROUPS))
def test_dense_path_in_a_rotated_frame_matches_the_diagonal_path(name):
    """Conjugating the generators by a unitary V makes them non-diagonal, so
    close_group builds dense unitaries; its projector and average must be
    the phase-vector results conjugated by V."""
    angles, order = DIAGONAL_GROUPS[name]
    rng = np.random.Generator(np.random.Philox(order))
    v = random_unitary(rng, 8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = 0.5 * (a + a.conj().T)
    diagonal = close_group([Operator(np.diag(t)) for t in angles])
    dense = close_group([Operator(v @ np.diag(t) @ v.conj().T) for t in angles])
    assert diagonal.elements.ndim == 2 and dense.elements.ndim == 3
    assert diagonal.order == dense.order == order

    def rotated(mat):
        return v @ mat @ v.conj().T

    got = symmetrize_operator(dense, Operator(rotated(h))).mat
    want = rotated(symmetrize_operator(diagonal, Operator(h)).mat)
    assert float(np.abs(got - want).max()) <= 1e-12 * np.abs(h).max()
    proj_dense, proj_diag = invariant_projector(dense), invariant_projector(diagonal)
    assert proj_dense.rank == proj_diag.rank
    assert float(np.abs(proj_dense.op.mat - rotated(proj_diag.op.mat)).max()) <= 1e-12


def test_non_commuting_reflections_close_to_the_dihedral_group():
    """Two reflections pi |v><v| at 45 degrees generate the dihedral group of
    order 8 (their product is a quarter turn); the dense average commutes
    with every element and averaging twice changes nothing."""
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    group = close_group([Operator(np.pi * np.outer(v, v)) for v in (v1, v2)])
    assert group.order == 8
    h = Operator(np.array([[1.0, 0.5, 0.2], [0.5, -0.3, 0.7], [0.2, 0.7, 0.4]]))
    avg = symmetrize_operator(group, h)
    for u in group.elements:
        assert float(np.abs(u @ avg.mat - avg.mat @ u).max()) < GROUP_TOL
    again = symmetrize_operator(group, avg)
    assert float(np.abs(again.mat - avg.mat).max()) < GROUP_TOL
    proj = invariant_projector(group)
    assert proj.idempotency <= symmetry.PROJECTOR_TOL and proj.rank == 1


def test_symmetrize_scenario_at_dim_1296_forms_no_matrix_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("diagonal generators must not reach unitary_exp")

    monkeypatch.setattr(symmetry, "unitary_exp", refuse)
    report = run_scenario({
        "schema_version": 1,
        "kind": "symmetrize",
        "params": {
            "n_max": 5,
            "K": [[1.0, 0.2], [0.2, 1.5]],
            "Lambda": [[1.2, 0.1], [0.1, 0.8]],
            "w": [[0.3, 0.1], [0.2, 0.4]],
        },
    })
    assert report["pass"]
    assert report["results"] == {
        "group_order": 4,
        "projector_rank": 324,
        "symmetrized_interaction_norm": 0.0,
        "joint_kernel_dim": 36,
    }


def test_invariant_subalgebra_of_zero_generator_is_everything():
    group = close_group([Operator(np.zeros((3, 3)))])
    basis = invariant_subalgebra(group)
    assert len(basis.vectors) == 9


def test_invariant_subalgebra_of_three_level_parity():
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0]))
    basis = invariant_subalgebra(close_group([theta]))
    assert len(basis.vectors) == 3


def test_invariant_subalgebra_of_spin_generator():
    group = close_group([Operator(np.pi * SY)])
    basis = invariant_subalgebra(group)
    assert len(basis.vectors) == 2
    # the span must contain sigma_y itself
    assert basis.residual(SY.reshape(-1) / np.sqrt(2.0)) < 1e-10


def test_invariant_subalgebra_requires_generators():
    group = GroupRep(elements=np.ones((1, 2), dtype=complex), generators=())
    with pytest.raises(UsageError):
        invariant_subalgebra(group)


@pytest.mark.parametrize("n_sys, n_env, n_max", PROTECT_SIZES[:3])
def test_entry_paths_match_the_dense_paths_bit_for_bit(n_sys, n_env, n_max):
    """Parity generators and h_total keep their entries: the closure reads
    their diagonals, the average masks the entries and the joint kernel
    splits their stacked entries, with the bits of the dense paths and no
    mat formed."""
    model = random_model(np.random.Generator(np.random.Philox(7 + n_max)), n_sys, n_env, n_max)
    gens = parity_generators(model)
    hams = (model.h_total, model.h_int)
    group = close_group(gens)
    averages = [symmetrize_operator(group, h) for h in hams]
    kernel = joint_kernel(gens)
    assert not any("mat" in vars(op) for op in gens + list(hams) + averages)
    dense_gens = [Operator(th.mat) for th in gens]
    assert np.array_equal(group.elements, close_group(dense_gens).elements)
    for h, avg in zip(hams, averages):
        assert np.array_equal(avg.mat, symmetrize_operator(group, Operator(h.mat)).mat)
    assert np.array_equal(kernel.vectors, joint_kernel(dense_gens).vectors)
    assert kernel.size == model.system_space.dim
