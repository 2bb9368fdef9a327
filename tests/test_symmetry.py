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
    symmetrize_factorized,
    symmetrize_operator,
)

GROUP_TOL = 1e-12

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


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


def test_irrational_rotation_does_not_close():
    theta = Operator(np.diag([1.0, -1.0]))  # angle 1 rad, never returns to identity
    with pytest.raises(NonClosureError):
        close_group([theta], max_order=60)


def test_group_elements_are_unitary():
    theta = Operator((np.pi / 2.0) * np.diag([1.0, -1.0]))
    group = close_group([theta])
    for u in group.elements:
        assert float(np.abs(u.mat @ u.mat.conj().T - np.eye(2)).max()) < GROUP_TOL


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
    for u in group.elements:
        assert float(np.abs(u.mat @ proj.op.mat - proj.op.mat).max()) < GROUP_TOL


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


def test_factorized_average_matches_group_average():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.2, 0.0], [0.0, 0.8]]),
        w_int=np.array([[0.4, 0.25]]),
        n_max=1,
    )
    gens = parity_generators(model)
    group = close_group(gens)
    assert group.order == 4
    direct = symmetrize_operator(group, model.h_total)
    fast = symmetrize_factorized(model.h_total, gens)
    assert float(np.abs(direct.mat - fast.mat).max()) < 1e-12


def test_factorized_average_kills_interaction():
    model = build_decoherence_model(
        k_sys=np.array([[1.0]]),
        lam_env=np.array([[1.0]]),
        w_int=np.array([[0.3]]),
        n_max=3,
    )
    sym = symmetrize_factorized(model.h_int, parity_generators(model))
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
    """Diagonal parity generators take the exact mask; the group average of
    the unitaries they generate is the reference.  Its unitaries carry the
    roundoff of exp(i pi n), about n * 1e-16, so the bound is relative to
    the largest entry."""
    model = random_model(np.random.Generator(np.random.Philox(n_max)), n_sys, n_env, n_max)
    gens = parity_generators(model)
    h = model.h_total.mat
    direct = symmetrize_operator(close_group(gens), model.h_total).mat
    fast = symmetrize_factorized(model.h_total, gens).mat
    tol = 1e-14 * np.abs(h).max()
    assert float(np.abs(direct - fast).max()) < tol
    # killed entries are exact zeros, kept entries the Hamiltonian's own
    kept = fast != 0
    assert np.array_equal(fast[kept], h[kept])
    assert np.abs(direct[~kept]).max() < tol


def test_factorized_rejects_non_involutive_generator():
    theta = Operator(np.diag([0.0, 1.0]))  # exp(i theta) squares to diag(1, e^{2i})
    h = Operator(np.eye(2, dtype=complex))
    with pytest.raises(DomainError):
        symmetrize_factorized(h, [theta])
    quarter_turn = Operator(0.5 * np.pi * np.diag(np.arange(6.0)))
    with pytest.raises(DomainError):
        symmetrize_factorized(Operator(np.eye(6, dtype=complex)), [quarter_turn])


def test_factorized_rejects_non_commuting_generators():
    """Two reflections pi |v><v| at 45 degrees are involutions that do not
    commute; their sequential average is not the group average."""
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    gens = [Operator(np.pi * np.outer(v, v)) for v in (v1, v2)]
    h = Operator(np.array([[1.0, 0.5, 0.2], [0.5, -0.3, 0.7], [0.2, 0.7, 0.4]]))
    with pytest.raises(DomainError):
        symmetrize_factorized(h, gens)


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
    group = GroupRep(elements=(Operator(np.eye(2, dtype=complex)),), generators=())
    with pytest.raises(UsageError):
        invariant_subalgebra(group)
