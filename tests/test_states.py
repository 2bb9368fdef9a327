import numpy as np
import pytest

from dfslab import (
    DensityMatrix,
    DomainError,
    Operator,
    ShapeError,
    StateFunctional,
    UsageError,
    encode_two_point,
    expectation,
    fidelity,
    partial_trace,
    pure_state,
)
from dfslab import states
from dfslab.states import _check_states

TOL = 1e-12


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(DomainError):
        DensityMatrix(Operator(np.eye(2)))


def test_density_matrix_rejects_negative():
    with pytest.raises(DomainError):
        DensityMatrix(Operator(np.diag([1.5, -0.5])))


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(DomainError):
        DensityMatrix(Operator(mat))


def test_pure_state_is_rank_one():
    rho = pure_state(np.array([1.0, 1.0j]) / np.sqrt(2))
    vals = np.linalg.eigvalsh(rho.op.mat)
    assert np.abs(np.sort(vals) - np.array([0.0, 1.0])).max() < TOL


def test_pure_state_rejects_zero_vector():
    with pytest.raises(DomainError):
        pure_state(np.zeros(3))


def test_pure_state_checks_the_trace_beyond_the_norm():
    """Norm 1 + 0.9e-10 passes the 1e-10 norm check, but the trace
    |v|^2 = 1 + 1.8e-10 is not 1 within TRACE_TOL."""
    v = np.array([1.0 + 0.9e-10, 0.0])
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
    with pytest.raises(DomainError, match="trace"):
        pure_state(v)
    with pytest.raises(DomainError, match="trace"):
        DensityMatrix(Operator(np.outer(v, v)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_a_non_finite_vector(bad):
    with pytest.raises(DomainError):
        pure_state(np.array([bad, 0.0]))


def test_pure_state_keeps_its_vector_until_op_is_read():
    v = np.array([0.6, 0.0, 0.8j])
    rho = pure_state(v, dims=(3,))
    assert rho.dim == 3 and rho.dims == (3,)
    assert "op" not in vars(rho)
    # the entries of v v^dag over the nonzero indices 0 and 2 of v
    entries = rho.op._entries
    assert sorted(zip(entries.rows, entries.cols)) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert "mat" not in vars(rho.op)
    assert np.array_equal(rho.op.mat, np.outer(v, v.conj()))
    assert rho.op is rho.op
    v[0] = 1.0  # the state holds its own copy
    assert rho.op.mat[0, 0] == 0.36
    with pytest.raises(ShapeError):
        pure_state(np.array([0.6, 0.0, 0.8j]), dims=(2,))


def test_expectation_reads_entries():
    rho = DensityMatrix(Operator(np.diag([0.25, 0.75])))
    psi = StateFunctional(rho)
    a = Operator(np.diag([1.0, 3.0]))
    assert expectation(psi, a) == pytest.approx(0.25 + 2.25, abs=TOL)
    assert psi(a) == pytest.approx(2.5, abs=TOL)


def test_encode_two_point_structure():
    atilde = Operator(np.array([[3.0, -1.0j], [1.0j, 3.0]]))
    a0, a1 = encode_two_point(atilde)
    # first block repeats the first diagonal entry and mirrors the lower
    # off-diagonal entry, second block does the same with the other corner
    assert np.abs(a0.mat - np.array([[3.0, -1.0j], [1.0j, 3.0]])).max() < TOL
    assert np.abs(a1.mat - np.array([[3.0, -1.0j], [1.0j, 3.0]])).max() < TOL
    assert a0.is_hermitian()
    assert a1.is_hermitian()


def test_encode_two_point_expectations():
    rng = np.random.Generator(np.random.Philox(21))
    psi = StateFunctional(DensityMatrix(Operator(np.eye(2, dtype=complex) / 2)))
    for _ in range(20):
        atilde = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        atilde[0, 0] = rng.normal()
        atilde[1, 1] = rng.normal()
        a0, a1 = encode_two_point(Operator(atilde))
        assert abs(psi(a0) - atilde[0, 0]) < 1e-14
        assert abs(psi(a1) - atilde[1, 1]) < 1e-14


def test_encode_two_point_hermitian_iff_real_diagonal():
    atilde = np.array([[1.0 + 0.5j, 0.0], [0.0, 2.0]])
    a0, _ = encode_two_point(Operator(atilde))
    assert not a0.is_hermitian()


def test_partial_trace_product_state():
    rho_a = np.diag([0.25, 0.75]).astype(complex)
    rho_b = np.diag([0.5, 0.5]).astype(complex)
    joint = DensityMatrix(Operator(np.kron(rho_a, rho_b)), dims=(2, 2))
    reduced = partial_trace(joint, keep=(0,))
    assert np.abs(reduced.op.mat - rho_a).max() < TOL


def test_partial_trace_bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = pure_state(v, dims=(2, 2))
    for keep in ((0,), (1,)):
        reduced = partial_trace(rho, keep=keep)
        assert np.abs(reduced.op.mat - np.eye(2) / 2).max() < TOL


def test_partial_trace_preserves_trace():
    rng = np.random.Generator(np.random.Philox(22))
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    dm = DensityMatrix(Operator(rho), dims=(2, 3))
    reduced = partial_trace(dm, keep=(1,))
    assert reduced.op.trace() == pytest.approx(1.0, abs=1e-10)
    assert reduced.op.dim == 3


def test_partial_trace_needs_dims():
    rho = DensityMatrix(Operator(np.eye(4) / 4))
    with pytest.raises(UsageError):
        partial_trace(rho, keep=(0,))


@pytest.mark.parametrize("dims", [(-2, -2), (4, 1.0), (2.0, 2.0), (0, 4)])
def test_factor_dims_must_be_positive_integers(dims):
    with pytest.raises(ShapeError):
        DensityMatrix(Operator(np.eye(4) / 4), dims=dims)


def test_fidelity_identical_states():
    rho = DensityMatrix(Operator(np.diag([0.3, 0.7])))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    rho = pure_state(np.array([1.0, 0.0]))
    sigma = pure_state(np.array([0.0, 1.0]))
    assert fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-10)


def test_fidelity_pure_vs_mixed_closed_form():
    """Squared-overlap convention: against a pure state, fidelity is <v|rho|v>."""
    rng = np.random.Generator(np.random.Philox(23))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    expected = np.real(v.conj() @ rho @ v)
    got = fidelity(pure_state(v), DensityMatrix(Operator(rho)))
    assert got == pytest.approx(expected, abs=1e-14)


def test_fidelity_of_a_pure_first_argument_has_no_roundoff_floor():
    """A rank-deficient first argument must not turn roundoff eigenvalues
    into sqrt-sized errors: against [1, 0.6-0.8i] a matrix square root of
    the pure state was off by up to ~1e-8."""
    rng = np.random.Generator(np.random.Philox(25))
    v = np.array([1.0, 0.6 - 0.8j]) / np.sqrt(2.0)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        expected = np.real(v.conj() @ rho @ v)
        assert abs(fidelity(pure_state(v), DensityMatrix(Operator(rho))) - expected) < 1e-14


def test_fidelity_symmetric_and_unitary_invariant():
    rng = np.random.Generator(np.random.Philox(24))
    mats = []
    for _ in range(2):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        mats.append(rho / np.trace(rho))
    rho, sigma = (DensityMatrix(Operator(m)) for m in mats)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)
    herm = rng.normal(size=(3, 3))
    herm = herm + herm.T
    u = np.linalg.eigh(herm)[1]
    rotated = (DensityMatrix(Operator(u @ m @ u.conj().T)) for m in mats)
    assert fidelity(*rotated) == pytest.approx(fidelity(rho, sigma), abs=1e-10)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ShapeError):
        fidelity(pure_state(np.array([1.0, 0.0])), pure_state(np.array([1.0, 0.0, 0.0])))


def rotated_states(rng, spectra):
    """A stack of density matrices U diag(spectrum) U^dag, each spectrum
    summing to 1, with random unitaries U."""
    d = len(spectra[0])
    a = rng.normal(size=(len(spectra), d, d)) + 1j * rng.normal(size=(len(spectra), d, d))
    u = np.linalg.qr(a)[0]
    mats = (u * np.asarray(spectra)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    return 0.5 * (mats + mats.conj().transpose(0, 2, 1))


def spectrum(low, d=4):
    return [low] + [(1.0 - low) / (d - 1)] * (d - 1)


def test_check_states_names_an_eigenvalue_below_the_floor():
    mats = rotated_states(np.random.default_rng(1), [spectrum(-2e-10)])
    with pytest.raises(DomainError, match="below the positivity floor") as info:
        _check_states(mats)
    named = float(str(info.value).split("eigenvalue ")[1].split()[0])
    assert named == pytest.approx(-2e-10, abs=1e-15)


def test_check_states_passes_an_eigenvalue_above_the_floor():
    rng = np.random.default_rng(2)
    _check_states(rotated_states(rng, [spectrum(-5e-11)] * 3))
    _check_states(rotated_states(rng, [spectrum(0.0, d=8)])[0])


def test_check_states_computes_no_eigenvalues_for_valid_states(monkeypatch):
    """The shifted Cholesky certifies valid states, rank-deficient ones and
    those a little below 0 included, without an eigensolve."""

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigenvalues computed for valid states")

    monkeypatch.setattr(states, "sector_eigh", no_eigensolve)
    rng = np.random.default_rng(5)
    _check_states(rotated_states(rng, [spectrum(-5e-11)] * 3))
    _check_states(rotated_states(rng, [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]]))


def test_check_states_refuses_one_bad_matrix_among_good_ones():
    mats = rotated_states(np.random.default_rng(3), [spectrum(0.1)] * 5 + [spectrum(-2e-10)] + [spectrum(0.2)] * 5)
    with pytest.raises(DomainError, match="below the positivity floor"):
        _check_states(mats)


def test_check_states_reports_hermiticity_and_trace_first():
    """A matrix that is also below the floor is refused for its first fault."""
    bad = rotated_states(np.random.default_rng(4), [spectrum(-0.1)])[0]
    skew = bad.copy()
    skew[0, 1] += 1e-3
    with pytest.raises(DomainError, match="not Hermitian"):
        _check_states(skew)
    with pytest.raises(DomainError, match="trace .* is not 1"):
        _check_states(2.0 * bad)
    with pytest.raises(DomainError, match="trace .* is not 1"):
        _check_states(np.stack([bad, 2.0 * bad]))
