import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dfslab import (
    Background,
    BudgetError,
    DomainError,
    FluxMatrix,
    MagneticRep,
    Operator,
    UnsupportedFluxError,
    antisymmetrize_coupling,
    clock_shift_rep,
    landau_hamiltonian,
    weyl_residual,
)
from dfslab.opcore import _split, lowest_eigenvalue, sector_eigh

WEYL_TOL = 1e-13
LANDAU_TOL = 2e-3  # truncation error of the lowest level at n_max = 24


def two_by_two(value):
    return np.array([[0.0, value], [-value, 0.0]])


def test_flux_validation():
    with pytest.raises(DomainError):
        FluxMatrix(np.zeros((3, 3)))  # odd size
    with pytest.raises(DomainError):
        FluxMatrix(np.array([[0.0, 1.0], [-1.0 + 1e-9, 0.0]]))  # not exactly antisymmetric
    with pytest.raises(Exception):
        FluxMatrix(np.zeros((2, 3)))


def test_from_rational_roundtrip():
    q = np.array([[0, 1], [-1, 0]])
    flux = FluxMatrix.from_rational(q, 3)
    assert flux.n == 2
    assert float(np.abs(flux.omega - 2.0 * np.pi * q / 3.0).max()) < 1e-15
    num, den = flux.rational_form
    assert den == 3
    assert np.array_equal(num, q)


def test_from_rational_rejects_bad_input():
    with pytest.raises(DomainError):
        FluxMatrix.from_rational(np.array([[0, 1], [1, 0]]), 3)
    with pytest.raises(DomainError):
        FluxMatrix.from_rational(np.array([[0, 1], [-1, 0]]), 0)


def test_antisymmetrize_matches_sign_formula():
    eta = np.array([[2.0, 0.5], [0.5, 1.0]])
    xi = np.array([[0.0, 0.3], [-0.3, 0.0]])
    flux = antisymmetrize_coupling(Background(eta, xi))
    total = eta + xi
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            if i != j:
                expected[i, j] = math.copysign(1.0, j - i) * total[min(i, j), max(i, j)]
    assert np.array_equal(flux.omega, expected)


def test_clock_shift_unitaries_satisfy_weyl_exactly():
    for den in (2, 3, 5, 8):
        flux = FluxMatrix.from_rational(np.array([[0, 1], [-1, 0]]), den)
        rep = clock_shift_rep(flux)
        assert rep.dim == den
        assert weyl_residual(rep, flux) <= WEYL_TOL


def test_clock_shift_group_commutator_is_the_phase():
    flux = FluxMatrix.from_rational(np.array([[0, 1], [-1, 0]]), 3)
    rep = clock_shift_rep(flux)
    u, v = rep.unitaries[0].mat, rep.unitaries[1].mat
    comm = u @ v @ np.linalg.inv(u) @ np.linalg.inv(v)
    assert float(np.abs(comm - np.exp(2.0j * np.pi / 3.0) * np.eye(3)).max()) < 1e-13


def test_trivial_flux_representation_commutes():
    flux = FluxMatrix.from_rational(np.zeros((2, 2), dtype=int), 1)
    rep = clock_shift_rep(flux)
    assert weyl_residual(rep, flux) <= WEYL_TOL
    u, v = rep.unitaries[0].mat, rep.unitaries[1].mat
    assert float(np.abs(u @ v - v @ u).max()) < 1e-14


def test_two_block_representation_cross_commutes():
    q = np.zeros((4, 4), dtype=int)
    q[0, 1], q[1, 0] = 1, -1
    q[2, 3], q[3, 2] = 2, -2
    flux = FluxMatrix.from_rational(q, 5)
    rep = clock_shift_rep(flux)
    assert rep.dim == 25
    assert weyl_residual(rep, flux) <= WEYL_TOL


def test_clock_shift_needs_rational_data():
    flux = FluxMatrix(two_by_two(1.0))
    with pytest.raises(UnsupportedFluxError):
        clock_shift_rep(flux)


def test_clock_shift_needs_block_structure():
    q = np.zeros((4, 4), dtype=int)
    q[0, 2], q[2, 0] = 1, -1  # couples directions from different pairs
    flux = FluxMatrix.from_rational(q, 3)
    with pytest.raises(UnsupportedFluxError):
        clock_shift_rep(flux)


def test_magnetic_rep_validates_unitarity():
    with pytest.raises(DomainError):
        MagneticRep((Operator(np.array([[2.0]])),))


def block_flux(numerators, den):
    """The rational flux with 2x2 blocks of the given numerators."""
    q = np.zeros((2 * len(numerators),) * 2, dtype=int)
    for b, num in enumerate(numerators):
        q[2 * b, 2 * b + 1], q[2 * b + 1, 2 * b] = num, -num
    return FluxMatrix.from_rational(q, den)


def dense_weyl_residual(unitaries, flux):
    """The oracle: max |U_i U_j - exp(2 pi i q_ij / den) U_j U_i| over
    dense products."""
    q, den = flux.rational_form
    worst = 0.0
    for i, ui in enumerate(unitaries):
        for j in range(i + 1, len(unitaries)):
            uj = unitaries[j]
            phase = np.exp(2.0j * np.pi * q[i, j] / den)
            worst = max(worst, float(np.abs(ui @ uj - phase * (uj @ ui)).max()))
    return worst


SMALL_REPS = pytest.mark.parametrize(
    "numerators, den", [([1], 6), ([1, 2], 5), ([1, 3], 8)], ids=["den-6", "two-blocks-den-5", "four-directions-den-8"]
)


@SMALL_REPS
def test_entry_checks_match_dense_oracles(numerators, den):
    """U^dag U - I and the Weyl residual, read off the entries, against the
    dense products; also for the flux of other numerators, which the
    representation does not satisfy."""
    flux = block_flux(numerators, den)
    rep = clock_shift_rep(flux)
    mats = [u.mat for u in rep.unitaries]
    eye = np.eye(rep.dim)
    for u, m in zip(rep.unitaries, mats):
        unitarity = np.abs(np.abs(u._entries.vals) ** 2 - 1.0).max()
        assert abs(unitarity - np.abs(m.conj().T @ m - eye).max()) <= 1e-15
    assert abs(weyl_residual(rep, flux) - dense_weyl_residual(mats, flux)) <= 1e-15
    assert weyl_residual(rep, flux) <= WEYL_TOL
    other = block_flux([num + 1 for num in numerators], den)
    assert weyl_residual(rep, other) == pytest.approx(dense_weyl_residual(mats, other), abs=1e-15)
    assert weyl_residual(rep, other) > 0.1


def test_weyl_residual_of_products_in_different_columns_is_the_larger_modulus():
    """The shift and a transposition do not commute up to a phase: their
    two products put row 0's entry in different columns."""
    shift = np.roll(np.eye(3), 1, axis=1)
    swap = np.eye(3)[[1, 0, 2]]
    rep = MagneticRep((Operator(shift), Operator(swap)))
    flux = block_flux([1], 3)
    assert weyl_residual(rep, flux) == dense_weyl_residual([shift, swap], flux) == 1.0


def test_weyl_residual_needs_the_rational_form():
    rep = clock_shift_rep(block_flux([1], 3))
    with pytest.raises(UnsupportedFluxError):
        weyl_residual(rep, FluxMatrix(two_by_two(2.0 * np.pi / 3.0)))


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
        np.diag([1.0, 1.0 + 1e-9]),
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ],
    ids=["hadamard", "modulus-off-by-1e-9", "two-entries-in-one-column"],
)
def test_magnetic_rep_refuses_what_is_not_a_monomial_unitary(mat):
    with pytest.raises(DomainError):
        MagneticRep((Operator(mat),))


def test_representation_path_forms_no_dense_matrix():
    flux = block_flux([1, 3], 8)
    rep = clock_shift_rep(flux)
    assert weyl_residual(rep, flux) <= WEYL_TOL
    assert all("mat" not in vars(u) for u in rep.unitaries)


def test_landau_zero_flux_is_free_kinetic_energy():
    flux = FluxMatrix(np.zeros((2, 2)))
    h = landau_hamiltonian(flux, 6)
    from dfslab import FockSpace, position_momentum

    space = FockSpace(2, 6)
    _, p0 = position_momentum(space, 0)
    _, p1 = position_momentum(space, 1)
    direct = 0.5 * (p0.mat @ p0.mat + p1.mat @ p1.mat)
    assert float(np.abs(h.mat - rotation_adapted(direct, 6)).max()) < 1e-12


def quarter_turn(ref, n_max):
    """D ref D^dag for D = I kron diag(i^n): a Fock-basis two-mode operator
    in the quarter-turn gauge."""
    phase = np.tile(1j ** np.arange(n_max + 1), n_max + 1)
    return phase[:, None] * ref * phase.conj()


def adapted_basis(n_max):
    """Q, formed densely: the eigenvectors of the quarter turn S|a,b> =
    sigma|b,a>, sigma = (-1)^floor((a+b)/2), as its columns.  First the S =
    +1 sector, then the S = -1 sector, each in the order of the Fock index
    of |a,b>, a <= b: (|a,b> + s sigma|b,a>)/sqrt 2 for a < b in each
    sector s, and |a,a> in the sector s = sigma."""
    size = n_max + 1
    columns = []
    for s in (1, -1):
        for a in range(size):
            for b in range(a, size):
                sigma = (-1) ** ((a + b) // 2)
                column = np.zeros(size * size)
                if a < b:
                    column[a * size + b], column[b * size + a] = math.sqrt(0.5), s * sigma * math.sqrt(0.5)
                elif s == sigma:
                    column[a * size + a] = 1.0
                else:
                    continue
                columns.append(column)
    return np.stack(columns, axis=1)


def rotation_adapted(ref, n_max):
    """Q^T D ref D^dag Q: a Fock-basis two-mode operator in the basis
    ``landau_hamiltonian`` returns."""
    q = adapted_basis(n_max)
    return q.T @ quarter_turn(ref, n_max) @ q


def dense_landau(flux, n_max):
    """Reference: half the sum of the squared full-space magnetic momenta."""
    from dfslab import FockSpace, position_momentum

    space = FockSpace(2, n_max)
    quads = [position_momentum(space, m) for m in range(2)]
    total = 0
    for i in range(2):
        kin = quads[i][1].mat.copy()
        for j in range(2):
            kin -= 0.5 * flux.omega[i, j] * quads[j][0].mat
        total = total + kin @ kin
    return 0.5 * total


LANDAU_CASES = pytest.mark.parametrize(
    "n_max, fluxes",
    [
        (1, [(1, 6), (-1, 6), (5, 7), (0, 1)]),
        (2, [(1, 6), (-3, 4), (7, 3)]),
        (7, [(1, 6), (-1, 6), (-5, 7), (2, 9)]),
        (24, [(1, 6), (-2, 5)]),
    ],
)


def landau_fluxes(fluxes):
    """The rational fluxes 2 pi q / den of ``fluxes`` and the irrational -0.7."""
    out = [FluxMatrix.from_rational(np.array([[0, q], [-q, 0]]), den) for q, den in fluxes]
    return out + [FluxMatrix(two_by_two(-0.7))]


@LANDAU_CASES
def test_landau_hamiltonian_matches_the_dense_formula(n_max, fluxes):
    """In the rotation-adapted basis of the quarter-turn gauge, where every
    stored entry is real: the reference is Q^T D ref D^dag Q, with the same
    bound as before the basis change."""
    for flux in landau_fluxes(fluxes):
        op = landau_hamiltonian(flux, n_max)
        assert np.all(op._entries.vals.imag == 0.0)
        h = op.mat
        ref = rotation_adapted(dense_landau(flux, n_max), n_max)
        assert h.shape == ref.shape == ((n_max + 1) ** 2,) * 2
        assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


@LANDAU_CASES
def test_landau_spectrum_and_ground_level_match_the_ungauged_operator(n_max, fluxes):
    """The complex Fock-basis operator is the oracle: the gauged spectrum,
    and the refined ground level the scenario reports, agree with its
    complex eigvalsh to 1e-12."""
    for flux in landau_fluxes(fluxes):
        h = landau_hamiltonian(flux, n_max)
        ref = np.linalg.eigvalsh(dense_landau(flux, n_max))
        assert np.abs(np.linalg.eigvalsh(h.mat) - ref).max() <= 1e-12
        assert np.abs(sector_eigh(h, vectors=False) - ref).max() <= 1e-12
        assert abs(lowest_eigenvalue(h) - ref[0]) <= 1e-12


def test_ground_level_bits_do_not_depend_on_the_blas_thread_count():
    """The refined ground level, in fresh processes with one and two BLAS
    threads.  At zero flux and n_max 31 the lowest eigenvalue is shared by
    several blocks, and the located values alone pick a block by their last
    bits."""
    script = (
        "import numpy as np\n"
        "from dfslab.nctorus import FluxMatrix, landau_hamiltonian\n"
        "from dfslab.opcore import lowest_eigenvalue\n"
        "for n, q, den in [(24, 1, 6), (20, -3, 7), (24, 5, 2), (31, 0, 1), (31, 2, 9)]:\n"
        "    flux = FluxMatrix.from_rational(np.array([[0, q], [-q, 0]]), den)\n"
        "    print(repr(lowest_eigenvalue(landau_hamiltonian(flux, n))))\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)),
        )
        for threads in (1, 2)
    ]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def landau_by_three_sorts(flux, n_max):
    """Reference: the Landau level summed by ``tensor_sum``, S-averaged by a
    second entry sum and taken to the rotation-adapted basis by a third,
    each merging its entries by a sort of their keys."""
    from dfslab import FockSpace, position_momentum
    from dfslab.opcore import _summed, tensor_sum

    x, p = (q.mat for q in position_momentum(FockSpace(1, n_max), 0))
    x2, p2 = x @ x, p @ p
    eye = n_max + 1
    phase = 1j ** np.arange(n_max + 1)

    def turn(m):
        return phase[:, None] * m * phase.conj()

    w01, w10 = flux.omega[0, 1], flux.omega[1, 0]
    h0 = tensor_sum([
        (0.5, (p2, eye)),
        (-0.5 * w01, (p, turn(x))),
        (0.125 * w01 * w01, (eye, turn(x2))),
        (0.5, (eye, turn(p2))),
        (-0.5 * w10, (x, turn(p))),
        (0.125 * w10 * w10, (x2, eye)),
    ])._entries
    dim = h0.shape[0]
    a, b = np.divmod(np.arange(dim), n_max + 1)
    swap = b * (n_max + 1) + a
    sigma = np.where((a + b) // 2 % 2, -1.0, 1.0)
    half = 0.5 * h0.vals
    turned = (swap[h0.rows], swap[h0.cols], sigma[h0.rows] * sigma[h0.cols] * half)
    h = _summed(dim, [(h0.rows, h0.cols, half), turned])
    first = a <= b
    r, c, v = (z[first[h.rows]] for z in (h.rows, h.cols, h.vals))
    folded = ~first[c]
    c = np.where(folded, swap[c], c)
    pair_r, pair_c = a[r] < b[r], a[c] < b[c]
    v = v * np.where(pair_r == pair_c, 1.0, np.where(pair_r, math.sqrt(2.0), math.sqrt(0.5)))
    plus = first & ((a < b) | (sigma > 0))
    minus = first & ((a < b) | (sigma < 0))
    parts = []
    for s, member, index in ((1.0, plus, np.cumsum(plus) - 1),
                             (-1.0, minus, np.count_nonzero(plus) + np.cumsum(minus) - 1)):
        inside = member[r] & member[c]
        sign = np.where(folded, s * sigma[c], 1.0)
        parts.append((index[r[inside]], index[c[inside]], (sign * v)[inside], folded[inside]))
    rows, cols, vals, late = (np.concatenate(z) for z in zip(*parts))
    return _summed(dim, [(rows[~late], cols[~late], vals[~late]), (rows[late], cols[late], vals[late])])


@pytest.mark.parametrize("n_max", [20, 24])
def test_landau_entries_keep_their_bits(n_max):
    """The one-sort build stores the reference's entries, in its order, bit
    for bit (signed zeros included), at zero, rational and irrational flux."""
    fluxes = [FluxMatrix(two_by_two(w)) for w in (0.0, -0.7, 1e-9, 3.3)]
    fluxes += [FluxMatrix.from_rational(np.array([[0, q], [-q, 0]]), den) for q, den in ((1, 6), (-2, 5), (7, 3))]
    for flux in fluxes:
        got = landau_hamiltonian(flux, n_max)._entries
        want = landau_by_three_sorts(flux, n_max)
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
        assert got.vals.tobytes() == want.vals.tobytes()


def test_landau_keeps_the_two_mode_budget():
    with pytest.raises(BudgetError):
        landau_hamiltonian(FluxMatrix(two_by_two(1.0)), 64)


def test_landau_lowest_level_frozen():
    flux = FluxMatrix(two_by_two(1.0))
    h = landau_hamiltonian(flux, 24)
    assert float(np.abs(h.mat - h.mat.conj().T).max()) < 1e-12
    lowest = float(np.linalg.eigvalsh(h.mat)[0])
    assert abs(lowest - 0.5) <= LANDAU_TOL


def test_landau_spectrum_even_in_flux():
    """Bit for bit, on the program's own path: the block eigenvalues and the
    refined ground level."""
    up = landau_hamiltonian(FluxMatrix(two_by_two(0.7)), 10)
    down = landau_hamiltonian(FluxMatrix(two_by_two(-0.7)), 10)
    assert np.array_equal(sector_eigh(up, vectors=False), sector_eigh(down, vectors=False))
    assert lowest_eigenvalue(up) == lowest_eigenvalue(down)


@pytest.mark.parametrize("n_max", [5, 20, 23, 24])
def test_landau_level_splits_into_four_rotation_and_parity_blocks(n_max):
    """Every nonzero rational flux with denominator at most 8: with L =
    n_max + 1 levels, E = ceil(L^2 / 2) even and O = floor(L^2 / 2) odd
    states, the pattern has exactly the four (parity, quarter-turn) blocks,
    every stored entry is real, and the spectrum is the ungauged
    operator's."""
    size = n_max + 1
    even, odd = -(-size * size // 2), size * size // 2
    sizes = sorted([(even - size) // 2 + -(-size // 2), (even - size) // 2 + size // 2, odd // 2, odd // 2])
    for den in range(2, 9):
        for num in range(1, den):
            flux = FluxMatrix.from_rational(np.array([[0, num], [-num, 0]]), den)
            h = landau_hamiltonian(flux, n_max)
            blocks = [rows.shape[1] for rows, _, _ in _split(h._entries, hermitian=True) for _ in rows]
            assert sorted(blocks) == sizes
            assert np.all(h._entries.vals.imag == 0.0)
            ref = parity_block_spectrum(dense_landau(flux, n_max), n_max)
            assert np.abs(sector_eigh(h, vectors=False) - ref).max() <= 1e-12


def parity_block_spectrum(ref, n_max):
    """The eigenvalues of a dense Fock-basis two-mode operator that keeps the
    parity of a + b, from the eigendecompositions (``eigh``) of its two
    parity blocks.  Whole-matrix ``eigvalsh`` is too coarse an oracle at
    these sizes: at n_max 24 and flux 2 pi 6/7 its eigenvalues, up to 287,
    lie 1.1e-12 from a 30-digit reference spectrum, and these 3.4e-13."""
    size = n_max + 1
    parity = np.add.outer(np.arange(size), np.arange(size)).reshape(-1) % 2
    return np.sort(np.concatenate([np.linalg.eigh(ref[np.ix_(parity == p, parity == p)])[0] for p in (0, 1)]))


def test_landau_needs_two_directions():
    flux = FluxMatrix(np.zeros((4, 4)))
    with pytest.raises(UnsupportedFluxError):
        landau_hamiltonian(flux, 4)
