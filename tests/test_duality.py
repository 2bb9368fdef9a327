import numpy as np
import pytest

from dfslab import (
    CHARGE_BUDGET,
    Background,
    BudgetError,
    DomainError,
    ONNElement,
    ShapeError,
    UsageError,
    basis_change,
    charge_box,
    charge_matrix,
    coupling_shift,
    coupling_swap,
    dual_metric,
    factorized_inversion,
    max_energy_shift,
    narain_energies,
    normal_modes,
    onn_apply,
    onn_generators,
    pairing_matrix,
    transform_charge_stack,
)
from dfslab import acceptance, cli, duality

ACTION_TOL = 1e-12


def test_background_validation():
    with pytest.raises(DomainError):
        Background(np.array([[1.0, 0.2], [0.3, 1.0]]), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        Background(np.array([[-1.0]]), np.zeros((1, 1)))
    with pytest.raises(DomainError):
        Background(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ShapeError):
        Background(np.eye(2), np.zeros((3, 3)))


@pytest.mark.parametrize(
    "metric, coupling",
    [([[np.nan]], [[0.0]]), ([[np.inf]], [[0.0]]), ([[1.0]], [[np.nan]])],
)
def test_background_rejects_non_finite_entries(metric, coupling):
    """A comparison with NaN is false, so without the finiteness check these
    pass the symmetry and positivity checks."""
    with pytest.raises(DomainError, match="must be finite"):
        Background(metric, coupling)


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
def test_background_refuses_a_metric_singular_to_working_precision(scale):
    """[[1000, 1], [1, 0.001]] has determinant exactly 0, but its Cholesky
    factorization succeeds by rounding: the condition number over 1/eps
    refuses it at every scale (powers of two, which scale it exactly), as
    onn_apply refuses cE + d."""
    metric = scale * np.array([[1000.0, 1.0], [1.0, 0.001]])
    with pytest.raises(DomainError, match="^metric must be nonsingular to working precision$"):
        Background(metric, np.zeros((2, 2)))


@pytest.mark.parametrize("metric", [1e-300 * np.eye(2), 1e300 * np.eye(2), np.diag([1.0, 1e-15])])
def test_background_accepts_a_metric_that_is_only_far_from_unit_scale(metric):
    assert np.array_equal(Background(metric, np.zeros((2, 2))).metric, metric)


def test_background_keeps_the_factors_of_its_check():
    """The Cholesky factor of the metric is the one its check computed, and
    the inverse metric with its factor are computed once, when first read."""
    eta = np.array([[2.0, 0.6], [0.6, 1.5]])
    bg = Background(eta, np.zeros((2, 2)))
    assert np.array_equal(bg._chol, np.linalg.cholesky(eta))
    inverse, factor = bg._inverse
    assert np.array_equal(inverse, np.linalg.inv(eta))
    assert np.array_equal(factor, np.linalg.cholesky(np.linalg.inv(eta)))
    assert bg._inverse is bg._inverse


def test_background_matrices_are_frozen():
    bg = Background(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bg.metric[0, 0] = 5.0


def test_background_e_matrix_split():
    eta = np.array([[1.0, 0.2], [0.2, 2.0]])
    xi = np.array([[0.0, 0.7], [-0.7, 0.0]])
    bg = Background(eta, xi)
    assert np.array_equal(bg.e_matrix, eta + xi)
    assert np.array_equal(bg.k_minus, eta - xi)


def test_pairing_matrix_is_off_diagonal_identity():
    j = pairing_matrix(2)
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    assert np.array_equal(j, expected)


def test_element_rejects_non_preserving_matrix():
    with pytest.raises(DomainError):
        ONNElement(np.array([[1, 1], [0, 1]]))
    with pytest.raises(ShapeError):
        ONNElement(np.eye(3, dtype=np.int64))


def test_generators_preserve_pairing_exactly():
    for n in (1, 2, 3):
        j = pairing_matrix(n)
        for gen in onn_generators(n):
            g = gen.matrix
            assert np.array_equal(g.T @ j @ g, j)
            assert gen.det() in (1, -1)


def test_inverse_roundtrip_including_swap():
    rng = np.random.Generator(np.random.Philox(51))
    gens = onn_generators(2)
    ident = ONNElement(np.eye(4))
    for _ in range(20):
        word = ident
        for k in rng.integers(0, len(gens), size=4):
            word = word.compose(gens[k])
        inv = word.inverse()
        assert np.array_equal(word.compose(inv).matrix, ident.matrix)
        assert np.array_equal(inv.compose(word).matrix, ident.matrix)
        assert not word.compose(inv).swap


def test_action_is_a_homomorphism():
    rng = np.random.Generator(np.random.Philox(52))
    bg = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.4], [-0.4, 0.0]]))
    gens = onn_generators(2)
    for _ in range(10):
        a = gens[int(rng.integers(len(gens)))]
        b = gens[int(rng.integers(len(gens)))]
        via_product = onn_apply(a.compose(b), bg)
        via_steps = onn_apply(a, onn_apply(b, bg))
        assert float(np.abs(via_product.metric - via_steps.metric).max()) < ACTION_TOL
        assert float(np.abs(via_product.coupling - via_steps.coupling).max()) < ACTION_TOL


def test_charge_matrix_is_multiplicative():
    gens = onn_generators(2)
    for a in gens:
        for b in gens:
            lhs = charge_matrix(a.compose(b))
            rhs = charge_matrix(a) @ charge_matrix(b)
            assert np.array_equal(lhs, rhs)


def test_full_inversion_inverts_the_metric():
    bg = Background(np.array([[2.25]]), np.zeros((1, 1)))
    g = factorized_inversion(1, [0])
    assert np.array_equal(g.matrix, np.array([[0, 1], [1, 0]]))
    moved = onn_apply(g, bg)
    assert abs(moved.metric[0, 0] - 1.0 / 2.25) < ACTION_TOL


@pytest.mark.parametrize("metric", [1e-5 * np.eye(3), np.array([[1e-13]])])
def test_inversion_of_a_small_metric_is_not_singular(metric):
    n = metric.shape[0]
    moved = onn_apply(factorized_inversion(n, range(n)), Background(metric, np.zeros((n, n))))
    want = np.diag(1.0 / np.diag(metric))
    assert np.abs(moved.metric - want).max() <= 1e-12 * want.max()
    assert np.abs(moved.coupling).max() == 0.0


def test_full_inversion_charge_map():
    g = factorized_inversion(1, [0])
    assert transform_charge_stack(g, [[3, -2]]).tolist() == [[2, -3]]
    assert transform_charge_stack(g, [[3, -2], [0, 1], [-1, 0]]).tolist() == [[2, -3], [-1, 0], [0, 1]]


def test_inversion_requires_valid_directions():
    with pytest.raises(UsageError):
        factorized_inversion(2, [])
    with pytest.raises(DomainError):
        factorized_inversion(2, [2])


def test_coupling_shift_adds_to_coupling():
    eta = np.array([[1.0, 0.0], [0.0, 1.5]])
    xi = np.array([[0.0, 0.25], [-0.25, 0.0]])
    bg = Background(eta, xi)
    theta = np.array([[0, 1], [-1, 0]])
    moved = onn_apply(coupling_shift(theta), bg)
    assert float(np.abs(moved.metric - eta).max()) < ACTION_TOL
    assert float(np.abs(moved.coupling - (xi + theta)).max()) < ACTION_TOL


def test_coupling_shift_charge_map():
    theta = np.array([[0, 1], [-1, 0]])
    g = coupling_shift(theta)
    assert transform_charge_stack(g, [[0, 0, 1, 2]]).tolist() == [[-2, 1, 1, 2]]
    stack = [[0, 0, 1, 2], [3, -1, 0, 0], [1, 1, -1, 1]]
    assert transform_charge_stack(g, stack).tolist() == [[-2, 1, 1, 2], [3, -1, 0, 0], [0, 0, -1, 1]]


def test_coupling_shift_rejects_symmetric_theta():
    with pytest.raises(DomainError):
        coupling_shift(np.array([[0, 1], [1, 0]]))


def test_swap_transposes_e_and_flips_windings():
    eta = np.array([[1.0, 0.0], [0.0, 1.5]])
    xi = np.array([[0.0, 0.25], [-0.25, 0.0]])
    bg = Background(eta, xi)
    moved = onn_apply(coupling_swap(2), bg)
    assert float(np.abs(moved.coupling + xi).max()) < ACTION_TOL
    assert float(np.abs(moved.metric - eta).max()) < ACTION_TOL
    charges = transform_charge_stack(coupling_swap(2), [[1, 0, 0, 1], [2, -1, 3, -4]])
    assert charges.tolist() == [[1, 0, 0, -1], [2, -1, -3, 4]]


def test_swap_squares_to_identity():
    s = coupling_swap(2)
    sq = s.compose(s)
    assert not sq.swap
    assert np.array_equal(sq.matrix, np.eye(4, dtype=np.int64))


def test_basis_change_requires_unimodular():
    with pytest.raises(DomainError):
        basis_change(np.array([[2, 0], [0, 1]]))


def test_integer_matrices_outside_the_int64_range_are_rejected():
    # astype(np.int64) would wrap these to -2^63
    with pytest.raises(DomainError, match="int64 range"):
        coupling_shift(np.array([[0.0, 1e19], [-1e19, 0.0]]))
    with pytest.raises(DomainError, match="int64 range"):
        basis_change(np.array([[9.3e18, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="integer entries"):
        coupling_shift(np.array([[0.0, np.inf], [-np.inf, 0.0]]))


def test_narain_energy_closed_forms():
    bg = Background(np.array([[4.0]]), np.zeros((1, 1)))
    for row, expected in (([1, 0], 0.125), ([0, 1], 2.0)):
        assert narain_energies(bg, [row])[0] == pytest.approx(expected, abs=1e-15)
    assert narain_energies(bg, [[0, 0]])[0] == 0.0
    stacked = narain_energies(bg, [[1, 0], [0, 1], [0, 0], [2, 1]])
    assert np.allclose(stacked, [0.125, 2.0, 0.0, 0.5 + 2.0], rtol=0.0, atol=1e-15)


def test_narain_energy_with_coupling():
    eta = np.array([[1.0, 0.0], [0.0, 1.0]])
    xi = np.array([[0.0, 0.5], [-0.5, 0.0]])
    bg = Background(eta, xi)
    m = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    shifted = m + xi @ w
    expected = 0.5 * shifted @ shifted + 0.5
    assert narain_energies(bg, [[1, 0, 0, 1]])[0] == pytest.approx(expected, abs=1e-14)
    charges = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 1, 1, 0], [2, -1, 1, 1]])
    expected = [
        0.5 * (row[:2] + xi @ row[2:]) @ (row[:2] + xi @ row[2:]) + 0.5 * row[2:] @ row[2:]
        for row in charges.astype(float)
    ]
    assert np.allclose(narain_energies(bg, charges), expected, rtol=0.0, atol=1e-14)


def _random_background(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eta = (q * rng.uniform(0.3, 3.0, size=n)) @ q.T
    u = np.triu(rng.normal(size=(n, n)), k=1)
    return Background(0.5 * (eta + eta.T), u - u.T)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_narain_energies_match_the_closed_form(n):
    """1/2 s^T eta^-1 s + 1/2 w^T eta w with s = m + xi w, row by row with
    an explicit inverse, on random backgrounds."""
    rng = np.random.default_rng(50 + n)
    for _ in range(5):
        bg = _random_background(rng, n)
        charges = rng.integers(-4, 5, size=(40, 2 * n))
        charges[0] = 0
        got = narain_energies(bg, charges)
        eta_inv = np.linalg.inv(bg.metric)
        for row, value in zip(charges, got):
            m, w = row[:n].astype(float), row[n:].astype(float)
            s = m + bg.coupling @ w
            expected = 0.5 * s @ eta_inv @ s + 0.5 * w @ bg.metric @ w
            assert abs(value - expected) <= 1e-12 * abs(expected)
        assert got[0] == 0.0


def test_narain_energies_rejects_a_wrong_width():
    bg = Background(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        narain_energies(bg, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ShapeError):
        narain_energies(bg, np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("n, box", [(1, 0), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_charge_box_holds_every_charge_once(n, box):
    charges = charge_box(n, box)
    assert charges.shape == ((2 * box + 1) ** (2 * n), 2 * n)
    assert charges.dtype == np.int64
    assert len(np.unique(charges, axis=0)) == charges.shape[0]
    assert charges.min(initial=0) >= -box and charges.max(initial=0) <= box


def test_charge_box_budget_is_checked_before_allocating():
    with pytest.raises(BudgetError):
        charge_box(2, 1000)
    with pytest.raises(BudgetError):
        charge_box(4, 10**12)
    side = int(CHARGE_BUDGET ** 0.25)
    assert charge_box(2, (side - 1) // 2).shape[0] <= CHARGE_BUDGET
    with pytest.raises(DomainError):
        charge_box(1, -1)
    with pytest.raises(TypeError):
        charge_box(1, 1.5)


def test_charge_stack_map_matches_the_single_charge_map():
    charges = charge_box(2, 2)
    for gen in onn_generators(2) + [coupling_shift(np.array([[0, 3], [-3, 0]]))]:
        moved = transform_charge_stack(gen, charges)
        rho = charge_matrix(gen)
        assert np.array_equal(moved, np.array([rho @ row for row in charges]))
        assert np.array_equal(transform_charge_stack(gen, charges[7:8]), moved[7:8])


def _transposed_charge_map(monkeypatch):
    original = duality.charge_matrix
    monkeypatch.setattr(duality, "charge_matrix", lambda element: original(element).T)


def test_criterion_11_catches_a_wrong_charge_map(monkeypatch):
    assert acceptance.criterion_11().passed
    _transposed_charge_map(monkeypatch)
    assert not acceptance.criterion_11().passed


def test_duality_scenario_catches_a_wrong_charge_map(monkeypatch):
    scenario = {
        "schema_version": 1,
        "kind": "duality",
        "params": {
            "metric": [[1.0, 0.3], [0.3, 2.0]],
            "coupling": [[0.0, 0.7], [-0.7, 0.0]],
            "box": 2,
            "generator": {"kind": "shift", "theta": [[0, 1], [-1, 0]]},
        },
    }
    assert cli.run_scenario(scenario)["pass"]
    _transposed_charge_map(monkeypatch)
    report = cli.run_scenario(scenario)
    (check,) = report["checks"]
    assert check["name"] == "narain-energy-invariance" and not check["pass"]


def _inversion_scenario(metric, box):
    n = len(metric)
    return {
        "schema_version": 1,
        "kind": "duality",
        "params": {"metric": metric, "box": box, "generator": {"kind": "inversion", "directions": list(range(n))}},
    }


SMALL_METRIC = (1e-5 * np.eye(3)).tolist()


def test_energy_check_is_relative_to_the_largest_energy():
    # energies reach 1.35e6 here, so a roundoff shift of about 1e-10 is far
    # below 1e-10 of the largest one
    report = cli.run_scenario(_inversion_scenario(SMALL_METRIC, 3))
    (check,) = report["checks"]
    assert check["name"] == "narain-energy-invariance"
    assert check["pass"] and check["value"] > 1e-10
    assert check["tolerance"] == pytest.approx(1e-10 * 1.35e6, rel=1e-12)


@pytest.mark.parametrize("metric", [SMALL_METRIC, [[2.25]]])
def test_energy_check_fails_a_background_moved_off_the_duality(metric, monkeypatch):
    original = duality.onn_apply

    def moved(element, background):
        out = original(element, background)
        return Background(out.metric * (1.0 + 1e-8), out.coupling)

    monkeypatch.setattr(duality, "onn_apply", moved)
    (check,) = cli.run_scenario(_inversion_scenario(metric, 3))["checks"]
    assert not check["pass"]


def test_max_energy_shift_is_roundoff_for_every_generator():
    bg = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.7], [-0.7, 0.0]]))
    charges = charge_box(2, 2)
    for gen in onn_generators(2):
        assert max_energy_shift(gen, bg, charges) < 1e-12


def test_spectrum_invariant_under_box_preserving_generators():
    """Inversions, relabelings and the swap permute the charge box into
    itself, so the truncated spectrum is the same multiset.  Coupling shifts
    move charges out of the box and are covered by the per-charge test."""
    bg = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.7], [-0.7, 0.0]]))
    charges = charge_box(2, 1)
    base = narain_energies(bg, charges)
    perm = np.array([[0, 1], [1, 0]])
    box_preserving = [
        factorized_inversion(2, [0]),
        factorized_inversion(2, [0, 1]),
        basis_change(perm),
        coupling_swap(2),
    ]
    for gen in box_preserving:
        moved = onn_apply(gen, bg)
        new = narain_energies(moved, charges)
        assert np.allclose(np.sort(base), np.sort(new), atol=1e-10)


def test_energy_per_charge_tracks_the_map():
    bg = Background(np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[0.0, 0.7], [-0.7, 0.0]]))
    charges = np.array([[m1, 1, w1, 0] for m1 in (-1, 0, 1) for w1 in (-1, 0, 2)])
    for gen in onn_generators(2):
        moved = onn_apply(gen, bg)
        before = narain_energies(bg, charges)
        after = narain_energies(moved, transform_charge_stack(gen, charges))
        assert np.abs(before - after).max() < 1e-10
        for row, energy in zip(charges, before):
            one = narain_energies(moved, transform_charge_stack(gen, row[None, :]))
            assert abs(one[0] - energy) < 1e-10


def test_dual_metric_inverts_when_coupling_vanishes():
    eta = np.array([[1.0, 0.3], [0.3, 2.0]])
    bg = Background(eta, np.zeros((2, 2)))
    assert float(np.abs(dual_metric(bg) - np.linalg.inv(eta)).max()) < ACTION_TOL


def test_dual_metric_is_symmetric_part_of_inverse_e():
    """Bit for bit, so exactly symmetric."""
    eta = np.array([[1.0, 0.3], [0.3, 2.0]])
    xi = np.array([[0.0, 0.6], [-0.6, 0.0]])
    bg = Background(eta, xi)
    inv_e = np.linalg.inv(bg.e_matrix)
    dm = dual_metric(bg)
    assert np.array_equal(dm, dm.T)
    assert np.array_equal(dm, 0.5 * (inv_e + inv_e.T))


def test_dual_of_dual_restores_the_metric():
    eta = np.array([[1.0, 0.3], [0.3, 2.0]])
    xi = np.array([[0.0, 0.6], [-0.6, 0.0]])
    bg = Background(eta, xi)
    inv_e = np.linalg.inv(bg.e_matrix)
    dual_bg = Background(0.5 * (inv_e + inv_e.T), 0.5 * (inv_e - inv_e.T))
    assert float(np.abs(dual_metric(dual_bg) - eta).max()) < ACTION_TOL


def test_dual_metric_is_the_inverse_of_the_open_string_metric():
    """sym((G + B)^-1) = (G - B G^-1 B)^-1 (Seiberg and Witten,
    hep-th/9908142), relative to its largest entry, over seeded backgrounds
    at metric scales 1e-3 to 1e4 whose coupling is not zero (n >= 2)."""
    rng = np.random.default_rng(3802)
    worst = 0.0
    for n in (1, 2, 3):
        for scale in (1e-3, 1e-1, 1.0, 1e2, 1e4):
            for _ in range(10):
                a = rng.normal(size=(n, n))
                u = np.triu(rng.normal(size=(n, n)), k=1)
                eta, xi = scale * (a @ a.T + 0.25 * np.eye(n)), scale * (u - u.T)
                closed = np.linalg.inv(eta - xi @ np.linalg.inv(eta) @ xi)
                residual = np.abs(dual_metric(Background(eta, xi)) - closed).max()
                worst = max(worst, float(residual / np.abs(closed).max()))
    assert worst < 1e-13


def test_dual_metric_of_a_metric_near_the_smallest_float_is_finite():
    """E^-1 is 1e308 here, so E^-1 + E^-T would overflow; the halves are
    summed instead."""
    dm = dual_metric(Background([[1e-308]], [[0.0]]))
    assert dm[0, 0] == pytest.approx(1e308, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_inversion_of_a_metric_near_the_smallest_float_is_finite():
    """The image of [[1e-308]] under the inversion has E = [[1e308]], so
    E + E^T would overflow; its metric and coupling are summed from the
    halves instead, and no overflow warning is raised."""
    moved = onn_apply(factorized_inversion(1, [0]), Background([[1e-308]], [[0.0]]))
    assert moved.metric[0, 0] == pytest.approx(1e308, rel=1e-15)
    assert moved.coupling[0, 0] == 0.0 and np.isfinite(moved._chol).all()


def test_dual_metric_refuses_an_inverse_of_e_that_overflows():
    with pytest.raises(DomainError, match="^dual metric overflows on this background$"):
        dual_metric(Background([[1e-310]], [[0.0]]))


def test_a_duality_scenario_with_a_substitution_inverts_e_once(monkeypatch):
    """The dual metric, the substitution's p slots and its inverse
    background read the background's one E^-1; the word, an inversion of
    one direction after a shift, makes onn_apply invert neither E nor E^T."""
    metric, coupling = [[1.0, 0.3], [0.3, 2.0]], [[0.0, 0.7], [-0.7, 0.0]]
    e = np.array(metric) + np.array(coupling)
    real = np.linalg.inv
    inverted = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(np.array(a)) or real(a))
    word = [{"kind": "inversion", "directions": [0]}, {"kind": "shift", "theta": [[0, 1], [-1, 0]]}]
    params = {"metric": metric, "coupling": coupling, "box": 2, "word": word, "substitution": {"n_max": 1, "levels": 1}}
    report = cli.run_scenario({"schema_version": 1, "kind": "duality", "params": params})
    assert report["pass"]
    assert sum(np.array_equal(a, e) or np.array_equal(a, e.T) for a in inverted) == 1


def test_a_duality_scenario_applies_its_element_once(monkeypatch):
    """The transformed background of the report and the energy check's
    image are one onn_apply."""
    original = duality.onn_apply
    calls = []

    def counted(element, background):
        calls.append(element)
        return original(element, background)

    monkeypatch.setattr(duality, "onn_apply", counted)
    monkeypatch.setattr(cli, "onn_apply", counted, raising=False)
    report = cli.run_scenario(_inversion_scenario([[2.25]], 3))
    assert len(calls) == 1
    assert report["results"]["transformed_metric"] == [[1.0 / 2.25]]


def test_normal_modes_unit_for_inverse_pair():
    eta = np.array([[1.0, 0.3], [0.3, 2.0]])
    freqs = normal_modes(np.linalg.inv(eta), eta)
    assert np.allclose(freqs, 1.0, atol=1e-10)


def test_normal_modes_diagonal_example():
    freqs = normal_modes(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]))
    assert np.allclose(freqs, [2.0, 3.0], atol=1e-10)


@pytest.mark.parametrize("kinetic, potential", [([[1.0]], [[np.nan]]), ([[np.inf]], [[1.0]])])
def test_normal_modes_rejects_non_finite_entries(kinetic, potential):
    with pytest.raises(DomainError, match="must be finite"):
        normal_modes(kinetic, potential)


def test_normal_modes_validation():
    with pytest.raises(DomainError):
        normal_modes(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(DomainError):
        normal_modes(np.eye(2), np.diag([1.0, -2.0]))
    with pytest.raises(ShapeError):
        normal_modes(np.eye(2), np.eye(3))


def test_compose_refuses_a_product_past_the_int64_range():
    """Sixty letters of basis_change([[2, 1], [1, 1]]) reach an entry of
    8670007398507948658051921; int64 products wrapped it to
    790376311979428689, which still passed g^T J g = J modulo 2^64."""
    letter = basis_change([[2, 1], [1, 1]])
    exact = np.array([[2, 1], [1, 1]], dtype=object).T
    element = letter
    for _ in range(39):
        element = element.compose(letter)
        exact = exact.dot(np.array([[2, 1], [1, 1]], dtype=object).T)
    assert [[int(x) for x in row] for row in element.matrix[:2, :2]] == exact.tolist()
    with pytest.raises(DomainError, match="int64"):
        for _ in range(20):
            element = element.compose(letter)


def test_charge_map_refuses_a_product_past_the_int64_range():
    """m + 2^62 w at m = w = 2 is 2^63 + 2, past the int64 range."""
    shift = coupling_shift([[0, 2**62], [-(2**62), 0]])
    with pytest.raises(DomainError, match="int64"):
        transform_charge_stack(shift, charge_box(2, 2))
    assert transform_charge_stack(shift, charge_box(2, 1)).max() == 2**62 + 1
