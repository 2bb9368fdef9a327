"""Seeded invariants that cut across modules.

Each test draws a handful of random instances with a fixed counter-based
generator, so failures reproduce bit-for-bit on any platform.
"""

import numpy as np
import pytest

from dfslab import (
    Background,
    CliffordPair,
    DensityMatrix,
    DomainError,
    ONNElement,
    Operator,
    StateFunctional,
    commutant_basis,
    connes_distance,
    fidelity,
    make_diagonal_triple,
    narain_energies,
    onn_apply,
    onn_generators,
    pure_state,
    symmetrize_operator,
    build_decoherence_model,
    charge_matrix,
    clifford_pair,
    close_group,
    coupling_shift,
    coupling_swap,
    tensor,
    transform_charge_stack,
)
from dfslab.reporting import canonical_json


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return DensityMatrix(Operator(rho / np.trace(rho)))


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def diagonal_dirac(rng, n):
    d = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = rng.uniform(0.4, 1.2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            d[j, i] = np.conj(d[i, j])
    return Operator(d)


def test_distance_is_symmetric_and_scales():
    rng = gen(101)
    for _ in range(3):
        triple = make_diagonal_triple(3, diagonal_dirac(rng, 3))
        p = StateFunctional(DensityMatrix(Operator(np.diag(rng.dirichlet(np.ones(3)).astype(complex)))))
        q = StateFunctional(DensityMatrix(Operator(np.diag(rng.dirichlet(np.ones(3)).astype(complex)))))
        d_pq = connes_distance(triple, p, q).value
        d_qp = connes_distance(triple, q, p).value
        assert d_pq == pytest.approx(d_qp, rel=1e-5, abs=1e-8)
        doubled = make_diagonal_triple(3, Operator(2.0 * triple.dirac.mat))
        d2 = connes_distance(doubled, p, q).value
        assert d2 == pytest.approx(d_pq / 2.0, rel=1e-5)


def test_fidelity_is_unitary_invariant_and_bounded():
    rng = gen(102)
    for _ in range(5):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        f = fidelity(rho, sigma)
        assert -1e-12 <= f <= 1.0 + 1e-12
        u = random_unitary(rng, 3)
        rho_u = DensityMatrix(Operator(u @ rho.op.mat @ u.conj().T))
        sigma_u = DensityMatrix(Operator(u @ sigma.op.mat @ u.conj().T))
        assert fidelity(rho_u, sigma_u) == pytest.approx(f, abs=1e-9)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)


def test_tensor_is_associative():
    rng = gen(103)
    a = Operator(random_hermitian(rng, 2))
    b = Operator(random_hermitian(rng, 3))
    c = Operator(random_hermitian(rng, 2))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    # entries are a*b*c grouped two ways, so allow the last ulp
    assert float(np.abs(left.mat - right.mat).max()) < 1e-13


def test_commutant_is_adjoint_closed_and_unital():
    rng = gen(104)
    for _ in range(3):
        g = Operator(random_hermitian(rng, 3))
        basis = commutant_basis([g], 3)
        eye_flat = np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3.0)
        assert basis.residual(eye_flat) < 1e-10
        for row in basis.vectors:
            adj = row.reshape(3, 3).conj().T.reshape(-1)
            assert basis.residual(adj / np.linalg.norm(adj)) < 1e-10


def test_symmetrized_operator_commutes_with_the_group():
    rng = gen(105)
    theta = Operator(np.pi * np.diag([0.0, 1.0, 2.0, 3.0]))
    group = close_group([theta])
    h = Operator(random_hermitian(rng, 4))
    avg = symmetrize_operator(group, h)
    for u in group.elements:
        # a diagonal group stores each element as its phase vector
        assert float(np.abs(u[:, None] * avg.mat - avg.mat * u[None, :]).max()) < 1e-12
    # averaging twice changes nothing
    again = symmetrize_operator(group, avg)
    assert float(np.abs(again.mat - avg.mat).max()) < 1e-12


def test_narain_energy_invariant_under_random_words():
    rng = gen(106)
    bg = Background(
        np.array([[1.0, 0.25], [0.25, 1.75]]),
        np.array([[0.0, 0.5], [-0.5, 0.0]]),
    )
    gens = onn_generators(2)
    for _ in range(10):
        word = ONNElement(np.eye(4))
        for k in rng.integers(0, len(gens), size=int(rng.integers(1, 5))):
            word = word.compose(gens[k])
        moved = onn_apply(word, bg)
        charges = rng.integers(-3, 4, size=(5, 4))
        before = narain_energies(bg, charges)
        for row, energy in zip(charges, before):
            after = narain_energies(moved, transform_charge_stack(word, row[None, :]))
            assert abs(energy - after[0]) < 1e-9
        after = narain_energies(moved, transform_charge_stack(word, charges))
        assert np.abs(before - after).max() < 1e-9


def random_word(rng, gens):
    word = gens[int(rng.integers(len(gens)))]
    for k in rng.integers(0, len(gens), size=int(rng.integers(0, 6))):
        word = word.compose(gens[k])
    return word


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_products_and_inverses_are_group_elements(n):
    """compose and inverse skip the pairing check; the validating
    constructor must accept what they return, unchanged."""
    rng = gen(110 + n)
    gens = onn_generators(n)
    eye = np.eye(2 * n, dtype=np.int64)
    for _ in range(100):
        g, h = random_word(rng, gens), random_word(rng, gens)
        for out in (g.compose(h), h.compose(g), g.inverse()):
            checked = ONNElement(out.matrix, out.swap)
            assert out.matrix.dtype == np.int64 and not out.matrix.flags.writeable
            assert np.array_equal(checked.matrix, out.matrix) and checked.swap == out.swap
        assert np.array_equal(charge_matrix(g.compose(h)), charge_matrix(g) @ charge_matrix(h))
        for ident in (g.compose(g.inverse()), g.inverse().compose(g)):
            assert np.array_equal(ident.matrix, eye) and ident.swap is False


def test_group_product_past_int64_raises():
    theta = np.array([[0, 2**62], [-(2**62), 0]])
    big = coupling_shift(theta)
    for g, h in ((big, big), (big, coupling_swap(2).compose(big))):
        with pytest.raises(DomainError, match="int64"):
            g.compose(h)


def test_canonical_json_is_stable_and_key_sorted():
    payload = {
        "zeta": [1, 2, {"b": 0.1, "a": complex(1, -2)}],
        "alpha": np.arange(4).reshape(2, 2),
        "flag": True,
        "neg": -0.0,
    }
    one = canonical_json(payload)
    two = canonical_json(payload)
    assert one == two
    assert one.index('"alpha"') < one.index('"flag"') < one.index('"neg"') < one.index('"zeta"')
    assert "-0.0" not in one
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})


EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.15, 1 / 3, 2.5e-5]


def _float_text(x) -> str:
    """The per-item float rule: twelve digits after the point in scientific
    notation, with -0.0 written as 0.0."""
    return format(0.0 if x == 0.0 else float(x), ".12e")


@pytest.mark.parametrize(
    "items, want",
    [
        (EDGE_FLOATS + [-x for x in EDGE_FLOATS], None),
        ([], "[]"),
        ([[0.5, -0.0], [], [[1 / 3]]], "[[5.000000000000e-01,0.000000000000e+00],[],[[3.333333333333e-01]]]"),
        ([0.5, 1, -0.0], "[5.000000000000e-01,1,0.000000000000e+00]"),
        ([True, 0.25], "[true,2.500000000000e-01]"),
        ([np.float64(-0.0), 2.5e-5, np.float64(1 / 3)], "[0.000000000000e+00,2.500000000000e-05,3.333333333333e-01]"),
    ],
    ids=["edge-floats", "empty", "nested", "with-int", "with-bool", "with-np-float64"],
)
def test_float_lists_render_by_the_per_item_rule(items, want):
    """A list of Python floats is written in one pass; these are the bytes
    of the per-item rule, for every such list and for lists that mix floats
    with other items."""
    if want is None:
        want = "[" + ",".join(_float_text(x) for x in items) + "]"
    assert canonical_json(items) == want + "\n"
    assert canonical_json({"k": items}) == '{"k":' + want + "}\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("others", [[], [0.5, -0.0], [1]])
def test_a_non_finite_float_in_a_list_has_no_encoding(bad, others):
    with pytest.raises(ValueError, match="non-finite float has no canonical encoding"):
        canonical_json(others + [bad])


def _asymmetric(scale, complex_part=0.0):
    """A scale times a matrix whose largest entry is 1 and whose asymmetry
    is 1e-6, far beyond roundoff at any scale."""
    return scale * np.array([[1.0, 0.3 + complex_part], [0.3 - complex_part + 1e-6, 0.7]])


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
def test_clearly_non_hermitian_inputs_are_refused_at_every_scale(scale):
    with pytest.raises(DomainError, match="metric must be symmetric"):
        Background(_asymmetric(scale), np.zeros((2, 2)))
    coupling = scale * np.array([[0.0, 1.0], [-1.0 + 1e-6, 0.0]])
    with pytest.raises(DomainError, match="coupling must be antisymmetric"):
        Background(np.eye(2), coupling)
    with pytest.raises(DomainError, match="system coupling must be Hermitian"):
        build_decoherence_model(_asymmetric(scale, 0.2j), [[1.0]], [[0.3], [0.2]], 1)
    # a pair built on a metric, checked against that metric with one
    # off-diagonal entry moved by 1e-6 of its largest entry
    eta = scale * np.array([[2.0, 0.5], [0.5, 1.0]])
    pair = clifford_pair(eta)
    bad = eta.copy()
    bad[1, 0] += 2e-6 * scale
    with pytest.raises(DomainError, match="anticommutators do not close"):
        CliffordPair(bad, pair.gamma_plus, pair.gamma_minus)
    # the unperturbed pair passes its own check at this scale
    CliffordPair(eta, pair.gamma_plus, pair.gamma_minus)
