"""Acceptance battery: every numbered criterion must pass at its stated
tolerance.  The shared fixture runs the whole battery once and each test
checks one criterion, printing its pass/fail line.  Run with ``-s`` to see
the lines inline; without it they are echoed in the terminal summary.
"""

import itertools
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dfslab import acceptance
from dfslab.acceptance import CriterionResult, run_all


def format_line(r):
    status = "PASS" if r.passed else "FAIL"
    return f"criterion {r.number:02d} {r.name}: {status} | {r.details}"


@pytest.fixture(scope="module")
def battery(request):
    results = run_all()
    lines = [format_line(r) for r in results]
    request.config._acceptance_lines = lines
    for line in lines:
        print(line)
    return {r.number: r for r in results}


def check(battery, number):
    result = battery[number]
    print(format_line(result))
    assert result.passed, result.details


def test_criterion_01_two_point_distance(battery):
    check(battery, 1)


def test_criterion_02_three_point_oracle(battery):
    check(battery, 2)


def test_criterion_03_dirac_commutant(battery):
    check(battery, 3)


def test_criterion_04_two_point_encoding(battery):
    check(battery, 4)


def test_criterion_05_interaction_symmetrization(battery):
    check(battery, 5)


def test_criterion_06_coherence_experiment(battery):
    check(battery, 6)


def test_criterion_07_clifford_pairs(battery):
    check(battery, 7)


def test_criterion_08_tower_commutators(battery):
    check(battery, 8)


def test_criterion_09_normal_modes(battery):
    check(battery, 9)


def test_criterion_10_dual_metric(battery):
    check(battery, 10)


def test_criterion_11_integer_duality_narain(battery):
    check(battery, 11)


def test_criterion_12_clock_shift_weyl(battery):
    check(battery, 12)


def test_criterion_13_substitution_match(battery):
    check(battery, 13)


def test_criterion_14_determinism(battery):
    check(battery, 14)


def test_criterion_14_fails_when_a_recomputed_criterion_changes(battery, monkeypatch):
    calls = itertools.count()

    def drifting(tol_scale=1.0):
        return CriterionResult(12, "clock-shift-weyl", True, "drifting", {"call": next(calls)})

    monkeypatch.setattr(acceptance, "criterion_12", drifting)
    first = [battery[n] for n in range(1, 12)] + [drifting()]
    result = acceptance.criterion_14(first, 1.0)
    assert not result.passed
    assert result.values["identical"] is False


def test_a_projector_that_misses_its_certificate_fails_criterion_5(monkeypatch, tmp_path):
    """A group average 2e-12 off a projector is a failed criterion with its
    measured residuals, and ``dfs-lab selftest`` exits 2, not 3.  The other
    criteria are stubbed as passing, so only criterion 5 runs."""
    from dfslab.cli import entry
    from dfslab.symmetry import PROJECTOR_TOL

    average = acceptance.group_average
    monkeypatch.setattr(acceptance, "group_average", lambda rep: average(rep) + 2e-12)
    result = acceptance.criterion_5()
    assert not result.passed
    assert all(case["idempotency"] > PROJECTOR_TOL for case in result.values["cases"])
    for n in (1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13):
        stub = CriterionResult(n, "stub", True, "stub")
        monkeypatch.setattr(acceptance, f"criterion_{n}", lambda tol_scale=1.0, stub=stub: stub)
    out = tmp_path / "selftest.json"
    assert entry(["selftest", "--out", str(out)]) == 2
    assert '"passed":false' in out.read_text()
    # the library's certificate is not scaled: a looser scale does not admit it
    assert not acceptance.criterion_5(tol_scale=10.0).passed


def test_selftest_output_is_byte_identical():
    """The installed command must serialize the battery identically twice,
    and byte for byte as pinned in tests/golden/selftest.json."""
    cmd = [
        sys.executable,
        "-c",
        "import sys; from dfslab.cli import entry; sys.exit(entry(['selftest']))",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    assert first.stdout == (pathlib.Path(__file__).parent / "golden" / "selftest.json").read_bytes()
    assert first.stdout.endswith(b"\n")
    for line in first.stderr.decode().splitlines():
        if line.startswith("criterion"):
            assert " FAIL " not in line


def test_criterion_8_interior_product_is_the_interior_block_of_the_full_one():
    """At criterion 8's draws, the commutator formed on the interior rows
    and columns only equals the interior block of the full commutator, bit
    for bit."""
    from dfslab.fock import FockSpace, hw_mode, interior_indices

    eta = acceptance._random_spd(acceptance._rng(2008), 2)
    space = FockSpace(4, 2)
    ops = {lvl: hw_mode(space, lvl, eta, modes=(2 * lvl - 2, 2 * lvl - 1)) for lvl in (1, 2)}
    inter = interior_indices(space)
    for e_n in (op.mat for lvl in (1, 2) for op in ops[lvl]):
        for e_m_dag in (op.mat.conj().T for lvl in (1, 2) for op in ops[lvl]):
            full = (e_n @ e_m_dag - e_m_dag @ e_n)[np.ix_(inter, inter)]
            interior = e_n[inter] @ e_m_dag[:, inter] - e_m_dag[inter] @ e_n[:, inter]
            assert interior.tobytes() == full.tobytes()


def test_closed_form_largest_eigenvalue_agrees_with_lapack():
    """On 10,000 seeded traceless Hermitian 3x3 matrices, half of them with
    a zero diagonal as the oracle's are, to 1e-14 relative."""
    rng = np.random.default_rng(34)
    a = rng.normal(size=(10_000, 3, 3)) + 1j * rng.normal(size=(10_000, 3, 3))
    h = a + a.conj().transpose(0, 2, 1)
    h[:, 2, 2] = -(h[:, 0, 0] + h[:, 1, 1])
    h[5_000:, [0, 1, 2], [0, 1, 2]] = 0.0
    want = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
    got = acceptance._largest_abs_eigenvalue(h)
    assert (np.abs(got - want) / want).max() <= 1e-14
    assert acceptance._largest_abs_eigenvalue(np.zeros((1, 3, 3), dtype=complex))[0] == 0.0


def test_oracle_takes_lapack_for_every_sample_when_a_diagonal_is_not_zero(monkeypatch):
    """The closed form is used only when every sample's diagonal is exactly
    0; a commutator with a nonzero diagonal sends all samples to eigvalsh."""
    monkeypatch.setattr(acceptance, "ORACLE_SAMPLES", 2_000)
    rng = np.random.default_rng(35)
    d = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    d = d + d.conj().T
    np.fill_diagonal(d, 0.0)
    basis = [np.diag(v).astype(complex) for v in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]
    comms = np.stack([d @ b - b @ d for b in basis])
    g = np.array([0.3, -0.2])
    calls = []
    for name in ("_largest_abs_eigenvalue", "_lapack_norms"):
        norms = getattr(acceptance, name)
        monkeypatch.setattr(acceptance, name, lambda h, name=name, norms=norms: calls.append((name, len(h))) or norms(h))
    acceptance._oracle_distance(g, comms, acceptance._rng(1))
    # the closed form on every sample, then LAPACK on the few it keeps
    assert calls[0] == ("_largest_abs_eigenvalue", 2_000)
    assert calls[1][0] == "_lapack_norms" and calls[1][1] < 2_000
    calls.clear()
    tilted = comms.copy()
    tilted[0, 1, 1] = 1e-3j  # anti-Hermitian still, but not traceless
    acceptance._oracle_distance(g, tilted, acceptance._rng(1))
    assert calls[0] == ("_lapack_norms", 2_000)
    assert all(name == "_lapack_norms" for name, _ in calls)
