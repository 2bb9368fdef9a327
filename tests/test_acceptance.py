"""Acceptance battery: every numbered criterion must pass at its stated
tolerance.  The shared fixture runs the whole battery once and each test
checks one criterion, printing its pass/fail line.  Run with ``-s`` to see
the lines inline; without it they are echoed in the terminal summary.
"""

import itertools
import pathlib
import subprocess
import sys

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
