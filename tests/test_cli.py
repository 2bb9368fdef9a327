import copy
import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from dfslab import SubspaceBasis, UsageError
from dfslab.cli import build_parser, emit, entry, run_scenario
from dfslab.reporting import canonical_json

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
CEILING_DIR = pathlib.Path(__file__).resolve().parent / "ceilings"


def load(name):
    return json.loads((SCENARIO_DIR / name).read_text())


@pytest.mark.parametrize(
    "name",
    [
        "distance.json",
        "symmetrize.json",
        "dfs.json",
        "decohere.json",
        "duality.json",
        "nctorus.json",
    ],
)
def test_shipped_scenarios_pass(name):
    report = run_scenario(load(name))
    assert report["pass"] is True
    assert report["schema_version"] == 1
    assert all(c["pass"] for c in report["checks"])


def test_complex_entries_parse_as_pairs():
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"lambda": [0.0, 2.0]},
    }
    report = run_scenario(scenario)
    assert report["pass"] is True
    assert report["results"]["distance"] == pytest.approx(0.5, abs=1e-6)


def test_failing_expectation_flips_overall_flag():
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"lambda": [1.0, 0.0], "expected": 999.0},
    }
    report = run_scenario(scenario)
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed


def test_schema_validation():
    with pytest.raises(UsageError):
        run_scenario({"schema_version": 2, "kind": "distance", "params": {}})
    with pytest.raises(UsageError):
        run_scenario({"schema_version": 1, "kind": "mystery", "params": {}})
    with pytest.raises(UsageError):
        run_scenario({"schema_version": 1, "kind": "distance", "params": []})
    with pytest.raises(UsageError):
        run_scenario({"schema_version": 1, "kind": "distance", "params": {}, "seed": "x"})


@pytest.mark.parametrize("value", ["abc", 2.7, True])
def test_non_integer_size_exits_1(value, tmp_path, capsys):
    scenario = load("dfs.json")
    scenario["params"]["n_max"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert entry(["run", str(path)]) == 1
    assert "n_max must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, path",
    [
        ("dfs.json", ("levels",)),
        ("symmetrize.json", ("n_max",)),
        ("duality.json", ("box",)),
        ("duality.json", ("substitution", "n_max")),
        ("duality.json", ("substitution", "levels")),
        ("duality.json", ("generator", "directions")),
        ("nctorus.json", ("landau_n_max",)),
        ("nctorus.json", ("denominator",)),
    ],
)
def test_every_size_rejects_a_float(name, path):
    scenario = load(name)
    target = scenario["params"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = [1.0] if path[-1] == "directions" else 2.0
    with pytest.raises(UsageError, match="must be an integer"):
        run_scenario(scenario)


def test_tol_scale_must_be_positive():
    with pytest.raises(UsageError):
        run_scenario(load("distance.json"), tol_scale=0.0)


def test_report_serialization_is_deterministic(capsys):
    report = run_scenario(load("distance.json"))
    first = emit(report, fmt="json")
    second = emit(report, fmt="json")
    capsys.readouterr()
    assert first == second
    assert first == canonical_json(report)
    assert first.endswith("\n")


def test_csv_and_markdown_formats(tmp_path, capsys):
    report = run_scenario(load("distance.json"))
    csv_text = emit(report, fmt="csv", path=str(tmp_path / "r.csv"))
    assert csv_text.splitlines()[0] == "check,value,tolerance,pass"
    assert csv_text.splitlines()[-1].startswith("overall")
    md_text = emit(report, fmt="markdown", path=str(tmp_path / "r.md"))
    assert "| check | value | tolerance | pass |" in md_text
    with pytest.raises(UsageError):
        emit(report, fmt="yaml")
    capsys.readouterr()


def test_entry_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(load("distance.json")))
    assert entry(["run", str(good)]) == 0
    capsys.readouterr()

    failing = tmp_path / "failing.json"
    failing.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "distance",
                "params": {"lambda": [1.0, 0.0], "expected": 999.0},
            }
        )
    )
    assert entry(["run", str(failing)]) == 2
    capsys.readouterr()

    assert entry(["run", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert entry(["run", str(broken)]) == 1
    capsys.readouterr()

    bad_kind = tmp_path / "bad_kind.json"
    bad_kind.write_text(json.dumps({"schema_version": 1, "kind": "what", "params": {}}))
    assert entry(["run", str(bad_kind)]) == 1
    capsys.readouterr()


def test_entry_writes_report_file(tmp_path, capsys):
    good = tmp_path / "scenario.json"
    good.write_text(json.dumps(load("distance.json")))
    out = tmp_path / "report.json"
    assert entry(["run", str(good), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["pass"] is True


def test_seed_flag_is_echoed(tmp_path, capsys):
    good = tmp_path / "scenario.json"
    good.write_text(json.dumps(load("distance.json")))
    out = tmp_path / "report.json"
    assert entry(["run", str(good), "--seed", "17", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["seed"] == 17


def test_parser_knows_both_commands():
    parser = build_parser()
    args = parser.parse_args(["run", "x.json", "--format", "csv"])
    assert args.format == "csv"
    args = parser.parse_args(["selftest", "--tol-scale", "2.0"])
    assert args.tol_scale == 2.0


def test_large_charge_box_exits_1_quickly(tmp_path, capsys):
    scenario = load("duality.json")
    scenario["params"]["box"] = 1000
    scenario["params"]["metric"] = [[1.0, 0.0], [0.0, 1.0]]
    scenario["params"]["coupling"] = [[0.0, 0.0], [0.0, 0.0]]
    scenario["params"]["generator"] = {"kind": "swap"}
    del scenario["params"]["substitution"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    assert entry(["run", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the budget" in capsys.readouterr().err



@pytest.mark.parametrize(
    "rows",
    [
        [[0.0] * 65 for _ in range(65)],
        [["not a number"]] * 65,  # rejected by its row count, before any entry is read
        [[0.0]] * 100_000,
    ],
)
def test_distance_dirac_over_the_budget_exits_1_quickly(tmp_path, capsys, rows):
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"dirac": rows, "state": [1.0], "state_prime": [1.0]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    assert entry(["run", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "times",
    [
        {"start": 0, "stop": 1e30, "step": 0.5},
        {"start": 0, "stop": 1.0, "step": 1e-300},
        {"start": -1e308, "stop": 1e308, "step": 1.0},
        [0.0] * 10_001,
    ],
)
def test_time_sample_budget_exits_1_quickly(tmp_path, capsys, times):
    scenario = load("decohere.json")
    scenario["params"]["times"] = times
    path = tmp_path / "many.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    assert entry(["run", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the budget" in capsys.readouterr().err

@pytest.mark.parametrize(
    "name, path, value",
    [
        ("distance.json", ("expected",), float("nan")),
        ("distance.json", ("tolerance",), float("inf")),
        ("distance.json", ("lambda",), [float("-inf"), 0.0]),
        ("duality.json", ("metric",), [[float("nan")]]),
        ("nctorus.json", ("landau_expect",), float("nan")),
        ("decohere.json", ("times", "stop"), float("inf")),
        ("decohere.json", ("leakage_cap",), 10**400),
    ],
)
def test_non_finite_number_exits_1(name, path, value, tmp_path, capsys):
    scenario = load(name)
    target = scenario["params"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    assert entry(["run", str(bad)]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_non_finite_tol_scale_exits_1(tmp_path, capsys):
    good = tmp_path / "scenario.json"
    good.write_text(json.dumps(load("distance.json")))
    assert entry(["run", str(good), "--tol-scale", "nan"]) == 1
    assert entry(["selftest", "--tol-scale", "inf"]) == 1
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, path",
    [
        ("distance.json", ("params", "expectd")),
        ("symmetrize.json", ("params", "Lamda")),
        ("dfs.json", ("params", "level")),
        ("decohere.json", ("params", "leakage_cpa")),
        ("duality.json", ("params", "boxx")),
        ("nctorus.json", ("params", "landau_exp")),
        ("decohere.json", ("params", "times", "stpe")),
        ("duality.json", ("params", "substitution", "nmax")),
        ("duality.json", ("params", "generator", "direction")),
        ("dfs.json", ("sead",)),
    ],
)
def test_unknown_key_is_rejected(name, path, tmp_path, capsys):
    scenario = load(name)
    target = scenario
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 1
    with pytest.raises(UsageError, match=f"unknown .*key\\(s\\): {path[-1]}$"):
        run_scenario(scenario)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    assert entry(["run", str(bad)]) == 1
    assert path[-1] in capsys.readouterr().err


def test_generator_keys_depend_on_the_kind():
    scenario = load("duality.json")
    scenario["params"]["generator"] = {"kind": "swap", "theta": [[0]]}
    with pytest.raises(UsageError, match="unknown swap generator key"):
        run_scenario(scenario)


NCTORUS = load("nctorus.json")["params"]
DISTANCE = load("distance.json")["params"]
DIRAC_DISTANCE = {"dirac": [[0.0, 1.0], [1.0, 0.0]], "state": [1.0, 0.0], "state_prime": [0.0, 1.0]}
DECOHERE = load("decohere.json")["params"]


def without(params, key):
    return {k: v for k, v in params.items() if k != key}


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("nctorus", without(NCTORUS, "landau_n_max"), "landau_expect is given without landau_n_max"),
        ("nctorus", without(NCTORUS, "landau_expect"), "landau_tol is given without landau_expect"),
        ("distance", dict(DIRAC_DISTANCE, tolerance=1e-6), "tolerance is given without expected"),
        ("nctorus", dict(NCTORUS, landau_tol=0), "landau_tol must be positive"),
        ("nctorus", dict(NCTORUS, landau_tol=-0.0025), "landau_tol must be positive"),
        ("distance", dict(DISTANCE, tolerance=0), "tolerance must be positive"),
        ("distance", dict(DIRAC_DISTANCE, expected=1.0, tolerance=-1e-6), "tolerance must be positive"),
        ("decohere", dict(DECOHERE, leakage_cap=0), "leakage_cap must be positive"),
        ("decohere", dict(DECOHERE, leakage_cap=-1), "leakage_cap must be positive"),
        ("decohere", dict(DECOHERE, min_full_leakage=2.0), "min_full_leakage must lie in (0, 1]"),
        ("decohere", dict(DECOHERE, min_full_leakage=-1), "min_full_leakage must lie in (0, 1]"),
    ],
    ids=["landau-expect-without-n_max", "landau-tol-without-expect", "tolerance-without-expected",
         "landau-tol-0", "landau-tol-negative", "tolerance-0", "dirac-tolerance-negative",
         "leakage-cap-0", "leakage-cap-negative", "min-full-leakage-2", "min-full-leakage-negative"],
)
def test_a_tolerance_that_is_dropped_or_unmeetable_exits_1(kind, params, message, tmp_path, capsys):
    """Without these checks, a tolerance with no value to check was dropped
    and the run exited 0, and one at or below zero made a check that no
    result can pass, exit 2.  Leakages lie in [0, 1], so a leakage floor
    above 1 made a check that no run can pass (exit 2), and one below 0 a
    check that every run passes (exit 0)."""
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind, "params": params}))
    assert entry(["run", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, stage",
    [
        ("nctorus", dict(NCTORUS, landau_n_max="24"), "clock_shift_rep"),
        ("duality", dict(load("duality.json")["params"], substitution={"levels": 1.5}), "charge_box"),
        ("decohere", dict(DECOHERE, leakage_cap=0), "build_decoherence_model"),
    ],
    ids=["nctorus-landau_n_max", "duality-substitution", "decohere-leakage_cap"],
)
def test_params_are_validated_before_any_computation(kind, params, stage, tmp_path, capsys, monkeypatch):
    import dfslab.cli as cli

    def reached(*args, **kwargs):
        raise AssertionError(f"{stage} ran before every parameter was validated")

    monkeypatch.setattr(cli, stage, reached)
    path = tmp_path / "early.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind, "params": params}))
    assert entry(["run", str(path)]) == 1
    assert "invalid scenario:" in capsys.readouterr().err


@pytest.mark.parametrize("num, den", [(1001, 6), (10**9 + 7, 6), (2047, 4096)])
def test_valid_flux_with_a_large_numerator_passes_its_weyl_check(num, den, tmp_path, capsys):
    """The phases come from exact residues mod den: formed from q k as
    floats, they put the residual at 4.5e-13, 3.6e-7 and 1.3e-12 and the
    run exited 2."""
    path = tmp_path / "flux.json"
    params = {"numerator": [[0, num], [-num, 0]], "denominator": den}
    path.write_text(json.dumps({"schema_version": 1, "kind": "nctorus", "params": params}))
    assert entry(["run", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["weyl_residual"] <= 1e-14


@pytest.mark.parametrize("tol", [2, 1e300, 0, -1])
def test_dfs_tol_outside_the_unit_interval_exits_1(tol, tmp_path, capsys, monkeypatch):
    """Without the range check, tol 2 and 1e300 pass with every dimension in
    the kernel, and tol 0 and -1 exit 2 with a zero or negative bound."""
    import dfslab.cli as cli

    def no_build(*args, **kwargs):
        raise AssertionError("the model was built before tol was checked")

    monkeypatch.setattr(cli, "build_string_model", no_build)
    scenario = load("dfs.json")
    scenario["params"]["tol"] = tol
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(scenario))
    assert entry(["run", str(path)]) == 1
    assert "tol must lie strictly between 0 and 1" in capsys.readouterr().err


@pytest.mark.parametrize("operator", ["relative", "total"])
def test_one_direction_dfs_allocates_less_than_one_dense_dirac_matrix(operator):
    """The n = 1, n_max 8 model has dimension 1458; a dense complex matrix
    of that size is 34 MB, and the run's allocation peak stays below it."""
    import tracemalloc

    scenario = load("dfs.json")
    scenario["params"].update(n_max=8, operator=operator)
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["results"]["model_dim"] == 1458
    assert peak < 1458 * 1458 * 16


def test_dfs_kernel_3095_ceiling_exits_0_through_the_cli(tmp_path):
    """Metric 4, n_max 11, tol 0.5 (dim 3456): 3,095 kernel vectors, some
    kept at the cutoff's edge, whose residuals pass the one kernel-residual
    bound."""
    out = tmp_path / "report.json"
    assert entry(["run", str(CEILING_DIR / "dfs-kernel-3095.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] and report["results"]["kernel_dim"] == 3095


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("operator", ["relative", "total"])
def test_dfs_runs_form_no_dense_dirac_matrix(n, operator, monkeypatch):
    from dfslab import opcore

    formed = []
    dense = opcore._Entries.dense

    def recording(entries):
        formed.append(entries.shape)
        return dense(entries)

    monkeypatch.setattr(opcore._Entries, "dense", recording)
    scenario = load("dfs.json")
    if n == 2:
        # a nonempty kernel, from four blocks of 64
        scenario["params"].update(metric=[[0.25, 0.0], [0.0, 0.25]], coupling=[[0.0, 0.4], [-0.4, 0.0]], n_max=1)
    scenario["params"]["operator"] = operator
    report = run_scenario(scenario)
    dim = report["results"]["model_dim"]
    assert report["pass"] and report["results"]["kernel_dim"] > 0
    assert (dim, dim) not in formed


@pytest.mark.parametrize(
    "kind, params",
    [
        ("distance", {"lambda": 1e300}),
        ("distance", {"lambda": 1e-300}),
        ("distance", {"dirac": [[0.0, 1e300], [1e300, 0.0]], "state": [1.0, 0.0], "state_prime": [0.0, 1.0]}),
        ("duality", {"metric": [[1e-320]], "generator": {"kind": "inversion"}}),
        ("duality", {"metric": [[1e-320]], "generator": {"kind": "swap"}}),
    ],
)
def test_out_of_range_input_exits_1(kind, params, tmp_path, capsys):
    """These raised LinAlgError, ZeroDivisionError, or a non-finite report
    value that the renderer refused, and exited 3 with a traceback."""
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind, "params": params}))
    assert entry(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario:" in err and "Traceback" not in err


REFUSED_DIR = CEILING_DIR / "refused"


@pytest.mark.parametrize("path", sorted(REFUSED_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_refused_scenarios_exit_1_without_a_traceback(path, capsys):
    """Each scenario under ceilings/refused exits 1 with its reason.  The
    two singular-metric ones (determinant exactly 0, Cholesky factorable by
    rounding) exited 3 with a LinAlgError traceback: dfs inverting the
    metric, duality solving with it for the lattice energies."""
    assert entry(["run", str(path), "--out", os.devnull]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and "Traceback" not in err
    if "singular" in path.stem:
        assert "metric must be nonsingular to working precision" in err


def test_long_duality_word_exits_1_quickly(tmp_path, capsys):
    letter = {"kind": "basis", "matrix": [[2, 1], [1, 1]]}
    scenario = {"schema_version": 1, "kind": "duality", "params": {"metric": [[1.0, 0.0], [0.0, 1.0]]}}
    path = tmp_path / "word.json"
    scenario["params"]["word"] = [letter] * 100_000
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    assert entry(["run", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the budget" in capsys.readouterr().err
    # within the budget, a word whose entries outgrow int64 is refused, not
    # wrapped into a wrong element
    scenario["params"]["word"] = [letter] * 60
    path.write_text(json.dumps(scenario))
    assert entry(["run", str(path)]) == 1
    assert "int64" in capsys.readouterr().err


def test_landau_level_allocates_less_than_one_dense_hamiltonian():
    """At landau_n_max 31 the Hamiltonian has dimension 1024, 16 MiB as a
    dense complex matrix; its blocks are gathered from its entries."""
    import tracemalloc

    scenario = load("nctorus.json")
    scenario["params"]["landau_n_max"] = 31
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["results"]["landau_ground_level"] > 0
    assert peak < 1024 * 1024 * 16


@pytest.mark.parametrize(
    "letter, param",
    [
        ({"kind": "basis", "matrix": [[9.3e18, 0], [0, 1]]}, "matrix"),
        ({"kind": "shift", "theta": [[0, 1e19], [-1e19, 0]]}, "theta"),
    ],
)
def test_integer_matrix_outside_int64_is_refused_not_wrapped(letter, param):
    """Both used to wrap to -2^63 and fail later with a misleading
    determinant or positive-definiteness error."""
    scenario = {
        "schema_version": 1,
        "kind": "duality",
        "params": {"metric": [[1.0, 0.0], [0.0, 1.0]], "word": [letter]},
    }
    with pytest.raises(UsageError, match=f"^{param} entries must lie in the int64 range"):
        run_scenario(scenario)


# two system and two environment modes at n_max 7: dimension 4096
CEILING_MODEL = {
    "n_max": 7,
    "K": [[1.0, 0.3], [0.3, 0.7]],
    "Lambda": [[1.1, 0.2], [0.2, 0.9]],
    "w": [[0.4, 0.3], [0.25, 0.5]],
}


@pytest.mark.parametrize("kind", ["decohere", "symmetrize"])
def test_ceiling_model_allocates_less_than_one_dense_matrix(kind):
    """A dense 4096 x 4096 complex matrix is 268 MB.  The decoherence
    experiment evolves only the blocks its state touches, and the
    symmetrize kind reads the parity generators and Hamiltonians off their
    entries, so neither forms one."""
    import tracemalloc

    scenario = {"schema_version": 1, "kind": kind, "params": dict(CEILING_MODEL)}
    if kind == "decohere":
        scenario["params"]["min_full_leakage"] = 1e-4
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"] is True
    assert peak < 4096 * 4096 * 16


# Runs ``dfs-lab run <path>`` in a child process with at most 2 GB of address
# space and 10 s, so a size formed before its budget check fails the test
# instead of filling the memory; the child prints how long ``entry`` took.
_CAPPED_RUN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from dfslab.cli import entry
start = time.perf_counter()
code = entry(["run", sys.argv[1]])
print(time.perf_counter() - start)
sys.exit(code)
"""


def run_capped(path):
    import dfslab

    src = str(pathlib.Path(dfslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, str(path)], capture_output=True, text=True, timeout=10, env=env
    )
    return done.returncode, done.stderr, float(done.stdout.split()[-1])


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("dfs.json", ("levels",), 100_000),
        ("dfs.json", ("levels",), 10**30),
        ("duality.json", ("substitution", "levels"), 10**30),
        ("decohere.json", ("n_max",), 10**2500),
        ("nctorus.json", ("landau_n_max",), 10**2500),
        ("duality.json", ("box",), 10**2500),
    ],
    ids=["dfs-levels-1e5", "dfs-levels-1e30", "substitution-levels-1e30", "decohere-n_max-1e2500", "landau-n_max-1e2500", "box-1e2500"],
)
def test_size_far_over_its_budget_exits_1_quickly(name, path, value, tmp_path):
    """These exited 3, as a dimension or count had too many digits to
    format, or never returned, as the power (n_max + 1)^(n levels) was
    formed before it was compared with the budget."""
    scenario = load(name)
    if name == "decohere.json":
        # two system modes, so the Fock space dimension is a square
        scenario["params"].update(K=[[1.0, 0.3], [0.3, 0.7]], w=[[0.3], [0.2]])
    target = scenario["params"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(scenario))
    code, err, seconds = run_capped(bad)
    assert code == 1 and seconds < 1.0
    assert len(err) < 300 and "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("den", [10**300, 10**2500], ids=["1e300", "1e2500"])
def test_huge_flux_denominator_exits_1(den, tmp_path, capsys):
    scenario = load("nctorus.json")
    scenario["params"]["denominator"] = den
    bad = tmp_path / "den.json"
    bad.write_text(json.dumps(scenario))
    assert entry(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert len(err) < 300 and "invalid scenario:" in err


# n = 2, zero coupling (so substitution-match passes), a three-letter word
N2_SUBSTITUTION = {
    "schema_version": 1,
    "kind": "duality",
    "params": {
        "metric": [[1.0, 0.3], [0.3, 2.0]],
        "coupling": [[0.0, 0.0], [0.0, 0.0]],
        "box": 2,
        "word": [
            {"kind": "inversion", "directions": [0]},
            {"kind": "shift", "theta": [[0, 1], [-1, 0]]},
            {"kind": "swap"},
        ],
        "substitution": {"n_max": 1, "levels": 1},
    },
}
# SHA-256 of its canonical report: the bytes rendered when the substitution
# still read a whole string model, with the two substitution fields since
# replaced by substitution_residual, the Gram residual they held
N2_SUBSTITUTION_SHA256 = "d125d642608c12428664e464e4e7669932429e5fe542fc81b95c326e0c156daa"


def forbid_string_models(monkeypatch):
    import dfslab.cli as cli
    import dfslab.fock as fock

    def no_build(*args, **kwargs):
        raise AssertionError("a string model was built on the duality path")

    monkeypatch.setattr(fock, "build_string_model", no_build)
    monkeypatch.setattr(cli, "build_string_model", no_build)


def test_duality_path_builds_no_string_model(monkeypatch):
    from dfslab import acceptance

    forbid_string_models(monkeypatch)
    golden = (GOLDEN_DIR / "duality.json").read_text(encoding="utf-8")
    assert canonical_json(run_scenario(load("duality.json"))) == golden
    text = canonical_json(run_scenario(N2_SUBSTITUTION))
    assert hashlib.sha256(text.encode()).hexdigest() == N2_SUBSTITUTION_SHA256
    assert acceptance.criterion_13().passed


@pytest.mark.parametrize(
    "sub, message",
    [
        ({"n_max": 0}, "n_max must be at least 1"),
        ({"levels": 0}, "need at least one environment level"),
        ({"n_max": 9}, "string model dimension 4 x 100 x 100 x 100 = 4000000 exceeds the 4096 budget"),
        ({"n_max": 2.0}, "substitution.n_max must be an integer"),
    ],
)
def test_substitution_sizes_are_checked_without_a_model(sub, message, tmp_path, capsys, monkeypatch):
    forbid_string_models(monkeypatch)
    scenario = copy.deepcopy(N2_SUBSTITUTION)
    scenario["params"]["substitution"] = sub
    bad = tmp_path / "sub.json"
    bad.write_text(json.dumps(scenario))
    assert entry(["run", str(bad)]) == 1
    assert capsys.readouterr().err.strip() == f"invalid scenario: {message}"


# A metric with eigenvalues 1e5 and 2e5 and a Hermitian K with eigenvalues
# 1e6 and 2e6, each formed as Q diag Q^dag in floating point: their
# asymmetries, 2.9e-11 and 1.05e-10, are roundoff at their scale, and an
# absolute bound of 1e-12 refuses both.
LARGE_METRIC = [[143320.94294291548, -49551.89397821448], [-49551.89397821451, 156679.05705708452]]
LARGE_K = [
    [[1247490.4936263042, 2.9095783049343066e-11], [-425337.48357139115, -72986.12375012912]],
    [[-425337.4835713911, 72986.12375012903], [1752509.5063736965, 5.2526624366823105e-11]],
]


@pytest.mark.parametrize(
    "kind, params",
    [
        ("dfs", {"metric": LARGE_METRIC, "n_max": 1, "levels": 1}),
        ("duality", {"metric": LARGE_METRIC, "box": 2, "generator": {"kind": "inversion"}}),
        ("symmetrize", {"n_max": 2, "K": LARGE_K, "Lambda": [[1.0]], "w": [[0.3], [0.2]]}),
        # the Clifford pair is built on the inverse metric, 3.3e5
        ("dfs", {"metric": [[3e-6]], "n_max": 2, "levels": 1}),
    ],
    ids=["dfs-metric-1e5", "duality-metric-1e5", "symmetrize-k-1e6", "dfs-metric-3e-6"],
)
def test_valid_inputs_far_from_unit_scale_get_a_passing_report(kind, params):
    report = run_scenario({"schema_version": 1, "kind": kind, "params": params})
    assert report["pass"] is True



@pytest.mark.parametrize(
    "kind, params, keys",
    [
        ("distance", dict(DIRAC_DISTANCE, **{"lambda": 2.0}), ("lambda", "dirac")),
        ("duality", dict(load("duality.json")["params"], word=[{"kind": "swap"}]), ("word", "generator")),
    ],
    ids=["distance-lambda-and-dirac", "duality-word-and-generator"],
)
def test_two_keys_of_which_one_is_read_exit_1(kind, params, keys, tmp_path, capsys):
    """Without this check, lambda ran the two-point problem and word ran the
    word, each ignored the other key, and the run exited 0."""
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind, "params": params}))
    assert entry(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in keys)


@pytest.mark.parametrize("amplitude", [1e-200, 1e200])
def test_superposition_is_normalized_at_any_scale(amplitude):
    """[1e-200, 1e-200] exited 1 as zero, its squared norm underflowing, and
    [1e200, 1e200] overflowed to an infinite norm."""
    base = run_scenario({"schema_version": 1, "kind": "decohere", "params": DECOHERE})
    params = dict(DECOHERE, superposition=[amplitude, amplitude])
    scaled = run_scenario({"schema_version": 1, "kind": "decohere", "params": params})
    assert scaled["results"] == base["results"]


# The two bounds that --tol-scale leaves alone: DistanceResult refuses a
# maximizer past BOUNDARY_SLACK whatever the scale, and a leakage floor is a
# value the bare evolution must reach, not a tolerance.
def test_dfs_without_tol_uses_the_library_default_cutoff(monkeypatch):
    """A ``dfs`` scenario without ``tol`` computes the kernel that
    ``dfs_from_dirac`` computes with its own default, KERNEL_TOL."""
    import dfslab.cli as cli
    from dfslab import fock

    calls = []

    def recording(d, **kwargs):
        calls.append((d, kwargs, fock.dfs_from_dirac(d, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "dfs_from_dirac", recording)
    scenario = load("dfs.json")
    del scenario["params"]["tol"]
    report = run_scenario(scenario)
    (d, kwargs, kernel), = calls
    default = fock.dfs_from_dirac(d)
    assert kwargs["tol"] == inspect.signature(fock.dfs_from_dirac).parameters["tol"].default
    assert np.array_equal(kernel.vectors, default.vectors)
    assert report["results"]["kernel_dim"] == default.size and report["pass"]


def test_kernel_check_reports_the_dimension_gap(monkeypatch):
    """``kernel-is-system-times-vacuum`` reads |joint kernel dim - system
    dim| as its value, so value <= tolerance is its verdict."""
    import dfslab.cli as cli

    report = run_scenario(load("symmetrize.json"))
    check = {c["name"]: c for c in report["checks"]}["kernel-is-system-times-vacuum"]
    assert (check["value"], check["tolerance"], check["pass"]) == (0.0, 0.0, True)
    joint_kernel = cli.joint_kernel

    def one_short(gens):
        full = joint_kernel(gens)
        return SubspaceBasis(full.ambient_dim, full.vectors[1:], full.kind)

    monkeypatch.setattr(cli, "joint_kernel", one_short)
    report = run_scenario(load("symmetrize.json"))
    check = {c["name"]: c for c in report["checks"]}["kernel-is-system-times-vacuum"]
    assert (check["value"], check["pass"], report["pass"]) == (1.0, False, False)


UNSCALED_CHECKS = {"constraint-on-boundary", "full-leakage-reaches-floor"}


@pytest.mark.parametrize("name", ["distance", "symmetrize", "dfs", "decohere", "duality", "nctorus"])
def test_tol_scale_multiplies_every_check_tolerance(name):
    """At scale 3 the certified-gap tolerance stayed 1e-09."""
    checks = {}
    for scale in (1.0, 3.0):
        report = run_scenario(load(f"{name}.json"), tol_scale=scale)
        checks[scale] = {c["name"]: c["tolerance"] for c in report["checks"]}
    assert checks[1.0].keys() == checks[3.0].keys()
    for check, tol in checks[1.0].items():
        want = tol if check in UNSCALED_CHECKS else 3.0 * tol
        assert checks[3.0][check] == pytest.approx(want, rel=1e-15, abs=0.0), check


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_scenario_checks_and_their_criteria_share_each_bound(scale):
    """Each scenario check that tests a battery criterion's property reports
    the tolerance that criterion records."""
    from dfslab import acceptance

    twins = [
        ("distance", "distance-matches-expected", acceptance.criterion_1, "tolerance"),
        ("distance", "certified-gap", acceptance.criterion_1, "gap_tolerance"),
        ("symmetrize", "interaction-annihilated", acceptance.criterion_5, "kill_tolerance"),
        ("decohere", "symmetrized-leakage-cap", acceptance.criterion_6, "cap"),
        ("nctorus", "weyl-relation", acceptance.criterion_12, "tolerance"),
        ("duality", "substitution-match", acceptance.criterion_13, "tolerance"),
    ]
    for name, check, criterion, key in twins:
        report = run_scenario(load(f"{name}.json"), tol_scale=scale)
        reported = {c["name"]: c["tolerance"] for c in report["checks"]}[check]
        assert reported == criterion(scale).values[key], check


@pytest.mark.parametrize("state", [[0.5, 0.5000000005], [0.5, 0.4999999995]])
def test_distance_state_off_its_sum_is_refused_by_the_parser(state, tmp_path, capsys):
    """A weight sum within 1e-9 of 1 but past the density-matrix trace bound
    is refused with the parser's message, not the density matrix's."""
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"dirac": [[0.0, 1.0], [1.0, 0.0]], "state": state, "state_prime": [1.0, 0.0]},
    }
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(scenario))
    assert entry(["run", str(path)]) == 1
    assert capsys.readouterr().err.strip() == "invalid scenario: state must be non-negative and sum to 1"


def test_distance_state_within_the_trace_bound_runs(tmp_path):
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"dirac": [[0.0, 1.0], [1.0, 0.0]], "state": [0.5, 0.50000000005], "state_prime": [1.0, 0.0]},
    }
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(scenario))
    assert entry(["run", str(path), "--out", str(tmp_path / "out.json")]) == 0
