import json
import pathlib
import time

import pytest

from dfslab import UsageError
from dfslab.cli import build_parser, emit, entry, run_scenario
from dfslab.reporting import canonical_json

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
