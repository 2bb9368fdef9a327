"""Command line front end.

Two subcommands:

    dfs-lab run <scenario.json>   execute one scenario file and emit a report
    dfs-lab selftest              run the acceptance battery

Reports carry every computed number next to the tolerance it was checked
against.  JSON output is canonical (sorted keys, fixed float notation) so two
runs of the same scenario produce identical bytes; wall-clock time goes to
stderr only.  Exit codes: 0 all checks pass, 1 invalid scenario, 2 a check
failed, 3 internal fault.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback

import numpy as np

from . import acceptance
from .duality import Background, _energy_shift, basis_change, charge_box, coupling_shift, coupling_swap, dual_metric, factorized_inversion, onn_apply
from .dynamics import coherence_experiment
from .errors import DfsLabError, UsageError
from .fock import build_decoherence_model, build_string_model, dfs_from_dirac, duality_substitution, gamma_pair_norm, parity_generators
from .nctorus import FluxMatrix, clock_shift_rep, landau_hamiltonian, weyl_residual
from .opcore import DIM_BUDGET, Operator, SubspaceBasis, operator_norm, sector_eigh
from .reporting import canonical_json
from .spectral import GAP_TOL, connes_distance, make_diagonal_triple, make_two_point_triple
from .states import DensityMatrix, StateFunctional, pure_state
from .symmetry import close_group, invariant_projector, joint_kernel, symmetrize_operator

SCHEMA_VERSION = 1
KINDS = ("distance", "symmetrize", "dfs", "decohere", "duality", "nctorus")
BOUNDARY_SLACK = 1e-8
# Most time samples a decohere scenario may ask for; each costs a bare and a
# symmetrized propagation of the state and five floats in the report.
TIME_SAMPLE_BUDGET = 10_000
# Most letters a duality word may hold; each letter is parsed and composed
# in Python, and the element's entries can grow geometrically with length.
WORD_BUDGET = 64


def _fail(msg: str):
    raise UsageError(msg)


def _is_number(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _finite(obj, name: str) -> float:
    """A JSON number as a float; NaN, the infinities and integers too large
    for a float are rejected here rather than reaching the renderer."""
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        _fail(f"{name} must be finite")
    return value


def _number(obj, name: str) -> float:
    if not _is_number(obj):
        _fail(f"{name} must be a number")
    return _finite(obj, name)


def _known_keys(obj: dict, allowed, name: str) -> None:
    unknown = sorted(str(k) for k in obj if k not in allowed)
    if unknown:
        _fail(f"unknown {name} key(s): {', '.join(unknown)}")


def _int_param(obj, name: str) -> int:
    """A size or count: a JSON integer, never a bool, float or string."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(f"{name} must be an integer")
    return obj


def _complex_entry(obj, name: str) -> complex:
    if _is_number(obj):
        return complex(_finite(obj, name))
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
        return complex(_finite(obj[0], name), _finite(obj[1], name))
    _fail(f"{name} must be a number or a [re, im] pair")


def _matrix(obj, name: str) -> np.ndarray:
    """Row-major matrix; entries are numbers or [re, im] pairs."""
    if not (isinstance(obj, list) and obj and all(isinstance(r, list) and r for r in obj)):
        _fail(f"{name} must be a non-empty list of non-empty rows")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        _fail(f"{name} rows have inconsistent lengths")
    out = np.zeros((len(obj), width), dtype=np.complex128)
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            out[i, j] = _complex_entry(entry, f"{name}[{i}][{j}]")
    return out


def _real_matrix(obj, name: str) -> np.ndarray:
    m = _matrix(obj, name)
    if np.abs(m.imag).max(initial=0.0) != 0.0:
        _fail(f"{name} must be real")
    return m.real.copy()


def _int_matrix(obj, name: str) -> np.ndarray:
    m = _real_matrix(obj, name)
    if not np.array_equal(m, np.rint(m)):
        _fail(f"{name} must be an integer matrix")
    # -2^63 and 2^63 are exact floats; astype would wrap anything outside
    if np.any((m < -(2.0 ** 63)) | (m >= 2.0 ** 63)):
        _fail(f"{name} entries must lie in the int64 range")
    return m.astype(np.int64)


def _probabilities(obj, name: str) -> np.ndarray:
    if not (isinstance(obj, list) and obj):
        _fail(f"{name} must be a non-empty list")
    p = np.array([_number(v, f"{name}[{k}]") for k, v in enumerate(obj)])
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        _fail(f"{name} must be non-negative and sum to 1")
    return p


def _check(name: str, value: float, tolerance: float, passed: bool) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(passed)}


def _run_distance(params: dict, tol_scale: float):
    results: dict = {}
    checks: list = []
    if "lambda" in params:
        lam = _complex_entry(params["lambda"], "lambda")
        triple = make_two_point_triple(lam)
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        expected = _number(params.get("expected", 1.0 / abs(lam)), "expected")
        tol = _number(params.get("tolerance", 1e-6), "tolerance") * tol_scale
    else:
        raw = params.get("dirac") or _fail("need lambda or dirac")
        if isinstance(raw, list) and len(raw) ** 2 > DIM_BUDGET:
            # the triple's algebra basis is n x n^2; refuse before parsing
            _fail(f"dirac has {len(raw)} rows; {len(raw)}^2 exceeds the budget of {DIM_BUDGET}")
        dirac = _matrix(raw, "dirac")
        n = dirac.shape[0]
        triple = make_diagonal_triple(n, Operator(dirac))
        p = _probabilities(params.get("state") or _fail("need state"), "state")
        q = _probabilities(params.get("state_prime") or _fail("need state_prime"), "state_prime")
        if p.size != n or q.size != n:
            _fail("states must have one weight per point")
        expected = params.get("expected")
        if expected is not None:
            expected = _number(expected, "expected")
        tol = _number(params.get("tolerance", 1e-6), "tolerance") * tol_scale
    psi = StateFunctional(DensityMatrix(Operator(np.diag(p.astype(np.complex128)))))
    psi_prime = StateFunctional(DensityMatrix(Operator(np.diag(q.astype(np.complex128)))))
    res = connes_distance(triple, psi, psi_prime)
    results["unbounded"] = bool(res.unbounded)
    results["distance"] = None if res.unbounded else res.value
    results["upper_bound"] = None if res.unbounded else res.upper_bound
    results["constraint_norm"] = res.constraint_norm
    results["iterations"] = res.iterations
    if not res.unbounded:
        checks.append(
            _check(
                "constraint-on-boundary",
                max(0.0, res.constraint_norm - 1.0),
                BOUNDARY_SLACK,
                res.constraint_norm <= 1.0 + BOUNDARY_SLACK,
            )
        )
        checks.append(_check("certified-gap", res.gap, GAP_TOL, res.certified))
    if expected is not None:
        err = abs(res.value - expected) if not res.unbounded else float("inf")
        checks.append(_check("distance-matches-expected", None if res.unbounded else err, tol, err <= tol))
    return results, checks


def _model_from_params(params: dict):
    n_max = _int_param(params.get("n_max", 3), "n_max")
    k = _matrix(params.get("K", [[1.0]]), "K")
    lam = _matrix(params.get("Lambda", [[1.0]]), "Lambda")
    w = _matrix(params.get("w", [[0.3]]), "w")
    return build_decoherence_model(k, lam, w, n_max)


def _run_symmetrize(params: dict, tol_scale: float):
    model = _model_from_params(params)
    gens = parity_generators(model)
    rep = close_group(gens)
    killed = operator_norm(symmetrize_operator(rep, model.h_int))
    proj = invariant_projector(rep)
    kernel = joint_kernel(gens)
    sys_dim = model.system_space.dim
    tol = 1e-12 * tol_scale
    results = {
        "group_order": rep.order,
        "projector_rank": proj.rank,
        "symmetrized_interaction_norm": killed,
        "joint_kernel_dim": kernel.size,
    }
    checks = [
        _check("interaction-annihilated", killed, tol, killed <= tol),
        _check("kernel-is-system-times-vacuum", float(kernel.size), 0.0, kernel.size == sys_dim),
    ]
    return results, checks


def _run_dfs(params: dict, tol_scale: float):
    metric = _real_matrix(params.get("metric") or _fail("need metric"), "metric")
    n = metric.shape[0]
    coupling = _real_matrix(params.get("coupling", np.zeros((n, n)).tolist()), "coupling")
    bg = Background(metric, coupling)
    n_max = _int_param(params.get("n_max", 2), "n_max")
    levels = _int_param(params.get("levels", 1), "levels")
    which = params.get("operator", "relative")
    if which not in ("relative", "total"):
        _fail("operator must be 'relative' or 'total'")
    tol = _number(params.get("tol", 1e-9), "tol")
    if not 0.0 < tol < 1.0:
        # a cutoff at or above sigma_max calls every direction kernel, and
        # one at or below zero certifies nothing
        _fail(f"tol must lie strictly between 0 and 1, got {tol!r}")
    model = build_string_model(bg, n_max, levels)
    dirac = model.d_bar if which == "relative" else model.d
    kernel = dfs_from_dirac(dirac, tol=tol)
    bound = tol * kernel.sigma_max * tol_scale
    results = {
        "model_dim": model.dim,
        "kernel_dim": kernel.size,
        "kernel_residual": kernel.residual,
        "max_gamma_pair_residual": gamma_pair_norm(model, kernel) if kernel.size else None,
    }
    checks = [_check("kernel-residual", kernel.residual, bound, kernel.residual <= bound)]
    return results, checks


def _run_decohere(params: dict, tol_scale: float):
    times_arg = params.get("times", {"start": 0.0, "stop": 20.0, "step": 0.5})
    if isinstance(times_arg, dict):
        _known_keys(times_arg, ("start", "stop", "step"), "times")
        start = _number(times_arg.get("start", 0.0), "times.start")
        stop = _number(times_arg.get("stop") if times_arg.get("stop") is not None else _fail("times needs stop"), "times.stop")
        step = _number(times_arg.get("step", 0.5), "times.step")
        if step <= 0 or stop < start:
            _fail("times must advance forward")
        if (stop + step / 2.0 - start) / step > TIME_SAMPLE_BUDGET:
            _fail(f"times would give more than {TIME_SAMPLE_BUDGET} samples, which exceeds the budget")
        times = np.arange(start, stop + step / 2.0, step)
    elif isinstance(times_arg, list) and times_arg:
        if len(times_arg) > TIME_SAMPLE_BUDGET:
            _fail(f"times lists {len(times_arg)} samples, which exceeds the budget of {TIME_SAMPLE_BUDGET}")
        times = np.array([_number(t, "times[]") for t in times_arg])
    else:
        _fail("times must be a {start, stop, step} object or a list")
    model = _model_from_params(params)
    sys_dim = model.system_space.dim
    env_dim = model.env_space.dim
    amps = params.get("superposition", [1.0, 1.0])
    if not (isinstance(amps, list) and 0 < len(amps) <= sys_dim):
        _fail("superposition must list at most one amplitude per system level")
    v_sys = np.zeros(sys_dim, dtype=np.complex128)
    for k, a in enumerate(amps):
        v_sys[k] = _complex_entry(a, f"superposition[{k}]")
    norm = np.linalg.norm(v_sys)
    if norm == 0:
        _fail("superposition must not be zero")
    v_sys /= norm
    v_env = np.zeros(env_dim, dtype=np.complex128)
    v_env[0] = 1.0
    rho0 = pure_state(np.kron(v_sys, v_env), dims=(sys_dim, env_dim))
    code = SubspaceBasis(sys_dim, np.eye(sys_dim, dtype=np.complex128), "vector-space")
    full, sym = coherence_experiment(model, code, rho0, times)
    cap = _number(params.get("leakage_cap", 1e-10), "leakage_cap") * tol_scale
    floor = params.get("min_full_leakage")
    results = {
        "times": times.tolist(),
        "full_leakages": full.leakages.tolist(),
        "symmetrized_leakages": sym.leakages.tolist(),
        "full_fidelities": full.fidelities.tolist(),
        "symmetrized_fidelities": sym.fidelities.tolist(),
    }
    sym_max = float(sym.leakages.max())
    checks = [_check("symmetrized-leakage-cap", sym_max, cap, sym_max <= cap)]
    if floor is not None:
        floor = _number(floor, "min_full_leakage")
        full_max = float(full.leakages.max())
        checks.append(
            _check("full-leakage-reaches-floor", full_max, floor, full_max >= floor)
        )
    return results, checks


# Each generator kind and the keys its object may carry besides "kind".
_GEN_KEYS = {
    "inversion": ("directions",),
    "shift": ("theta",),
    "basis": ("matrix",),
    "swap": (),
}
_GEN_KINDS = tuple(_GEN_KEYS)


def _parse_generator(entry: dict, n: int):
    if not isinstance(entry, dict) or entry.get("kind") not in _GEN_KINDS:
        _fail(f"generator kind must be one of {_GEN_KINDS}")
    kind = entry["kind"]
    _known_keys(entry, ("kind",) + _GEN_KEYS[kind], f"{kind} generator")
    if kind == "inversion":
        dirs = entry.get("directions", list(range(n)))
        if not (isinstance(dirs, list) and dirs):
            _fail("inversion needs a non-empty directions list")
        return factorized_inversion(n, [_int_param(d, "directions[]") for d in dirs])
    if kind == "shift":
        return coupling_shift(_int_matrix(entry.get("theta") or _fail("shift needs theta"), "theta"))
    if kind == "basis":
        return basis_change(_int_matrix(entry.get("matrix") or _fail("basis needs matrix"), "matrix"))
    return coupling_swap(n)


def _run_duality(params: dict, tol_scale: float):
    metric = _real_matrix(params.get("metric") or _fail("need metric"), "metric")
    n = metric.shape[0]
    coupling = _real_matrix(params.get("coupling", np.zeros((n, n)).tolist()), "coupling")
    bg = Background(metric, coupling)
    box = _int_param(params.get("box", 3), "box")
    if box < 1:
        _fail("box must be a positive integer")
    word_arg = params.get("word") or [params.get("generator") or _fail("need generator or word")]
    if not isinstance(word_arg, list):
        _fail("word must be a list of generator objects")
    if len(word_arg) > WORD_BUDGET:
        _fail(f"word has {len(word_arg)} letters, which exceeds the budget of {WORD_BUDGET}")
    element = _parse_generator(word_arg[0], n)
    for entry in word_arg[1:]:
        element = element.compose(_parse_generator(entry, n))
    charges = charge_box(n, box)
    bg_new = onn_apply(element, bg)
    worst, tol = _energy_shift(element, bg, charges, tol_scale)
    results = {
        "element_matrix": element.matrix.tolist(),
        "element_swaps": element.swap,
        "transformed_metric": bg_new.metric.tolist(),
        "transformed_coupling": bg_new.coupling.tolist(),
        "dual_metric": dual_metric(bg).tolist(),
        "charges_checked": int(charges.shape[0]),
        "max_energy_shift": worst,
    }
    checks = [_check("narain-energy-invariance", worst, tol, worst <= tol)]
    sub_arg = params.get("substitution")
    if sub_arg is not None:
        if not isinstance(sub_arg, dict):
            _fail("substitution must be an object")
        _known_keys(sub_arg, ("n_max", "levels"), "substitution")
        model = build_string_model(
            bg,
            _int_param(sub_arg.get("n_max", 1), "substitution.n_max"),
            _int_param(sub_arg.get("levels", 1), "substitution.levels"),
        )
        sub = duality_substitution(model)
        results["substitution_max_residual"] = sub.max_residual
        results["substitution_max_gram_residual"] = sub.max_gram_residual
        sub_tol = 1e-12 * tol_scale
        # Raw coefficient arrays are gauge-dependent beyond one direction;
        # compare the gauge-invariant products there instead.
        value = sub.max_residual if n == 1 else sub.max_gram_residual
        checks.append(_check("substitution-match", value, sub_tol, value <= sub_tol))
    return results, checks


def _run_nctorus(params: dict, tol_scale: float):
    q = _int_matrix(params.get("numerator") or _fail("need numerator"), "numerator")
    den = _int_param(params.get("denominator"), "denominator")
    if den < 1:
        _fail("denominator must be a positive integer")
    flux = FluxMatrix.from_rational(q, den)
    rep = clock_shift_rep(flux)
    residual = weyl_residual(rep, flux)
    tol = 1e-13 * tol_scale
    results = {
        "flux": flux.omega.tolist(),
        "rep_dim": rep.dim,
        "weyl_residual": residual,
    }
    checks = [_check("weyl-relation", residual, tol, residual <= tol)]
    landau_n_max = params.get("landau_n_max")
    if landau_n_max is not None:
        landau_n_max = _int_param(landau_n_max, "landau_n_max")
        h = landau_hamiltonian(flux, landau_n_max)
        ground = float(sector_eigh(h, vectors=False)[0])
        results["landau_ground_level"] = ground
        expect = params.get("landau_expect")
        if expect is not None:
            expect = _number(expect, "landau_expect")
            landau_tol = _number(params.get("landau_tol", 2e-3), "landau_tol") * tol_scale
            err = abs(ground - expect)
            checks.append(_check("landau-ground-level", err, landau_tol, err <= landau_tol))
    return results, checks


_HANDLERS = {
    "distance": _run_distance,
    "symmetrize": _run_symmetrize,
    "dfs": _run_dfs,
    "decohere": _run_decohere,
    "duality": _run_duality,
    "nctorus": _run_nctorus,
}

# The params keys each kind reads; any other key is a usage error, so a
# misspelled option cannot silently skip the check it asked for.
_MODEL_PARAMS = ("n_max", "K", "Lambda", "w")
_PARAMS = {
    "distance": ("lambda", "dirac", "state", "state_prime", "expected", "tolerance"),
    "symmetrize": _MODEL_PARAMS,
    "dfs": ("metric", "coupling", "n_max", "levels", "operator", "tol"),
    "decohere": _MODEL_PARAMS + ("times", "superposition", "leakage_cap", "min_full_leakage"),
    "duality": ("metric", "coupling", "box", "word", "generator", "substitution"),
    "nctorus": ("numerator", "denominator", "landau_n_max", "landau_expect", "landau_tol"),
}


def _check_tol_scale(tol_scale: float) -> None:
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        _fail("tol-scale must be positive and finite")


def run_scenario(scenario: dict, seed: int | None = None, tol_scale: float = 1.0) -> dict:
    """Validate and execute one scenario, returning the report dict.

    Schema problems raise UsageError before any module code runs.
    """
    if not isinstance(scenario, dict):
        _fail("scenario must be a JSON object")
    _known_keys(scenario, ("schema_version", "kind", "params", "seed"), "scenario")
    if scenario.get("schema_version") != SCHEMA_VERSION:
        _fail(f"schema_version must be {SCHEMA_VERSION}")
    kind = scenario.get("kind")
    if kind not in KINDS:
        _fail(f"kind must be one of {KINDS}")
    params = scenario.get("params", {})
    if not isinstance(params, dict):
        _fail("params must be an object")
    _known_keys(params, _PARAMS[kind], f"{kind} parameter")
    if seed is None:
        seed = scenario.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        _fail("seed must be an integer")
    _check_tol_scale(tol_scale)
    results, checks = _HANDLERS[kind](params, tol_scale)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "seed": seed,
        "tol_scale": tol_scale,
        "scenario": params,
        "results": results,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _emit_csv(report: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "value", "tolerance", "pass"])
    for c in report["checks"]:
        writer.writerow([c["name"], c["value"], c["tolerance"], c["pass"]])
    writer.writerow(["overall", "", "", report["pass"]])
    return buf.getvalue()


def _emit_markdown(report: dict) -> str:
    lines = [
        f"# dfs-lab report: {report['kind']}",
        "",
        f"Overall: {'pass' if report['pass'] else 'FAIL'}",
        "",
        "| check | value | tolerance | pass |",
        "| --- | --- | --- | --- |",
    ]
    for c in report["checks"]:
        value = "n/a" if c["value"] is None else f"{c['value']:.6e}"
        lines.append(f"| {c['name']} | {value} | {c['tolerance']:.6e} | {c['pass']} |")
    lines.append("")
    lines.append("## Results")
    lines.append("")
    for key in sorted(report["results"]):
        lines.append(f"- {key}: {report['results'][key]}")
    lines.append("")
    return "\n".join(lines)


def emit(report: dict, fmt: str = "json", path: str | None = None) -> str:
    """Render a report, write it to path or stdout, and return the text."""
    if fmt == "json":
        text = canonical_json(report)
    elif fmt == "csv":
        text = _emit_csv(report)
    elif fmt == "markdown":
        text = _emit_markdown(report)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _cmd_run(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"scenario is not valid JSON: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        report = run_scenario(scenario, seed=args.seed, tol_scale=args.tol_scale)
    except (UsageError, DfsLabError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    try:
        emit(report, fmt=args.format, path=args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 3
    print(f"wall_time_ms {wall_ms:.1f}", file=sys.stderr)
    return 0 if report["pass"] else 2


def _cmd_selftest(args) -> int:
    try:
        _check_tol_scale(args.tol_scale)
    except UsageError as exc:
        print(f"invalid option: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        results = acceptance.run_all(tol_scale=args.tol_scale)
    except Exception:
        traceback.print_exc()
        return 3
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    for r in results:
        state = "pass" if r.passed else "FAIL"
        print(f"criterion {r.number:02d} {r.name}: {state} | {r.details}", file=sys.stderr)
    report = acceptance.battery_report(results)
    try:
        emit(report, fmt="json", path=args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 3
    print(f"wall_time_ms {wall_ms:.1f}", file=sys.stderr)
    return 0 if report["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfs-lab",
        description="numerical workbench for protected subspaces and dualities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--tol-scale", type=float, default=1.0, help="multiply every tolerance")
    run_p.set_defaults(func=_cmd_run)

    self_p = sub.add_parser("selftest", help="run the acceptance battery")
    self_p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    self_p.add_argument("--tol-scale", type=float, default=1.0, help="multiply every tolerance")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(entry())
