"""Workload inputs for the dfs-lab benchmark and the checks on their outputs.

A workload is a list of cycles; a cycle is a list of ops with a fixed size
mix, so every seed runs the same amount of work and only the matrix entries
and the order inside a cycle change.  An op is a zero-argument callable that
drives dfslab from outside: a scenario op is ``cli.run_scenario(dict)``
followed by ``reporting.canonical_json(report)`` (``dfs-lab run`` minus the
process start), a library op calls a public function directly.  Functions
are looked up on the module at call time, so a tracer that replaces them
sees the calls.

Each op carries a check that runs after the timed phase.  A check looks at
the report's ``pass`` flag and at invariants the benchmark computes itself:
closed forms, counts and norms that do not go through the code being timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dfslab import acceptance, cli, duality, fock, opcore, reporting

SHIPPED_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# The shipped 41-sample grid of scenarios/decohere.json.
TIMES = {"start": 0.0, "stop": 20.0, "step": 0.5}
FIDELITY_TOL = 1e-6
DFS_TOL = 1e-9

# n = 2 duality ops with a nonzero coupling fail the program's own
# substitution-match check (gram residual ~0.1 against 1e-12).  They stay in
# the mix and count as failed; a failure on any other check is a wrong answer.
KNOWN_DEFECT_CHECK = "substitution-match"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # Name of the one report check this op may fail as a known defect.
    known_defect: str | None = None


class KernelCapture:
    """Keeps the kernel basis that ``dfs`` scenarios compute, so the check
    can test the vectors themselves; the report carries only their count.

    While installed it stands in for ``cli.dfs_from_dirac`` and calls
    ``fock.dfs_from_dirac`` through the module, so a tracer installed later
    still sees the call.
    """

    def __init__(self):
        self.last = None
        self._original = None

    def install(self):
        self._original = cli.dfs_from_dirac

        def dfs_from_dirac(d, tol=1e-10):
            self.last = fock.dfs_from_dirac(d, tol=tol)
            return self.last

        cli.dfs_from_dirac = dfs_from_dirac

    def uninstall(self):
        cli.dfs_from_dirac = self._original

    def take(self):
        out, self.last = self.last, None
        return out


def _scenario(scenario: dict):
    report = cli.run_scenario(scenario)
    return report, reporting.canonical_json(report)


def _kernel_scenario(scenario: dict, capture: KernelCapture):
    report, text = _scenario(scenario)
    basis = capture.take()
    return report, text, None if basis is None else basis.vectors


def _entries(m) -> list:
    """Matrix as JSON rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def _real(m) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(m)]


def _hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def _spd(rng, n: int) -> np.ndarray:
    """Symmetric positive definite with eigenvalues in [0.3, 3]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * rng.uniform(0.3, 3.0, size=n)) @ q.T


def report_problem(check_name: str) -> str:
    return f"report check {check_name} failed"


def _report_problems(report: dict) -> list:
    return [report_problem(c["name"]) for c in report["checks"] if not c["pass"]]


def _op_scenario(kind: str, scenario: dict, check, known_defect=None) -> Op:
    return Op(kind, lambda: _scenario(scenario), check, known_defect)


# ---------------------------------------------------------------------------
# protect: the coherence experiment


# (system modes, environment modes, n_max) -> dim (n_max + 1)^(modes).
# Two models faster and two slower than the middle one, which runs three
# times, so the median op time falls inside one model class.  The middle
# model is one whose cost does not depend on the draw.  In models with one
# system mode the evolved states pick up subnormal entries for some draws,
# and the eigvalsh of each state's validation then runs 2-5x slower; those
# models sit at either end, small enough that a run averages many draws.
PROTECT_MIX = (
    (1, 2, 3),   # 64
    (1, 1, 7),   # 64, subnormal draws
    (2, 1, 4),   # 125, middle
    (2, 1, 4),
    (2, 1, 4),
    (1, 1, 11),  # 144, subnormal draws
    (2, 1, 5),   # 216
)


def decohere_scenario(rng, n_sys: int, n_env: int, n_max: int) -> dict:
    w = rng.uniform(0.2, 1.0, size=(n_sys, n_env)) * np.exp(
        2j * np.pi * rng.uniform(size=(n_sys, n_env))
    )
    return {
        "schema_version": 1,
        "kind": "decohere",
        "params": {
            "n_max": n_max,
            "K": _entries(_hermitian(rng, n_sys)),
            "Lambda": _entries(_hermitian(rng, n_env)),
            "w": _entries(w),
            "times": dict(TIMES),
            "superposition": [1.0, 1.0],
            "leakage_cap": 1e-10,
            "min_full_leakage": 1e-4,
        },
    }


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in row] for row in entries])


def check_decohere(scenario: dict):
    """Symmetrized fidelity against the closed form of the bare system.

    The group average removes the exchange term and leaves the environment
    in its vacuum, so the system evolves under h_sys alone.  The initial state
    (|0> + |e_j>)/sqrt2 has vacuum energy 0 and e_j in the one-quantum sector
    with Hamiltonian K, where j is the last system mode (system index 1).
    Hence F(t) = |1 + exp(-i K t)_jj|^2 / 4.
    """
    params = scenario["params"]
    k = _matrix(params["K"])
    t = params["times"]
    times = np.arange(t["start"], t["stop"] + t["step"] / 2.0, t["step"])
    vals, vecs = np.linalg.eigh(k)
    j = k.shape[0] - 1
    u_jj = (np.abs(vecs[j]) ** 2 * np.exp(-1j * np.outer(times, vals))).sum(axis=1)
    expected = np.abs(1.0 + u_jj) ** 2 / 4.0
    has_superposition = params.get("superposition", [1.0, 1.0]) == [1.0, 1.0]

    def check(out) -> list:
        report, _ = out
        problems = _report_problems(report)
        res = report["results"]
        if len(res["times"]) != times.size:
            problems.append(f"{len(res['times'])} samples, expected {times.size}")
            return problems
        if has_superposition:
            err = float(np.abs(np.array(res["symmetrized_fidelities"]) - expected).max())
            if err > FIDELITY_TOL:
                problems.append(f"symmetrized fidelity off the closed form by {err:.2e}")
        if abs(res["full_fidelities"][0] - 1.0) > FIDELITY_TOL or res["full_leakages"][0] > 1e-10:
            problems.append("state at t=0 is not the initial state")
        return problems

    return check


def protect_cycle(rng) -> list:
    ops = []
    for n_sys, n_env, n_max in PROTECT_MIX:
        scenario = decohere_scenario(rng, n_sys, n_env, n_max)
        kind = f"decohere-{n_sys}x{n_env}-n{n_max}"
        ops.append(_op_scenario(kind, scenario, check_decohere(scenario)))
    return ops


# ---------------------------------------------------------------------------
# code: Dirac-kernel code subspaces


# (directions, n_max, levels) -> dim 2^n (n_max+1)^n (n_max+1)^(2 n levels).
# As in protect, the middle model runs three times per cycle.
CODE_MIX = (
    (2, 1, 1),  # 256, empty kernel
    (1, 4, 1),  # 250
    (1, 2, 2),  # 486
    (1, 2, 2),
    (1, 2, 2),
    (1, 6, 1),  # 686
    (1, 8, 1),  # 1458
)


def dfs_scenario(rng, n: int, n_max: int, levels: int, operator: str) -> dict:
    if n == 1:
        metric = np.array([[rng.uniform(0.3, 3.0)]])
        coupling = np.zeros((1, 1))
    else:
        metric = _spd(rng, n)
        c = rng.uniform(-1.0, 1.0, size=(n, n))
        coupling = 0.5 * (c - c.T)
    return {
        "schema_version": 1,
        "kind": "dfs",
        "params": {
            "metric": _real(metric),
            "coupling": _real(coupling),
            "n_max": n_max,
            "levels": levels,
            "operator": operator,
            "tol": DFS_TOL,
        },
    }


def check_dfs(scenario: dict):
    """Kernel vectors orthonormal and annihilated by the rebuilt Dirac
    operator, within tol times a lower bound on its norm (the largest
    column norm), which is stricter than the report's own bound."""
    params = scenario["params"]

    def check(out) -> list:
        report, _, vectors = out
        problems = _report_problems(report)
        res = report["results"]
        size = 0 if vectors is None else vectors.shape[0]
        if res["kernel_dim"] != size:
            return problems + [f"report kernel_dim {res['kernel_dim']} but {size} vectors"]
        if size == 0:
            return problems
        gram_err = float(np.abs(vectors @ vectors.conj().T - np.eye(size)).max())
        if gram_err > 1e-10:
            problems.append(f"kernel vectors not orthonormal ({gram_err:.2e})")
        bg = duality.Background(np.array(params["metric"]), np.array(params["coupling"]))
        model = fock.build_string_model(bg, params["n_max"], params["levels"])
        d = (model.d_bar if params.get("operator", "relative") == "relative" else model.d).mat
        residual = float(np.linalg.norm(d @ vectors.T, axis=0).max())
        bound = params["tol"] * float(np.linalg.norm(d, axis=0).max())
        if residual > bound:
            problems.append(f"kernel residual {residual:.2e} above {bound:.2e}")
        if abs(residual - res["kernel_residual"]) > 1e-12 + 1e-6 * residual:
            problems.append("report kernel_residual disagrees with the vectors")
        return problems

    return check


def dfs_op(rng, capture, n, n_max, levels, operator) -> Op:
    scenario = dfs_scenario(rng, n, n_max, levels, operator)
    dim = 2 ** n * (n_max + 1) ** (n + 2 * n * levels)
    return Op(f"dfs-{dim}", lambda: _kernel_scenario(scenario, capture), check_dfs(scenario))


def code_cycle(rng, index: int, capture: KernelCapture) -> list:
    ops = []
    for k, (n, n_max, levels) in enumerate(CODE_MIX):
        operator = ("relative", "total")[(index + k) % 2]
        ops.append(dfs_op(rng, capture, n, n_max, levels, operator))
    return ops


# ---------------------------------------------------------------------------
# solve: many small problems


def check_two_point(lam: complex, out) -> list:
    report, _ = out
    problems = _report_problems(report)
    res = report["results"]
    if res["unbounded"] or abs(res["distance"] - 1.0 / abs(lam)) > 1e-6:
        problems.append(f"two-point distance {res['distance']} is not 1/|lambda|")
    return problems


def two_point_op(rng) -> Op:
    lam = complex(rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.uniform()))
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"lambda": [lam.real, lam.imag], "expected": 1.0 / abs(lam), "tolerance": 1e-6},
    }
    return _op_scenario("distance-2pt", scenario, lambda out: check_two_point(lam, out))


def _offdiag_dirac(rng, n: int) -> np.ndarray:
    mag = rng.uniform(0.3, 1.3, size=(n, n))
    phase = np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    d = np.triu(mag * phase, k=1)
    return d + d.conj().T


def check_npoint(dirac: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Sandwich the distance between two bounds computed here.

    Lower: the feasible diagonal A = diag(p - q) scaled to ||[D, A]|| = 1.
    Upper: every feasible diagonal A has |a_i - a_j| <= 1 / |D_ij| on the
    dense graph, and sum(p - q) = 0, so the value is at most
    (1/2) ||p - q||_1 max_ij 1/|D_ij|.
    """
    a = np.diag(p - q).astype(complex)
    lower = float(np.sum((p - q) ** 2)) / float(np.linalg.norm(dirac @ a - a @ dirac, 2))
    off = np.abs(dirac[~np.eye(len(p), dtype=bool)])
    upper = 0.5 * float(np.abs(p - q).sum()) / float(off.min())

    def check(out) -> list:
        report, _ = out
        problems = _report_problems(report)
        res = report["results"]
        if res["unbounded"]:
            return problems + ["connected graph reported unbounded"]
        value = res["distance"]
        if not lower - 1e-8 <= value <= upper + 1e-8:
            problems.append(f"distance {value} outside [{lower}, {upper}]")
        if res["constraint_norm"] > 1.0 + 1e-8:
            problems.append("maximizer violates the commutator constraint")
        return problems

    return check


def npoint_op(rng, n: int) -> Op:
    dirac = _offdiag_dirac(rng, n)
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    scenario = {
        "schema_version": 1,
        "kind": "distance",
        "params": {"dirac": _entries(dirac), "state": p.tolist(), "state_prime": q.tolist()},
    }
    return _op_scenario(f"distance-{n}pt", scenario, check_npoint(dirac, p, q))


def _generator(rng, n: int) -> dict:
    kind = ("inversion", "shift", "basis", "swap")[rng.integers(4)]
    if kind == "inversion":
        dirs = [d for d in range(n) if rng.uniform() < 0.5] or [int(rng.integers(n))]
        return {"kind": kind, "directions": dirs}
    if kind == "shift":
        th = np.zeros((n, n), dtype=int)
        if n == 2:
            th[0, 1] = int(rng.integers(-2, 3))
            th[1, 0] = -th[0, 1]
        return {"kind": kind, "theta": th.tolist()}
    if kind == "basis":
        if n == 1:
            return {"kind": kind, "matrix": [[int(rng.choice([-1, 1]))]]}
        a = np.array([[1, int(rng.integers(-1, 2))], [0, 1]])
        if rng.uniform() < 0.5:
            a = a[::-1]
        return {"kind": kind, "matrix": a.tolist()}
    return {"kind": kind}


def check_duality(n: int, box: int, out) -> list:
    """Charge count, the O(n, n) pairing g^T J g = J of the element, and a
    positive definite transformed metric."""
    report, _ = out
    problems = _report_problems(report)
    res = report["results"]
    if res["charges_checked"] != (2 * box + 1) ** (2 * n):
        problems.append(f"{res['charges_checked']} charges checked")
    g = np.array(res["element_matrix"])
    eye = np.eye(n)
    pairing = np.block([[np.zeros((n, n)), eye], [eye, np.zeros((n, n))]])
    if not np.array_equal(g.T @ pairing @ g, pairing):
        problems.append("element does not preserve the pairing")
    metric = np.array(res["transformed_metric"])
    if np.abs(metric - metric.T).max() > 1e-12 or np.linalg.eigvalsh(metric).min() <= 0:
        problems.append("transformed metric is not positive definite")
    return problems


def duality_op(rng, n: int) -> Op:
    metric = _spd(rng, n)
    c = rng.uniform(-1.0, 1.0, size=(n, n))
    box = 3
    scenario = {
        "schema_version": 1,
        "kind": "duality",
        "params": {
            "metric": _real(metric),
            "coupling": _real(0.5 * (c - c.T)),
            "box": box,
            "word": [_generator(rng, n) for _ in range(int(rng.integers(1, 4)))],
            "substitution": {"n_max": 1, "levels": 1},
        },
    }
    known = KNOWN_DEFECT_CHECK if n == 2 else None
    return _op_scenario(f"duality-n{n}", scenario, lambda out: check_duality(n, box, out), known)


def check_nctorus(num: int, den: int, out) -> list:
    """Representation dimension den, and a Landau ground level near pi num /
    den (half the cyclotron frequency 2 pi num / den).  Hard truncation at
    landau_n_max in 20..24 moves the level by at most 6% on this flux range,
    so 10% catches a wrong factor or sign, not the truncation."""
    report, _ = out
    problems = _report_problems(report)
    res = report["results"]
    if res["rep_dim"] != den:
        problems.append(f"rep_dim {res['rep_dim']}, expected {den}")
    exact = math.pi * num / den
    if abs(res["landau_ground_level"] - exact) > 0.1 * exact:
        problems.append(f"Landau ground level {res['landau_ground_level']} far from pi*{num}/{den}")
    return problems


def nctorus_op(rng, n_max: int) -> Op:
    den = int(rng.integers(2, 9))
    num = int(rng.integers(1, den))
    scenario = {
        "schema_version": 1,
        "kind": "nctorus",
        "params": {"numerator": [[0, num], [-num, 0]], "denominator": den, "landau_n_max": n_max},
    }
    return _op_scenario(f"nctorus-n{n_max}", scenario, lambda out: check_nctorus(num, den, out))


def check_symmetrize(n_sys: int, n_env: int, n_max: int, out) -> list:
    """Group order 2^n_env, and the invariant projector's rank: system
    dimension times the even occupations 0, 2, ... <= n_max per env mode."""
    report, _ = out
    problems = _report_problems(report)
    res = report["results"]
    sys_dim = (n_max + 1) ** n_sys
    if res["group_order"] != 2 ** n_env:
        problems.append(f"group order {res['group_order']}, expected {2 ** n_env}")
    rank = sys_dim * (n_max // 2 + 1) ** n_env
    if res["projector_rank"] != rank:
        problems.append(f"projector rank {res['projector_rank']}, expected {rank}")
    if res["joint_kernel_dim"] != sys_dim:
        problems.append(f"joint kernel {res['joint_kernel_dim']}, expected {sys_dim}")
    return problems


# dims 64 (three times) and 216.  About half of a solve cycle's ops take
# less time than the dim-64 one and half take more, so the median op time of
# a run falls inside its cluster, not in the gap between two op kinds.
SYMMETRIZE_MIX = ((1, 2, 3), (1, 2, 3), (1, 2, 3), (2, 1, 5))


def symmetrize_op(rng, n_sys: int, n_env: int, n_max: int) -> Op:
    scenario = decohere_scenario(rng, n_sys, n_env, n_max)
    scenario = {
        "schema_version": 1,
        "kind": "symmetrize",
        "params": {k: scenario["params"][k] for k in ("n_max", "K", "Lambda", "w")},
    }
    dim = (n_max + 1) ** (n_sys + n_env)
    return _op_scenario(
        f"symmetrize-{dim}", scenario, lambda out: check_symmetrize(n_sys, n_env, n_max, out)
    )


def check_commutant(h: np.ndarray, basis) -> list:
    """A generic Hermitian matrix has simple spectrum, so its commutant is
    the d-dimensional span of its powers; every element must commute."""
    d = h.shape[0]
    problems = []
    if basis.vectors.shape[0] != d:
        problems.append(f"commutant dimension {basis.vectors.shape[0]}, expected {d}")
    mats = basis.vectors.reshape(-1, d, d)
    comm = np.abs(np.einsum("ij,kjl->kil", h, mats) - np.einsum("kij,jl->kil", mats, h)).max()
    if comm > 1e-8 * np.abs(h).max():
        problems.append(f"commutant element fails to commute ({comm:.2e})")
    gram = basis.vectors @ basis.vectors.conj().T
    if np.abs(gram - np.eye(gram.shape[0])).max() > 1e-10:
        problems.append("commutant basis not orthonormal")
    return problems


def commutant_op(rng, d: int) -> Op:
    h = _hermitian(rng, d)
    return Op(
        f"commutant-{d}",
        lambda: opcore.commutant_basis([opcore.Operator(h)], d),
        lambda basis: check_commutant(h, basis),
    )


SHIPPED = ("decohere", "dfs", "distance", "duality", "nctorus", "symmetrize")


def shipped_ops(capture: KernelCapture) -> list:
    """The six shipped scenarios, verbatim, with the check of their kind."""
    ops = []
    for stem in SHIPPED:
        scenario = json.loads((SHIPPED_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        kind = f"shipped-{stem}"
        if scenario["kind"] == "dfs":
            ops.append(Op(kind, lambda s=scenario: _kernel_scenario(s, capture), check_dfs(scenario)))
        elif scenario["kind"] == "decohere":
            ops.append(_op_scenario(kind, scenario, check_decohere(scenario)))
        else:
            ops.append(_op_scenario(kind, scenario, lambda out: _report_problems(out[0])))
    return ops


def solve_cycle(rng, fixed: list) -> list:
    ops = [two_point_op(rng) for _ in range(2)]
    ops += [npoint_op(rng, n) for n in (3, 4, 5, 6)]
    ops += [duality_op(rng, n) for n in (1, 1, 2, 2)]
    ops += [nctorus_op(rng, n_max) for n_max in (20, 24)]
    ops += [symmetrize_op(rng, *mix) for mix in SYMMETRIZE_MIX]
    ops += [commutant_op(rng, d) for d in (16, 24)]
    ops += fixed
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# Battery criteria that take well under a second.  Criterion 2 (about 15 s,
# mostly the random-search oracle) does not fit a solve cycle, and
# criterion 14 needs the results of all the others.
CRITERIA = (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)


def criterion_op(number: int) -> Op:
    def check(result) -> list:
        if result.number != number:
            return [f"criterion_{number} returned number {result.number}"]
        return [] if result.passed else [f"criterion {number} {result.name} failed: {result.details}"]

    return Op(f"criterion-{number}", lambda: getattr(acceptance, f"criterion_{number}")(), check)


WORKLOADS = ("protect", "code", "solve")


def cycles(workload: str, seed: int, count: int, capture: KernelCapture) -> list:
    """``count`` cycles of ops.  Ops that run ``dfs`` scenarios read their
    kernel from ``capture``."""
    tag = WORKLOADS.index(workload)
    fixed = shipped_ops(capture) + [criterion_op(n) for n in CRITERIA] if workload == "solve" else []
    out = []
    for index in range(count):
        rng = np.random.default_rng([seed, tag, index])
        if workload == "protect":
            out.append(protect_cycle(rng))
        elif workload == "code":
            out.append(code_cycle(rng, index, capture))
        else:
            out.append(solve_cycle(rng, fixed))
    return out
