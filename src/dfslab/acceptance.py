"""Programmatic acceptance battery.

Fourteen numbered checks exercise the package end to end at fixed seeds and
tolerances.  The selftest command and the acceptance test module both run
this battery, so a pass here is a pass everywhere.

Randomness comes from counter-based Philox generators seeded per criterion,
which keeps every run bit-identical across platforms and repetitions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .duality import (
    Background,
    _energy_shift,
    charge_box,
    dual_metric,
    normal_modes,
    onn_generators,
    pairing_matrix,
)
from .dynamics import coherence_experiment
from .fock import (
    FockSpace,
    build_decoherence_model,
    build_string_model,
    clifford_pair,
    duality_substitution,
    env_vacuum_projector,
    hw_mode,
    interior_indices,
    parity_generators,
)
from .nctorus import FluxMatrix, antisymmetrize_coupling, clock_shift_rep, weyl_residual
from .opcore import Operator, SubspaceBasis, commutant_basis, commutator, operator_norm
from .reporting import canonical_json
from .spectral import GAP_TOL, connes_distance, make_diagonal_triple, make_two_point_triple
from .states import DensityMatrix, StateFunctional, encode_two_point, pure_state
from .symmetry import close_group, invariant_projector, joint_kernel, symmetrize_operator

# Thresholds frozen against reference runs; see the test suite for the
# experiments that produced them.
FULL_LEAKAGE_FLOOR = 1e-4
SYMMETRIZED_LEAKAGE_CAP = 1e-10
ORACLE_SAMPLES = 100_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    values: dict = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.25 * np.eye(n)


def _diag_state(p: np.ndarray) -> StateFunctional:
    return StateFunctional(DensityMatrix(Operator(np.diag(p.astype(np.complex128)))))


def criterion_1(tol_scale: float = 1.0) -> CriterionResult:
    """Two-point distances against the closed form 1/|lambda|, each with a
    certified duality gap."""
    tol = 1e-6 * tol_scale
    worst = 0.0
    worst_gap = -math.inf
    certified = True
    slowest = 0.0
    rows = []
    for lam in (1.0, 2.0j, 0.5 + 0.5j):
        triple = make_two_point_triple(lam)
        psi0 = _diag_state(np.array([1.0, 0.0]))
        psi1 = _diag_state(np.array([0.0, 1.0]))
        t0 = time.perf_counter()
        res = connes_distance(triple, psi0, psi1)
        elapsed = time.perf_counter() - t0
        err = abs(res.value - 1.0 / abs(lam))
        worst = max(worst, err)
        worst_gap = max(worst_gap, res.gap)
        certified = certified and res.certified
        slowest = max(slowest, elapsed)
        rows.append(
            {
                "lambda": complex(lam),
                "distance": res.value,
                "upper_bound": res.upper_bound,
                "error": err,
                "seconds": elapsed,
            }
        )
    quick = slowest < 1.0
    passed = worst <= tol and certified and quick
    # Details must not carry wall-clock numbers: they land in the canonical
    # selftest output, which has to be byte-stable across runs.
    return CriterionResult(
        1,
        "two-point-distance",
        passed,
        f"max error {worst:.3e} (tol {tol:.1e}); max relative duality gap {worst_gap:.1e} "
        f"(tol {GAP_TOL:.0e}), certified: {certified}; every solve under 1s: {quick}",
        {
            "max_error": worst,
            "tolerance": tol,
            "max_duality_gap": worst_gap,
            "gap_tolerance": GAP_TOL,
            "slowest_seconds": slowest,
            "cases": rows,
        },
    )


def _random_offdiag_dirac(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian matrix with off-diagonal magnitudes bounded away from zero,
    so the commutation graph is connected and the distance is finite."""
    d = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1, n):
            mag = rng.uniform(0.3, 1.3)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            d[i, j] = mag * np.exp(1.0j * phase)
            d[j, i] = np.conj(d[i, j])
    return d


def _oracle_distance(g: np.ndarray, comms: np.ndarray, rng: np.random.Generator) -> float:
    """Random search over coefficient space plus coordinate refinement.

    Independent of the solver: no gradients, only norm evaluations.
    """
    k = g.shape[0]
    samples = rng.normal(size=(ORACLE_SAMPLES, k))
    mats = np.tensordot(samples, comms, axes=(1, 0))
    # Each commutator is anti-Hermitian, so its norm is the largest |eigenvalue| of i M.
    norms = np.abs(np.linalg.eigvalsh(1j * mats)).max(axis=-1)
    ok = norms > 1e-12
    objective = np.abs(samples[ok] @ g) / norms[ok]
    best = samples[ok][int(np.argmax(objective))].copy()

    def value(c: np.ndarray) -> float:
        m = np.tensordot(c, comms, axes=(1 if c.ndim > 1 else 0, 0))
        h = np.abs(np.linalg.eigvalsh(1j * m)).max(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(c @ g) / h if c.ndim == 1 else np.where(h > 1e-12, np.abs(c @ g) / h, 0.0)

    span = 1.0
    current = value(best)
    for _ in range(60):
        for axis in range(k):
            trial = np.tile(best, (41, 1))
            trial[:, axis] += span * np.linspace(-1.0, 1.0, 41)
            vals = value(trial)
            idx = int(np.argmax(vals))
            if vals[idx] > current:
                current = float(vals[idx])
                best = trial[idx].copy()
        span *= 0.7
    return float(current)


def criterion_2(tol_scale: float = 1.0) -> CriterionResult:
    """Solver against a random-search oracle on three-point triples, each
    solve with a certified duality gap."""
    tol = 1e-3 * tol_scale
    rng = _rng(2002)
    worst = 0.0
    worst_gap = -math.inf
    certified = True
    for _ in range(25):
        dirac = _random_offdiag_dirac(rng, 3)
        triple = make_diagonal_triple(3, Operator(dirac))
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        res = connes_distance(triple, _diag_state(p), _diag_state(q))
        worst_gap = max(worst_gap, res.gap)
        certified = certified and res.certified

        basis_mats = [b.mat for b in triple.algebra_basis.matrices()]
        g = np.array(
            [np.real(np.trace(b @ (np.diag(p) - np.diag(q)))) for b in basis_mats]
        )
        comms = np.stack([(dirac @ b - b @ dirac) for b in basis_mats])
        oracle = _oracle_distance(g, comms, rng)
        worst = max(worst, abs(res.value - oracle))
    passed = worst <= tol and certified
    return CriterionResult(
        2,
        "three-point-oracle",
        passed,
        f"max solver/oracle gap {worst:.3e} over 25 triples (tol {tol:.1e}); "
        f"max relative duality gap {worst_gap:.1e} (tol {GAP_TOL:.0e}), certified: {certified}",
        {
            "max_gap": worst,
            "tolerance": tol,
            "max_duality_gap": worst_gap,
            "gap_tolerance": GAP_TOL,
            "triples": 25,
        },
    )


def criterion_3(tol_scale: float = 1.0) -> CriterionResult:
    """Commutant of the two-point Dirac operator at lambda = i."""
    tol = 1e-12 * tol_scale
    triple = make_two_point_triple(1.0j)
    comm = commutant_basis([triple.dirac], 2)
    c0 = np.eye(2, dtype=np.complex128)
    c1 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    res0 = comm.residual(c0 / np.linalg.norm(c0))
    res1 = comm.residual(c1 / np.linalg.norm(c1))
    mats = comm.matrices()
    abelian = max(
        operator_norm(commutator(a, b)) for a in mats for b in mats
    )
    passed = comm.size == 2 and res0 <= tol and res1 <= tol and abelian <= tol
    return CriterionResult(
        3,
        "dirac-commutant",
        passed,
        f"dim {comm.size} (want 2), span residuals {max(res0, res1):.1e}, "
        f"max pairwise commutator {abelian:.1e}",
        {"dim": comm.size, "residual_c0": res0, "residual_c1": res1, "abelian": abelian},
    )


def criterion_4(tol_scale: float = 1.0) -> CriterionResult:
    """Two-point encoding reproduces diagonal entries as expectations."""
    tol = 1e-14 * tol_scale
    rng = _rng(2004)
    psi = StateFunctional(DensityMatrix(Operator(np.eye(2, dtype=np.complex128) / 2.0)))
    worst = 0.0
    for _ in range(100):
        atilde = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
        atilde[0, 0] = rng.normal()
        atilde[1, 1] = rng.normal()
        a0, a1 = encode_two_point(Operator(atilde))
        worst = max(worst, abs(psi(a0) - atilde[0, 0]), abs(psi(a1) - atilde[1, 1]))
    passed = worst <= tol
    return CriterionResult(
        4,
        "two-point-encoding",
        passed,
        f"max expectation error {worst:.3e} over 100 draws (tol {tol:.1e})",
        {"max_error": worst, "tolerance": tol},
    )


def criterion_5(tol_scale: float = 1.0) -> CriterionResult:
    """Parity averaging kills the exchange coupling; kernel is system x vacuum."""
    kill_tol = 1e-12 * tol_scale
    proj_tol = 1e-12 * tol_scale
    kernel_tol = 1e-10 * tol_scale
    rng = _rng(2005)
    rows = []
    ok = True
    for n_max in (3, 4):
        k = np.array([[rng.uniform(0.5, 2.0)]])
        lam = np.array([[rng.uniform(0.5, 2.0)]])
        w = np.array([[rng.uniform(0.2, 1.0) * np.exp(1.0j * rng.uniform(0, 2 * math.pi))]])
        model = build_decoherence_model(k, lam, w, n_max)
        gens = parity_generators(model)
        rep = close_group(gens)
        killed = operator_norm(symmetrize_operator(rep, model.h_int))
        proj = invariant_projector(rep)
        kernel = joint_kernel(gens)
        expected = env_vacuum_projector(model).mat
        kernel_err = float(np.abs(kernel.projector().mat - expected).max())
        good = (
            killed <= kill_tol
            and proj.idempotency <= proj_tol
            and proj.hermiticity <= proj_tol
            and kernel.size == n_max + 1
            and kernel_err <= kernel_tol
        )
        ok = ok and good
        rows.append(
            {
                "n_max": n_max,
                "interaction_norm": killed,
                "idempotency": proj.idempotency,
                "hermiticity": proj.hermiticity,
                "kernel_dim": kernel.size,
                "kernel_projector_error": kernel_err,
            }
        )
    return CriterionResult(
        5,
        "interaction-symmetrization",
        ok,
        "symmetrized coupling norm "
        + ", ".join(f"{r['interaction_norm']:.1e} (n_max={r['n_max']})" for r in rows)
        + f"; kernel dims {[r['kernel_dim'] for r in rows]}",
        {"cases": rows, "kill_tolerance": kill_tol},
    )


def criterion_6(tol_scale: float = 1.0) -> CriterionResult:
    """Leakage stays flat under the averaged Hamiltonian and grows under the
    bare one."""
    sym_cap = SYMMETRIZED_LEAKAGE_CAP * tol_scale
    model = build_decoherence_model([[1.0]], [[1.0]], [[0.3]], n_max=3)
    sys_dim = model.system_space.dim
    env_dim = model.env_space.dim
    code = SubspaceBasis(sys_dim, np.eye(sys_dim, dtype=np.complex128), "vector-space")
    v_sys = np.zeros(sys_dim, dtype=np.complex128)
    v_sys[0] = v_sys[1] = 1.0 / math.sqrt(2.0)
    v_env = np.zeros(env_dim, dtype=np.complex128)
    v_env[0] = 1.0
    rho0 = pure_state(np.kron(v_sys, v_env), dims=(sys_dim, env_dim))
    times = np.arange(0.0, 20.0001, 0.5)
    full, sym = coherence_experiment(model, code, rho0, times)
    full_max = float(full.leakages.max())
    sym_max = float(sym.leakages.max())
    passed = sym_max <= sym_cap and full_max > FULL_LEAKAGE_FLOOR
    return CriterionResult(
        6,
        "coherence-experiment",
        passed,
        f"symmetrized leakage max {sym_max:.3e} (cap {sym_cap:.1e}), "
        f"bare leakage max {full_max:.3e} (floor {FULL_LEAKAGE_FLOOR:.1e})",
        {
            "symmetrized_max_leakage": sym_max,
            "full_max_leakage": full_max,
            "floor": FULL_LEAKAGE_FLOOR,
            "cap": sym_cap,
        },
    )


def criterion_7(tol_scale: float = 1.0) -> CriterionResult:
    """Gamma families close on plus and minus the metric and anticommute."""
    tol = 1e-12 * tol_scale
    rng = _rng(2007)
    worst = 0.0
    for draw in range(20):
        n = draw % 3 + 1
        eta = _random_spd(rng, n)
        pair = clifford_pair(eta)
        eye = np.eye(pair.rep_dim)
        for i in range(n):
            for j in range(n):
                gp_i, gp_j = pair.gamma_plus[i].mat, pair.gamma_plus[j].mat
                gm_i, gm_j = pair.gamma_minus[i].mat, pair.gamma_minus[j].mat
                worst = max(
                    worst,
                    float(np.abs(gp_i @ gp_j + gp_j @ gp_i - 2 * eta[i, j] * eye).max()),
                    float(np.abs(gm_i @ gm_j + gm_j @ gm_i + 2 * eta[i, j] * eye).max()),
                    float(np.abs(gp_i @ gm_j + gm_j @ gp_i).max()),
                )
    passed = worst <= tol
    return CriterionResult(
        7,
        "clifford-pairs",
        passed,
        f"max anticommutator residual {worst:.3e} over 20 metrics (tol {tol:.1e})",
        {"max_residual": worst, "tolerance": tol},
    )


def criterion_8(tol_scale: float = 1.0) -> CriterionResult:
    """Tower commutators reproduce level times metric on interior entries."""
    tol = 1e-12 * tol_scale
    rng = _rng(2008)
    eta = _random_spd(rng, 2)
    levels = 2
    n_dirs = 2
    space = FockSpace(n_dirs * levels, 2)
    ops = {
        lvl: hw_mode(space, lvl, eta, modes=tuple(range((lvl - 1) * n_dirs, lvl * n_dirs)))
        for lvl in (1, 2)
    }
    inter = interior_indices(space)
    worst = 0.0
    for n_lvl in (1, 2):
        for m_lvl in (1, 2):
            for i in range(n_dirs):
                for j in range(n_dirs):
                    e_n = ops[n_lvl][i].mat
                    e_m_dag = ops[m_lvl][j].mat.conj().T
                    comm = e_n @ e_m_dag - e_m_dag @ e_n
                    want = n_lvl * eta[i, j] if n_lvl == m_lvl else 0.0
                    block = comm[np.ix_(inter, inter)] - want * np.eye(inter.size)
                    worst = max(worst, float(np.abs(block).max()))
    passed = worst <= tol
    return CriterionResult(
        8,
        "tower-commutators",
        passed,
        f"max interior commutator residual {worst:.3e} (tol {tol:.1e})",
        {"max_residual": worst, "tolerance": tol},
    )


def criterion_9(tol_scale: float = 1.0) -> CriterionResult:
    """Inverse-metric kinetic term against metric potential gives unit
    frequencies; swapping the arguments permutes nothing."""
    tol = 1e-10 * tol_scale
    rng = _rng(2009)
    worst_unit = 0.0
    worst_swap = 0.0
    for draw in range(20):
        n = draw % 4 + 1
        eta = _random_spd(rng, n)
        freqs = normal_modes(np.linalg.inv(eta), eta)
        worst_unit = max(worst_unit, float(np.abs(freqs - 1.0).max()))
        a = _random_spd(rng, n)
        b = _random_spd(rng, n)
        fa = normal_modes(a, b)
        fb = normal_modes(b, a)
        worst_swap = max(worst_swap, float(np.abs(np.sort(fa) - np.sort(fb)).max()))
    passed = worst_unit <= tol and worst_swap <= tol
    return CriterionResult(
        9,
        "normal-modes",
        passed,
        f"unit-frequency residual {worst_unit:.3e}, swap residual {worst_swap:.3e} (tol {tol:.1e})",
        {"unit_residual": worst_unit, "swap_residual": worst_swap, "tolerance": tol},
    )


def criterion_10(tol_scale: float = 1.0) -> CriterionResult:
    """Dual metric: plain inverse at zero coupling, symmetric always."""
    tol = 1e-12 * tol_scale
    rng = _rng(2010)
    worst_inv = 0.0
    worst_sym = 0.0
    for _ in range(10):
        eta = _random_spd(rng, 3)
        bare = Background(eta, np.zeros((3, 3)))
        worst_inv = max(
            worst_inv, float(np.abs(dual_metric(bare) - np.linalg.inv(eta)).max())
        )
        u = np.triu(rng.normal(size=(3, 3)), k=1)
        coupled = Background(eta, u - u.T)
        dm = dual_metric(coupled)
        worst_sym = max(worst_sym, float(np.abs(dm - dm.T).max()))
    passed = worst_inv <= tol and worst_sym <= tol
    return CriterionResult(
        10,
        "dual-metric",
        passed,
        f"zero-coupling inverse residual {worst_inv:.3e}, symmetry residual {worst_sym:.3e}",
        {"inverse_residual": worst_inv, "symmetry_residual": worst_sym, "tolerance": tol},
    )


def _random_word(rng: np.random.Generator, gens: list):
    word = gens[int(rng.integers(len(gens)))]
    for _ in range(int(rng.integers(0, 4))):
        word = word.compose(gens[int(rng.integers(len(gens)))])
    return word


def criterion_11(tol_scale: float = 1.0) -> CriterionResult:
    """Integer pairing identity holds exactly; charge spectra ride along."""
    rng = _rng(2011)
    backgrounds = {
        1: Background([[2.25]], [[0.0]]),
        2: Background([[1.0, 0.3], [0.3, 2.0]], [[0.0, 0.7], [-0.7, 0.0]]),
    }
    identity_ok = True
    worst_energy = 0.0
    energy_tol = 0.0
    box = 3
    for n in (1, 2):
        gens = onn_generators(n)
        j = pairing_matrix(n)
        for g in gens:
            if not np.array_equal(g.matrix.T @ j @ g.matrix, j):
                identity_ok = False
        for _ in range(100):
            word = _random_word(rng, gens)
            if not np.array_equal(word.matrix.T @ j @ word.matrix, j):
                identity_ok = False
        charges = charge_box(n, box)
        for g in gens:
            shift, bound = _energy_shift(g, backgrounds[n], charges, tol_scale)
            worst_energy = max(worst_energy, shift)
            # the bound of the largest energy in either box
            energy_tol = max(energy_tol, bound)
    passed = identity_ok and worst_energy <= energy_tol
    return CriterionResult(
        11,
        "integer-duality-narain",
        passed,
        f"pairing identity exact: {identity_ok}; max energy shift {worst_energy:.3e} "
        f"(tol {energy_tol:.1e})",
        {"identity_exact": identity_ok, "max_energy_shift": worst_energy, "tolerance": energy_tol},
    )


def criterion_12(tol_scale: float = 1.0) -> CriterionResult:
    """Clock-shift pairs satisfy the phase relation; the antisymmetrized
    coupling matches the sign-weighted formula bit for bit."""
    tol = 1e-13 * tol_scale
    worst = 0.0
    q = np.array([[0, 1], [-1, 0]])
    for den in (2, 3, 4, 5, 8):
        flux = FluxMatrix.from_rational(q, den)
        rep = clock_shift_rep(flux)
        worst = max(worst, weyl_residual(rep, flux))

    rng = _rng(2012)
    raw = rng.normal(size=(4, 4))
    eta = 0.5 * (raw + raw.T) + 2.0 * np.eye(4)
    u = np.triu(rng.normal(size=(4, 4)), k=1)
    xi = u - u.T
    flux = antisymmetrize_coupling(Background(eta, xi))
    expected = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i != j:
                expected[i, j] = math.copysign(1.0, j - i) * eta[i, j] + xi[i, j]
    sgn_exact = np.array_equal(flux.omega, expected)
    passed = worst <= tol and sgn_exact
    return CriterionResult(
        12,
        "clock-shift-weyl",
        passed,
        f"max phase-relation residual {worst:.3e} (tol {tol:.1e}); "
        f"sign formula exact: {sgn_exact}",
        {"max_residual": worst, "tolerance": tol, "sign_formula_exact": sgn_exact},
    )


def criterion_13(tol_scale: float = 1.0) -> CriterionResult:
    """Substituted Dirac coefficients equal the dual-background ones."""
    tol = 1e-12 * tol_scale
    rng = _rng(2013)
    worst = 0.0
    for _ in range(10):
        scale = rng.uniform(0.3, 3.0)
        bg = Background([[scale]], [[0.0]])
        model = build_string_model(bg, n_max=1, levels=1)
        report = duality_substitution(model)
        worst = max(worst, report.max_residual)
    passed = worst <= tol
    return CriterionResult(
        13,
        "substitution-match",
        passed,
        f"max coefficient residual {worst:.3e} over 10 backgrounds (tol {tol:.1e})",
        {"max_residual": worst, "tolerance": tol},
    )


def criterion_14(results_so_far: list[CriterionResult], elapsed: float, tol_scale: float = 1.0) -> CriterionResult:
    """Three seeded criteria, computed again, render to the same
    canonical bytes as their first run, and the battery is quick."""
    first = {r.number: r for r in results_so_far}
    reruns = [criterion_4(tol_scale), criterion_7(tol_scale), criterion_12(tol_scale)]
    identical = all(
        canonical_json(battery_report([r])) == canonical_json(battery_report([first[r.number]]))
        for r in reruns
    )
    quick = elapsed < 300.0
    passed = identical and quick
    return CriterionResult(
        14,
        "determinism",
        passed,
        f"recomputed criteria 4, 7, 12 identical: {identical}; "
        f"battery under 300s: {quick}",
        {"identical": identical, "under_time_cap": quick, "elapsed_seconds": round(elapsed, 3)},
    )


def battery_report(results: list[CriterionResult]) -> dict:
    """JSON-safe summary of a battery run.  No wall-clock fields: canonical
    output must not vary between runs."""
    return {
        "schema_version": 1,
        "kind": "selftest",
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "values": _strip_timing(r.values),
            }
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }


_TIMING_KEYS = {"seconds", "slowest_seconds", "elapsed_seconds"}


def _strip_timing(values: dict) -> dict:
    out = {}
    for key, val in values.items():
        if key in _TIMING_KEYS:
            continue
        if isinstance(val, dict):
            out[key] = _strip_timing(val)
        elif isinstance(val, list):
            out[key] = [_strip_timing(v) if isinstance(v, dict) else v for v in val]
        else:
            out[key] = val
    return out


def run_all(tol_scale: float = 1.0) -> list[CriterionResult]:
    start = time.perf_counter()
    results = [
        criterion_1(tol_scale),
        criterion_2(tol_scale),
        criterion_3(tol_scale),
        criterion_4(tol_scale),
        criterion_5(tol_scale),
        criterion_6(tol_scale),
        criterion_7(tol_scale),
        criterion_8(tol_scale),
        criterion_9(tol_scale),
        criterion_10(tol_scale),
        criterion_11(tol_scale),
        criterion_12(tol_scale),
        criterion_13(tol_scale),
    ]
    elapsed = time.perf_counter() - start
    results.append(criterion_14(results, elapsed, tol_scale))
    return results
