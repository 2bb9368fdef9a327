"""dfs-lab benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload protect --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  The
loop sends the next op only after the previous one returned, the way a
researcher or CI drives the workbench.  Every op's output is checked after
the timed phase (see workloads.py).

--trace 0 prints the end-to-end metrics.  A short fixed LAPACK probe,
timed between ops, tracks how fast the machine runs at that moment; the
``adj_`` metrics scale the op times by it (see README.md).  --trace 1
makes a separate traced run for the per-layer metrics: each op runs
untraced and then with spans around every public function of the 11
layers, and the difference is the tracing overhead.  Spans go to
.bench_out/ as JSONL.

Metrics are printed by name with units; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  When the correctness
gate cannot run (dfslab missing, a check crashing) the script exits 1
without that line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BLAS threads per workload, never more than the cores this process may
# use.  Two on `code`: a dim-1458 kernel SVD takes about 35% less time than
# with one.  One on the others: their matrices are at most dim 216, a second
# thread saves little there, and it ties the op times to the load on a
# second core (README.md).
BLAS_THREADS = {"protect": 1, "code": 2, "solve": 1}
# Set-up is timed in this process and repeated in fresh interpreters.
SETUP_SAMPLES = 3

# Cycles generated up front, as a multiple of what --seconds needs at the
# nominal cycle time, so a faster program still finds inputs ready.
CYCLE_HEADROOM = 10
WARM_UP_SEED = 0
NOMINAL_CYCLE_S = {"protect": 3.5, "code": 8.5, "solve": 3.0}

# The speed probe: the singular values of a fixed complex matrix, a few
# ms of LAPACK run with the workload's BLAS threads.  Its time follows the
# ops' times more closely than a Python loop or a Hermitian eigensolve
# does, also on the solve workload, whose ops are mostly Python.  Adjusted
# times are wall times scaled to a machine speed at which the probe takes
# NOMINAL_PROBE_S: an op's own time by the mean of the probes just before
# and just after it, the run's total by the median of all its probes (a
# long op has only two probes around it, too few to scale it alone).
PROBE_DIM = 160
NOMINAL_PROBE_S = 0.005

END_TO_END = (
    ("adj_throughput_ops_s", "ops/s", "higher"),
    ("adj_op_p50_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

FUNCTION_METRICS = (
    ("states.DensityMatrix.init", "calls"),
    ("states.DensityMatrix.init", "s"),
    ("states.partial_trace", "s"),
    ("states.fidelity", "s"),
    ("dynamics.coherence_experiment", "s"),
    ("symmetry.symmetrize_factorized", "s"),
    ("opcore.unitary_exp", "s"),
    ("opcore.eig_hermitian", "s"),
    ("symmetry.close_group", "s"),
    ("symmetry.symmetrize_operator", "s"),
    ("symmetry.joint_kernel", "s"),
    ("symmetry.invariant_projector", "s"),
    ("opcore.nullspace", "s"),
    ("opcore.nullspace", "calls"),
    ("opcore.operator_norm", "s"),
    ("opcore.SubspaceBasis.init", "s"),
    ("fock.build_string_model", "s"),
    ("fock.dfs_from_dirac", "s"),
    ("fock.sector_residuals", "s"),
    ("fock.duality_substitution", "s"),
    ("fock.build_decoherence_model", "s"),
    ("opcore.Operator.init", "calls"),
    ("opcore.Operator.init", "s"),
    ("opcore.commutant_basis", "s"),
    ("spectral.connes_distance", "s"),
    ("duality.narain_energy", "calls"),
    ("duality.narain_energy", "s"),
    ("duality.transform_charges", "calls"),
    ("nctorus.landau_hamiltonian", "s"),
    ("nctorus.clock_shift_rep", "s"),
    ("nctorus.weyl_residual", "s"),
    ("reporting.canonical_json", "s"),
)

COUNTERS = (
    ("dynamics.samples", "count", "higher"),
    ("spectral.iterations", "count", "lower"),
    ("reporting.bytes", "bytes", "lower"),
)


def function_metrics(criteria) -> tuple:
    return FUNCTION_METRICS + tuple((f"acceptance.criterion_{n}", "s") for n in criteria)


def per_layer_spec(layers, shipped, criteria) -> list[tuple[str, str, str]]:
    spec = []
    for layer in layers:
        spec += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.errors", "count", "lower"),
        ]
    spec += [
        ("harness.self_s", "s", "lower"),
        ("ops.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "1", "lower"),
        ("dynamics.self_s_per_sample", "s", "lower"),
    ]
    spec += [
        (f"{name}.{field}", "count" if field == "calls" else "s", "lower")
        for name, field in function_metrics(criteria)
    ]
    spec += list(COUNTERS)
    spec += [(f"solve.shipped.{stem}.s", "s", "lower") for stem in shipped]
    return spec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_CYCLE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_blas_threads(threads: int) -> None:
    """Must run before numpy is imported; child processes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


class SpeedProbe:
    """Times a fixed piece of work; see NOMINAL_PROBE_S."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(PROBE_DIM, PROBE_DIM)) + 1j * rng.normal(size=(PROBE_DIM, PROBE_DIM))
        self._svdvals = np.linalg.svdvals

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._svdvals(self._matrix)
        return time.perf_counter() - t0


def set_up(workload: str, seed: int, seconds: float):
    """Imports dfslab, generates the inputs and runs one op of each kind
    untimed, so that one-off costs (first LAPACK call at a size, lazy
    imports) stay out of the op times.  The warm-up inputs come from a fixed
    seed: some draws cost several times others (subnormal states in
    protect), and set-up time should not depend on which ones --seed makes.
    Returns the seconds this took, the timed cycles, the installed kernel
    capture, the warm-up records and the speed probe."""
    t0 = time.perf_counter()
    import numpy as np
    import workloads  # imports dfslab

    count = max(2, math.ceil(CYCLE_HEADROOM * seconds / NOMINAL_CYCLE_S[workload]))
    capture = workloads.KernelCapture()
    cycles = workloads.cycles(workload, seed, count, capture)
    capture.install()
    warm_ops, seen = [], set()
    for op in workloads.cycles(workload, WARM_UP_SEED, 1, capture)[0]:
        if op.kind not in seen:
            seen.add(op.kind)
            warm_ops.append(op)
    warm = [run_op(op) for op in warm_ops]
    probe = SpeedProbe(np)
    for _ in range(10):
        probe()
    return time.perf_counter() - t0, cycles, capture, warm, probe


def fresh_set_up_s(args) -> float:
    """The same set-up in a new interpreter."""
    code = "import sys, run; print(run.set_up(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))[0])"
    path = [str(SRC), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code, args.workload, str(args.seed), str(args.seconds)],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


class Record:
    __slots__ = ("op", "seconds", "out", "error", "probe_s")

    def __init__(self, op, seconds, out, error):
        self.op = op
        self.seconds = seconds
        self.out = out
        self.error = error
        # mean probe time around the op, set by the untraced timed phase
        self.probe_s = None


def run_op(op, tracer=None, op_id=None) -> Record:
    if tracer is not None:
        tracer.op = op_id
        root = tracer.open(f"harness.{op.kind}", spans.HARNESS)
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception:
        out, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.op = None
    return Record(op, seconds, out, error)


def run_cycles(cycles, seconds: float, step) -> tuple[float, int]:
    """Calls ``step(op)`` on the ops of whole cycles until ``seconds`` have
    passed; returns the wall time and the number of cycles run."""
    start = time.perf_counter()
    used = 0
    for cycle in cycles:
        for op in cycle:
            step(op)
        used += 1
        if time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start, used


def probed_step(probe, records: list):
    """A step for run_cycles that runs the op between two probes."""
    before = probe()

    def step(op):
        nonlocal before
        rec = run_op(op)
        after = probe()
        rec.probe_s = 0.5 * (before + after)
        before = after
        records.append(rec)

    return step


def adjusted_times(records) -> list[float]:
    return [r.seconds * NOMINAL_PROBE_S / r.probe_s for r in records]


def adjusted_total(records) -> float:
    probe_s = statistics.median(r.probe_s for r in records)
    return sum(r.seconds for r in records) * NOMINAL_PROBE_S / probe_s


def verify(records, known_problem) -> tuple[int, list[str]]:
    """Returns the number of failed ops and the wrong answers among them.

    An op fails when it raised, a report check failed or a benchmark-side
    invariant does not hold.  The only failure that is not a wrong answer
    is the op's declared known defect.
    """
    failed = 0
    wrong = []
    for k, rec in enumerate(records):
        problems = [f"raised:\n{rec.error}"] if rec.error else rec.op.check(rec.out)
        if not problems:
            continue
        failed += 1
        tolerated = known_problem(rec.op.known_defect) if rec.op.known_defect else None
        wrong += [f"op {k} ({rec.op.kind}): {p}" for p in problems if p != tolerated]
    return failed, wrong


def trace_metrics(tracer, workloads, untraced, traced_wall, untraced_wall) -> dict:
    layers = spans.layer_totals(tracer.spans)
    funcs = spans.function_totals(tracer.spans)
    values: dict[str, float] = {}
    for layer, row in layers.items():
        if layer == spans.HARNESS:
            values["harness.self_s"] = row["self_s"]
            continue
        for key in ("calls", "busy_s", "self_s", "errors"):
            values[f"{layer}.{key}"] = row[key]
    values["ops.wall_s"] = sum(s.dur for s in tracer.spans if s.parent is None)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    for name, field in function_metrics(workloads.CRITERIA):
        values[f"{name}.{field}"] = funcs.get(name, {}).get(field, 0)
    for name, _, _ in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    samples = values["dynamics.samples"]
    values["dynamics.self_s_per_sample"] = values["dynamics.self_s"] / samples if samples else 0.0
    for stem in workloads.SHIPPED:
        times = [r.seconds for r in untraced if r.op.kind == f"shipped-{stem}"]
        values[f"solve.shipped.{stem}.s"] = statistics.median(times) if times else 0.0
    return values


def result_hooks():
    def iterations(tracer, args, kwargs, out):
        tracer.count("spectral.iterations", out.iterations)

    def samples(tracer, args, kwargs, out):
        times = kwargs["times"] if "times" in kwargs else args[3]
        # each sample time is evolved under the bare and the symmetrized H
        tracer.count("dynamics.samples", 2 * len(times))

    def size(tracer, args, kwargs, out):
        tracer.count("reporting.bytes", len(out))

    return {
        "spectral.connes_distance": iterations,
        "dynamics.coherence_experiment": samples,
        "reporting.canonical_json": size,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS[args.workload], nproc)
    set_blas_threads(threads)
    sys.path.insert(0, str(SRC))
    try:
        first_s, cycles, capture, warm, probe = set_up(args.workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import the benchmark or dfslab from {SRC}: {exc}", file=sys.stderr)
        return 1
    import numpy as np
    import workloads

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"env nproc {nproc} blas_threads {threads} numpy {np.__version__} "
        f"blas {blas_info(np)} python {platform.python_version()}"
    )
    samples = [first_s]
    try:
        while len(samples) < SETUP_SAMPLES:
            samples.append(fresh_set_up_s(args))
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"cannot repeat the set-up: {exc}", file=sys.stderr)
        return 1
    setup_s = statistics.median(samples)

    tracer = None
    untraced: list[Record] = []
    if args.trace:
        # Each op runs untraced and then traced, back to back, so that the
        # overhead compares the two at the same machine speed.
        tracer = spans.Tracer(result_hooks())
        traced: list[Record] = []

        def step(op):
            untraced.append(run_op(op))
            tracer.install()
            try:
                traced.append(run_op(op, tracer, len(traced)))
            finally:
                tracer.uninstall()

        _, used = run_cycles(cycles, args.seconds, step)
        wall = sum(r.seconds for r in untraced)
        traced_wall = sum(r.seconds for r in traced)
        records = untraced + traced
    else:
        _, used = run_cycles(cycles, args.seconds, probed_step(probe, untraced))
        wall = sum(r.seconds for r in untraced)
        records = untraced
    capture.uninstall()

    try:
        known = workloads.report_problem
        _, warm_wrong = verify(warm, known)
        failed, wrong = verify(records, known)
    except Exception:
        traceback.print_exc()
        print("correctness gate could not run", file=sys.stderr)
        return 1
    wrong = [f"warm-up {w}" for w in warm_wrong] + wrong
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)

    op_times = [r.seconds for r in untraced]
    n_ops = len(op_times)
    print(f"setup samples {' '.join(f'{x:.4f}' for x in samples)} s; warm-up ran {len(warm)} ops")
    print(f"timed {n_ops} ops in {used} cycles, {wall:.3f} s")
    if tracer is None:
        tail = spans.tail(op_times)
        values = {
            "adj_throughput_ops_s": n_ops / adjusted_total(untraced),
            "adj_op_p50_s": statistics.median(adjusted_times(untraced)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, unit, _ in END_TO_END:
            print(f"{name} {values[name]:.6g} {unit}")
        probes = [r.probe_s for r in untraced]
        print(f"probe_s {statistics.median(probes):.6g} s (median; nominal {NOMINAL_PROBE_S:g} s)")
        print(f"throughput_ops_s {n_ops / wall:.6g} ops/s (wall time, not adjusted)")
        print(f"op_p50_s {statistics.median(op_times):.6g} s (wall time, not adjusted)")
        if tail is None:
            print(f"op_tail_s omitted: {n_ops} ops, fewer than 11")
        else:
            print(f"op_tail_s {tail[1]:.6g} s (p{tail[0]:.1f} of {n_ops} ops)")
    else:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        values = trace_metrics(tracer, workloads, untraced, traced_wall, wall)
        spec = per_layer_spec(spans.LAYERS, workloads.SHIPPED, workloads.CRITERIA)
        units = {name: unit for name, unit, _ in spec}
        self_total = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS) + values["harness.self_s"]
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(
            f"tracing overhead {values['trace.overhead_s']:.4f} s "
            f"({100 * values['trace.overhead_share']:.2f}% of {wall:.3f} s untraced)"
        )
        print(f"layer self_s total {self_total:.4f} s of ops wall {values['ops.wall_s']:.4f} s")
        for layer in sorted(spans.LAYERS, key=lambda name: -values[f"{name}.self_s"]):
            row = {k: values[f"{layer}.{k}"] for k in ("calls", "busy_s", "self_s", "errors")}
            print(
                f"  {layer:<10} self_s {row['self_s']:9.4f} s ({100 * row['self_s'] / self_total:5.1f}%)"
                f"  busy_s {row['busy_s']:9.4f} s  calls {row['calls']:7d}  errors {row['errors']}"
            )
        for name, _, _ in spec:
            print(f"{name} {values[name]:.6g} {units[name]}")
    attempted = len(records)
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} ops failed)")
    print(f"correctness gate: {'pass' if not wrong else 'WRONG ANSWERS'}")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
