"""driventls benchmark: seeded CLI workloads, timed in-process, checked
against an independent reference.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every metric

A run calls ``driventls.cli.main(argv)`` in this one single-threaded
process with stdout captured, drawing requests from the workload's seeded
generator until ``--seconds`` have passed, and checks every output.
``--trace 0`` times whole invocations and reports the end-to-end metrics;
``--trace 1`` runs each request untraced and then under the outside-in
tracer, checks that both print the same bytes, reports the per-layer
metrics and writes the spans to ``.perfbench/``.  The last stdout line is
one JSON object: correct, attempted and failed (invocations, and those
whose output failed a check) and metrics.  See README.md for definitions.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is defined as a single-threaded process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import GENERATORS, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
DIGITS_FLOOR = 1e-16  # errors below this read as 16 digits
LAYERS = ("cli", "cli.render", "floquet", "propagator", "spectroscopy", "analytic", "bessel", "core")


class Capture:
    """stdout stand-in that keeps what is written without copying it."""

    def __init__(self):
        self.parts = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def invoke(cli, argv: list[str]) -> tuple[int | None, float, Capture]:
    """Run one CLI invocation; returns exit code (None when it raised),
    wall seconds and the captured stdout."""
    sink = Capture()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed invocation, not a benchmark error
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start, sink


# a fresh interpreter running the CLI as its console script does
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import driventls.cli; sys.exit(driventls.cli.main(sys.argv[2:]))"
IMPORT_ONLY = "import sys; sys.path.insert(0, sys.argv[1]); import driventls.cli"


def child(script: str, argv: list[str]):
    """Run a fresh interpreter to its end; returns (exit code, seconds,
    resource usage).  Waiting without a timeout keeps the timing exact."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", script, str(SRC), *argv], cwd=ROOT, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage


def measure_setup() -> float:
    """Median wall seconds from a fresh interpreter to an imported driventls.cli."""
    child(IMPORT_ONLY, [])  # writes the bytecode cache, which an installed package has
    times = []
    for _ in range(SETUP_REPEATS):
        code, elapsed, _ = child(IMPORT_ONLY, [])
        if code != 0:
            raise RuntimeError(f"importing driventls.cli exited with {code}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb(argvs: list[list[str]]) -> float:
    """Largest peak resident memory of the request's invocations, each run
    as its own CLI process with stdout to /dev/null."""
    return max(child(CHILD, argv)[2].ru_maxrss / 1024.0 for argv in argvs)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.  With fewer
    than 21 samples that percentile would lie below the median, so no tail
    is resolved and this is the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), f"median of {n} samples (no tail resolved)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n} samples"


def digits(error: float) -> float:
    return -math.log10(max(error, DIGITS_FLOOR))


class Run:
    """Totals over the requests of one run."""

    def __init__(self):
        self.invocations = 0
        self.failed = 0
        self.points = 0
        self.solved = 0
        self.point_s = []
        self.digits = []
        self.by_command = {}  # command -> [points, solved]
        self.problems = []

    def add(self, argvs, results, differs=()) -> None:
        """Check one request; results holds (code, seconds, text) per argv,
        differs the indices whose traced output was not the same."""
        seconds, solved, worst = 0.0, 0, None
        for index, (argv, (code, elapsed, text)) in enumerate(zip(argvs, results)):
            outcome = check(argv, code, text)
            if index in differs:
                outcome.problems.append(f"{argv[0]}: traced output differs from untraced")
            self.invocations += 1
            self.failed += bool(outcome.problems)
            self.problems += outcome.problems
            self.points += outcome.attempted
            solved += outcome.solved
            seconds += elapsed
            tally = self.by_command.setdefault(argv[0], [0, 0])
            tally[0] += outcome.attempted
            tally[1] += outcome.solved
            if outcome.error is not None:
                worst = outcome.error if worst is None else max(worst, outcome.error)
        self.solved += solved
        if solved:
            self.point_s.append(seconds / solved)
        if worst is not None:
            self.digits.append(digits(worst))


def run_untraced(cli, generate, rng, seconds) -> tuple[Run, float]:
    run = Run()
    argvs = generate(rng)
    rss_mb = peak_rss_mb(argvs)
    start = time.perf_counter()
    while True:
        results = []
        for argv in argvs:
            code, elapsed, sink = invoke(cli, argv)
            results.append((code, elapsed, sink.text()))
        run.add(argvs, results)
        if time.perf_counter() - start >= seconds:
            return run, rss_mb
        argvs = generate(rng)


def end_to_end(run: Run, rss_mb: float, setup_s: float) -> tuple[dict, list[str]]:
    value, where = tail(run.point_s)
    metrics = {
        "point_s": (statistics.median(run.point_s), "s"),
        "point_s_tail": (value, "s"),
        "solved_frac": (run.solved / run.points, "ratio"),
        "ref_digits": (statistics.median(run.digits), "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [f"point_s_tail is the {where}"]
    return metrics, notes


def propagator_steps(propagator):
    """Hooks adding the integrator steps each propagator call requests."""
    default = propagator.DEFAULT_CONFIG.steps_per_period

    def per_period(args):
        config = args.get("config")
        return default if config is None else config.steps_per_period

    def span(args):
        width = args["tau_end"] - args["tau_start"]
        return max(1, round(width / (2.0 * math.pi) * per_period(args))) if width > 0 else 0

    def grid(args):
        return max(1, per_period(args) // args["n_grid"]) * args["n_grid"]

    rules = {
        "propagate": span,
        "one_period_propagator": per_period,
        "propagate_grid": grid,
        "propagation_diagnostics": per_period,
    }

    def hook(rule):
        def add(args, counters):
            counters["propagator.steps"] += rule(args)

        return add

    return {f"driventls.propagator.{name}": hook(rule) for name, rule in rules.items()}


def run_traced(cli, generate, rng, seconds) -> tuple[Run, dict, list[str]]:
    import driventls.propagator

    tracer = Tracer(propagator_steps(driventls.propagator))
    run, overhead, requests, out_bytes = Run(), [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        argvs = generate(rng)
        plain, traced = [], []
        for argv in argvs:
            code, elapsed, sink = invoke(cli, argv)
            plain.append((code, elapsed, sink.text()))
        tracer.tag = requests
        with tracer:
            for argv in argvs:
                code, elapsed, sink = invoke(cli, argv)
                traced.append((code, elapsed, sink.text()))
        requests += 1
        overhead.append(sum(r[1] for r in traced) - sum(r[1] for r in plain))
        out_bytes += sum(len(r[2].encode()) for r in traced)
        differs = {i for i, (a, b) in enumerate(zip(plain, traced)) if (a[0], a[2]) != (b[0], b[2])}
        run.add(argvs, plain, differs)

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{generate.__name__}.jsonl"
    tracer.write(spans_path)

    wall = tracer.wall_ns() * 1e-9
    self_s = {layer: tracer.self_ns[layer] * 1e-9 for layer in LAYERS}
    spans = tracer.layer_calls()
    calls = tracer.calls
    steps = tracer.counters["propagator.steps"]
    points = max(run.solved, 1)
    sweep_points = run.by_command.get("sweep", [0, 0])[0]
    eq_calls = calls["driventls.floquet.exact_quasienergies"]
    rows = calls["driventls.bessel.bessel_row"] + calls["driventls.bessel.bessel_j"]
    per = lambda x: x / requests
    metrics = {
        "propagator.calls": (per(spans["propagator"]), "count"),
        "propagator.steps": (per(steps), "count"),
        "propagator.self_s": (per(self_s["propagator"]), "s"),
        "propagator.ns_per_step": (self_s["propagator"] * 1e9 / steps if steps else 0.0, "ns"),
        "propagator.calls_per_point": (spans["propagator"] / points, "count/point"),
        "floquet.calls": (per(spans["floquet"]), "count"),
        "floquet.self_s": (per(self_s["floquet"]), "s"),
        "floquet.solves_per_point": (
            (calls["driventls.floquet.build_modes"] + eq_calls) / points,
            "count/point",
        ),
        "cli.bisect_solves": (per(eq_calls - sweep_points), "count"),
        "spectroscopy.calls": (per(calls["driventls.spectroscopy.spectrum"]), "count"),
        "spectroscopy.elements": (per(calls["driventls.spectroscopy.dipole_matrix_element"]), "count"),
        "spectroscopy.self_s": (per(self_s["spectroscopy"]), "s"),
        "analytic.calls": (per(spans["analytic"]), "count"),
        "analytic.self_s": (per(self_s["analytic"]), "s"),
        "bessel.rows": (per(rows), "count"),
        "bessel.rows_per_point": (rows / points, "count/point"),
        "bessel.self_s": (per(self_s["bessel"]), "s"),
        "cli.cmd_self_s": (per(self_s["cli"]), "s"),
        "cli.render_s": (per(self_s["cli.render"]), "s"),
        "cli.render_bytes": (per(out_bytes), "B"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
    metrics["trace_overhead_s"] = (statistics.median(overhead), "s")
    notes = [
        f"{requests} traced requests, traced wall {wall:.3f} s, spans in {spans_path.relative_to(ROOT)}",
        "counts and times are per request; *_per_point are per solved point",
    ]
    return run, metrics, notes


def report(name: str, run: Run, metrics: dict, notes: list[str]) -> dict:
    """Print the metric listing and return the result object."""
    print(f"workload {name}: {run.invocations} invocations, {run.failed} failed a check")
    for command, (points, solved) in sorted(run.by_command.items()):
        print(f"  {command}: {solved}/{points} points solved")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:28s} {value:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    for problem in run.problems[:20]:
        print(f"  check failed: {problem}")
    return {
        "correct": run.failed == 0 and run.invocations > 0,
        "attempted": run.invocations,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    sys.path.insert(0, str(SRC))
    import driventls.cli as cli

    generate = GENERATORS[name]
    rng = random.Random(seed)
    if trace:
        run, metrics, notes = run_traced(cli, generate, rng, seconds)
    else:
        setup_s = measure_setup()
        run, rss_mb = run_untraced(cli, generate, rng, seconds)
    if not (run.solved and run.digits):
        for problem in run.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"error: {name} solved no point that could be checked", file=sys.stderr)
        return 1
    if not trace:
        metrics, notes = end_to_end(run, rss_mb, setup_s)
    result = report(name, run, metrics, notes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process."""
    status = 0
    for name in GENERATORS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.splitlines(keepends=True)
            sys.stdout.write("".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
            if proc.returncode != 0:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "driventls" / "cli.py").is_file():
        print(f"error: no driventls sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
