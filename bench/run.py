"""Benchmark for rankcontest: one workload per run, end to end or traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload evaluate --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``evaluate``, ``design`` and ``simulate``.
The run imports the package from ``src/`` and runs whole rounds of the
workload's operations, one at a time, until ``--seconds`` of timed work
have passed and at least 100 operations have run; each round's inputs
come from ``--seed`` and the round number.  Between operations it times
a fixed loop of plain Python that never touches the package, and scales
every time metric to a reference speed of that loop (README.md,
"Machine speed").  It then checks every output of every round against
values computed apart from the package, and prints as its last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public callables (``tracing.py``) and reports per-layer
metrics instead.  Each run also writes its full result, with its
settings and every raw timing, to ``bench/out/``.
"""

import os

# numpy's BLAS must not start its own threads: one thread of load per
# run.  Set before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("evaluate", "design", "simulate")
MIN_OPS = 100  # so that ten operations lie beyond the 90th percentile
# Set-up is timed in this process and in fresh ones: SETUP_PROBES
# before the timed phase and, after each round, as many as keep one for
# every PROBE_EVERY_S of timed work, so that the probes sample the
# machine across the whole run.  The median of all of them is reported.
SETUP_PROBES = 2
PROBE_EVERY_S = 8.0

# The speed of the shared host this benchmark runs on drifts by up to
# half over minutes, for every process alike.  A fixed loop of plain
# Python, timed between operations at least every CALIBRATE_EVERY_S of
# timed work, tracks that drift; time metrics are scaled by
# CALIBRATION_REF_S / (the run's median loop time).
CALIBRATION_LOOP = 200_000
CALIBRATION_REF_S = 0.02
CALIBRATE_EVERY_S = 0.25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import the package, build the inputs, run one warm-up operation."""
    started = time.perf_counter()
    import workloads  # imports numpy and rankcontest

    ops = workloads.BUILDERS[workload](seed)
    workloads.WARMUPS[workload]()
    return ops, time.perf_counter() - started


def probe_set_up(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of plain Python."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default);
    failed operations sit at the top as +inf."""
    h = (len(sorted_values) - 1) * q
    lo = math.floor(h)
    if h == lo:
        return sorted_values[lo]
    return sorted_values[lo] + (h - lo) * (sorted_values[lo + 1] - sorted_values[lo])


def measure(build, seconds: float, failures: tuple, between_rounds=lambda elapsed: None):
    """Run whole rounds, round r of the operations ``build(r)``, until
    ``seconds`` of timed work and MIN_OPS are both reached;
    ``between_rounds(elapsed)`` runs after each round, outside the
    timing.  Returns the latencies (+inf for a failed operation), the
    failed count, each round's operations and outputs (None where one
    failed), the timed seconds, the calibration loop's times and the peak
    RSS in MiB at the end of the first round."""
    latencies = []
    calibrations = [calibration_loop()]
    rounds = []
    failed = 0
    elapsed = 0.0
    since_calibration = 0.0
    while True:
        ops = build(len(rounds))
        outputs = [None] * len(ops)
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                outputs[i] = op.run()
                latency = time.perf_counter() - t0
            except failures:
                failed += 1
                latency = math.inf
            spent = time.perf_counter() - t0
            latencies.append(latency)
            elapsed += spent
            since_calibration += spent
            if since_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(calibration_loop())
                since_calibration = 0.0
        rounds.append((ops, outputs))
        if len(rounds) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        between_rounds(elapsed)
        if elapsed >= seconds and len(latencies) >= MIN_OPS:
            return latencies, failed, rounds, elapsed, calibrations, peak_rss_mb


def run_checks(workload: str, rounds, failures: tuple) -> list[str]:
    """Check every output of every round, as one family of comparisons."""
    import checks

    ops = [op for round_ops, _ in rounds for op in round_ops]
    outputs = [out for _, round_outputs in rounds for out in round_outputs]
    if workload == "evaluate":
        return checks.check_evaluate(ops, outputs)
    if workload == "design":
        return checks.check_design(ops, outputs)
    # A repeated seed must give the same output: run the first round again.
    repeats = [None] * len(rounds[0][0])
    for i, op in enumerate(rounds[0][0]):
        try:
            repeats[i] = op.run()
        except failures:
            pass
    return checks.check_simulate(ops, outputs, repeats)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankcontest" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}; run from a source "
              "checkout of rankcontest", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(set_up(args.workload, args.seed)[1])
        return 0

    ops, own_setup = set_up(args.workload, args.seed)
    setup_times = [own_setup]

    def probe(elapsed=0.0):
        while not args.trace and len(setup_times) <= SETUP_PROBES + elapsed / PROBE_EVERY_S:
            setup_times.append(probe_set_up(args.workload, args.seed))

    probe()

    import numpy as np
    import rankcontest as rc
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def build(round_):
        if round_ == 0:
            return ops
        if tracer is not None:  # the calls that build inputs are not traced
            tracer.uninstall()
        try:
            return workloads.BUILDERS[args.workload](args.seed, round_)
        finally:
            if tracer is not None:
                tracer.install()

    failures = (rc.ContestError, workloads.CommandFailed)
    try:
        latencies, failed, rounds, elapsed, calibrations, peak_rss_mb = measure(
            build, args.seconds, failures, probe
        )
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = run_checks(args.workload, rounds, failures)
    expected = sum(op.expected_failure for round_ops, _ in rounds for op in round_ops)
    if failed != expected:
        problems.append(f"{failed} operations failed; {expected} expected to")

    # seconds at the reference speed per second measured in this run
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    ordered = sorted(latencies)
    end_to_end = {
        "setup_s": (scale * statistics.median(setup_times), "s"),
        "ops_per_s": ((len(latencies) - failed) / (scale * elapsed), "1/s"),
        "op_p50_ms": (scale * 1e3 * percentile(ordered, 0.5), "ms"),
        "op_p90_ms": (scale * 1e3 * percentile(ordered, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    reported = tracer.layer_metrics(len(latencies), len(rounds)) if tracer else end_to_end
    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "elapsed_s": elapsed,
        "setup_times_s": setup_times,
        "latencies_s": [t if math.isfinite(t) else None for t in latencies],
        "calibration_s": calibrations,
        "scale": scale,
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "problems": problems,
        "result": result,
        "settings": {
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    if tracer is not None:
        tracer.write(OUT / name, record)
    else:
        (OUT / name).write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for metric, (value, unit) in reported.items():
        print(f"{args.workload} {metric} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
