"""Benchmark runner for genwass: closed-loop workloads, one client each.

Run from the repository root; the benchmark imports genwass from ``src/``
of the checkout it sits in and nowhere else:

    python3 perfbench/run.py --workload exact_w1_certify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run is one process for one workload, with no threads.  It generates the
workload's inputs from ``--seed``, runs ops back to back for ``--seconds``
seconds, checks every op's output, and prints its figures by name, then one
JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each op once untraced and once traced
and reports per-layer metrics instead.  Times are wall times scaled to a
reference machine speed (see calibration.py and README.md).  ``--workload
all`` runs each workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import NOMINAL_REF_S, speed_factors, time_reference
from tracing import COUNTS, LAYER_NAMES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Set-up is timed in this many fresh processes and reported as their median.
SETUP_PROBES = 5
# Reference runs after a set-up probe, to calibrate its time.
PROBE_REFS = 9
# A probe this slow means set-up is broken; five of them end a run within
# two minutes.
PROBE_TIMEOUT_S = 20
# Tail percentile: it leaves at least ten ops beyond it down to 50 ops per
# run.  The slowest workload, exact_w1_certify, ran 68 to 96 ops in 35 s on
# a 2-core machine, depending on how fast the machine was at the time.
TAIL_PERCENTILE = 80
MIN_BEYOND_TAIL = 10
SHOWN_FAILURES = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_genwass():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import genwass
        import genwass.cli  # noqa: F401  (the CLI workloads call it)
    except ImportError as exc:
        raise BenchError(f"cannot import genwass from {src}: {exc}") from exc
    origin = Path(genwass.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"genwass was imported from {origin}, not from {src}")
    return genwass


def set_up(gw, workload: str, seed: int, workdir: str):
    """Generate the inputs and run one untimed warm-up op (op 0)."""
    wl = WORKLOADS[workload](gw, seed, workdir)
    _, failure = timed_op(wl, 0)
    return wl, failure


def timed_op(wl, k: int) -> tuple[float, str | None]:
    """Wall time of op ``k`` and the reason it failed, or None."""
    start = time.perf_counter()
    try:
        result = wl.run(k)
    except Exception as exc:  # the program failing is a failed op, not a failed benchmark
        return time.perf_counter() - start, f"op raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(k, result)
    except Exception as exc:  # malformed output
        return elapsed, f"check raised {exc!r}"


def probe_setup(args) -> int:
    """Child side of the set-up measurement: set up, read the clock, then
    time the reference task for calibration."""
    gw = import_genwass()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-probe-") as workdir:
        set_up(gw, args.workload, args.seed, workdir)
        done = time.monotonic()
    ref = statistics.median(time_reference() for _ in range(PROBE_REFS))
    print(done, ref)
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median over fresh processes of start -> import genwass -> inputs ->
    warm-up op, calibrated and raw.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's reading and ours
    share one clock.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    calibrated, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        done, ref = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(done - start)
        calibrated.append((done - start) * NOMINAL_REF_S / ref)
    return statistics.median(calibrated), statistics.median(raw)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, k: int, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"op {k}: {failure}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (100 - q)% of the values lie above it."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100 * len(ordered)), 1)
    return ordered[rank - 1]


def latency_metrics(times: list[float], ok: list[bool], ops: int) -> dict:
    """Throughput and latency percentiles of one list of op times."""
    good = [t for t, passed in zip(times, ok) if passed] or times
    return {
        "ops_per_s": (sum(ok) / sum(times), "ops/s", ops),
        "latency_p50_ms": (1000 * statistics.median(good), "ms", ops),
        f"latency_tail_p{TAIL_PERCENTILE}_ms": (1000 * percentile(good, TAIL_PERCENTILE), "ms", ops),
    }


def run_untraced(wl, seconds: float, tally: Tally, setup: tuple[float, float]) -> dict:
    times, ok, refs = [], [], []
    k = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k += 1
        elapsed, failure = timed_op(wl, k)
        tally.add(k, failure)
        times.append(elapsed)
        ok.append(failure is None)
        refs.append(time_reference())

    passed = sum(ok)
    beyond = passed - math.ceil(TAIL_PERCENTILE / 100 * passed)
    if beyond < MIN_BEYOND_TAIL:
        print(f"warning: only {beyond} ops beyond p{TAIL_PERCENTILE}", file=sys.stderr)
    factors = speed_factors(refs)
    raw = latency_metrics(times, ok, passed)
    print(f"raw wall time: {raw['ops_per_s'][0]:.4f} ops/s, p50 {raw['latency_p50_ms'][0]:.3f} ms, "
          f"p{TAIL_PERCENTILE} {raw[f'latency_tail_p{TAIL_PERCENTILE}_ms'][0]:.3f} ms, "
          f"setup {setup[1]:.4f} s; reference median {1000 * statistics.median(refs):.3f} ms")
    metrics = latency_metrics([t * f for t, f in zip(times, factors)], ok, passed)
    metrics["setup_s"] = (setup[0], "s", SETUP_PROBES)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return metrics


def run_traced(wl, seconds: float, tally: Tally, span_path: Path) -> dict:
    """Each op runs untraced, then traced; the difference is the overhead."""
    tracer = Tracer()
    untraced, traced, refs = [], [], []
    k = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k += 1
        elapsed, failure = timed_op(wl, k)
        untraced.append(elapsed)
        tally.add(k, failure)
        tracer.op = k
        tracer.install()
        try:
            elapsed, failure = timed_op(wl, k)
        finally:
            tracer.remove()
        traced.append(elapsed)
        tally.add(k, failure)
        refs.append(time_reference())
    tracer.write(span_path)

    ops = k
    factors = speed_factors(refs)
    scale = dict(zip(range(1, ops + 1), factors))
    traced_s = sum(t * f for t, f in zip(traced, factors))
    untraced_s = sum(t * f for t, f in zip(untraced, factors))
    calls, self_s, root = tracer.layer_times(scale)
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / ops, "count/op", ops)
        metrics[f"{name}.self_s"] = (self_s[name] / ops, "s/op", ops)
    for name, (count, unit, _) in COUNTS.items():
        key = f"{name}.{count}"
        metrics[key] = (tracer.counts[key] / ops, unit, ops)
    metrics["other.self_s"] = ((traced_s - root) / ops, "s/op", ops)
    metrics["trace.ops"] = (ops, "count", ops)
    metrics["trace.op_wall_s"] = (traced_s / ops, "s/op", ops)
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / ops, "s/op", ops)
    layer_sum = sum(self_s.values()) + (traced_s - root)
    print(f"layer self times plus other: {layer_sum:.6f} s; traced op wall time: {traced_s:.6f} s")
    print(f"tracing overhead: {traced_s - untraced_s:+.6f} s over {ops} ops "
          f"({100 * (traced_s - untraced_s) / untraced_s:+.2f}% of untraced {untraced_s:.6f} s)")
    print(f"raw wall time: traced {sum(traced):.6f} s, untraced {sum(untraced):.6f} s; "
          f"reference median {1000 * statistics.median(refs):.3f} ms")
    print(f"spans: {len(tracer.spans)} written to {span_path}")
    return metrics


def run_one(args) -> int:
    gw = import_genwass()
    setup = None if args.trace else measure_setup(args)
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as workdir:
        wl, failure = set_up(gw, args.workload, args.seed, workdir)
        tally.add(0, failure)
        time_reference()  # warm the reference task too
        if args.trace:
            span_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            metrics = run_traced(wl, args.seconds, tally, span_path)
        else:
            metrics = run_untraced(wl, args.seconds, tally, setup)

    failed = len(tally.failures)
    for line in tally.failures[:SHOWN_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} ops attempted, "
          f"{failed} failed, fail_frac {failed / tally.attempted:.6g}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<40} {value:>14.6f} {unit:<12} ({count} ops)")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return probe_setup(args)
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
