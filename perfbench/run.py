"""spinalfade benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `src/` next
to this directory, never from an installed copy.  The workload's inputs are
made from the seed; ops run back to back (a closed loop, one caller) for
the given seconds; every op's output is checked after the timed window.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run (short untraced and traced blocks in turn over the same ops).
The lines before it are a readable report with the machine facts, and the
same record goes to `.bench_out/` together with the trace's spans.
"""

from __future__ import annotations

import os

# One process, at most two working threads (the sweep's own workers).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 2
BLOCK_S = 2.0
TRACE_BLOCK_S = 0.5


def import_program():
    """Import spinalfade from this checkout's `src/`."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spinalfade
    import spinalfade.cli  # noqa: F401

    where = Path(spinalfade.__file__).resolve().parent
    if where != src / "spinalfade":
        raise ImportError(f"spinalfade was imported from {where}, not {src}")


# One set-up in a fresh interpreter: the package's import, then the
# workload's inputs, tables and one warm-up op.  Prints the seconds taken.
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import spinalfade.cli
imported = time.perf_counter() - start
import workloads
workload = workloads.WORKLOADS[sys.argv[3]]
start = time.perf_counter()
workload.op(workload.setup(int(sys.argv[4])), 0)
print(imported + time.perf_counter() - start)
"""


def setup_times(workload, seed):
    """SETUP_REPEATS set-up times, each measured in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(ROOT / "perfbench"),
             workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.splitlines()[-1]))
    return times


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    facts = {"model name": platform.processor(), "cache size": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() in facts and value.strip():
                    facts[key.strip()] = value.strip()
                if not line.strip():
                    break
    except OSError:
        pass
    return dict(nproc=len(os.sched_getaffinity(0)), cpu_model=facts["model name"],
                llc=facts["cache size"],
                python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, seed=seed)


def set_up(workload, seed):
    """Inputs, tables and one warm-up op."""
    state = workload.setup(seed)
    workload.op(state, 0)
    return state


def run_window(workload, state, seconds=None, ops=None, recorder=None, first=0):
    """Run ops first, first + 1, ... until `seconds` pass or `ops` are done.

    Returns (outputs, per-op (start, end) times, failed op positions, wall
    seconds); an op that raises is kept as failed and the loop goes on.
    """
    outputs, times, raised = [], [], {}
    start = time.perf_counter()
    deadline = start + (seconds if seconds is not None else float("inf"))
    i = first
    while (i - first < ops) if ops is not None else (time.perf_counter() < deadline):
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            out = workload.op(state, i)
        except Exception as exc:  # a failed op is counted, not fatal
            if not raised:
                traceback.print_exc(file=sys.stderr)
            raised[len(outputs)] = f"op {i} raised {exc!r}"
            out = None
        times.append((t0, time.perf_counter()))
        outputs.append((i, out))
        i += 1
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.op = -1
    return outputs, times, raised, wall


def block_rates(times, items):
    """Items per second over consecutive blocks of at least BLOCK_S seconds.

    Taking the median of these, rather than one mean over the window,
    keeps a burst of load from other tenants of the machine from moving
    the figure unless it covers most of the run.
    """
    rates, start, count = [], times[0][0], 0
    for (_, end), n in zip(times, items):
        count += n
        if end - start >= BLOCK_S:
            rates.append(count / (end - start))
            start, count = end, 0
    return rates or [count / (times[-1][1] - times[0][0])]


def trimmed_mean(values, cut=0.1):
    """Mean of `values` without the lowest and the highest `cut` of them.

    The median of op latencies jumps between a fast and a slow mode when
    other tenants of the host load it for about half the run; this mean
    moves with the share of slow ops instead, and ignores single stalls.
    """
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def check(workload, state, seed, outputs, raised):
    """Failed op positions with reasons, raised ops included."""
    good = [(j, o) for j, o in enumerate(outputs) if j not in raised]
    bad = workload.check(state, seed, [o for _, o in good], random.Random(f"check/{seed}"))
    failures = dict(raised)
    failures.update((good[k][0], reason) for k, reason in bad.items())
    return failures


def end_to_end(workload, seed, seconds):
    state = set_up(workload, seed)
    # Set-ups before and after the window, so that a burst of load from
    # other tenants of the host, which lasts some seconds, moves only some.
    setups = setup_times(workload, seed)
    outputs, times, raised, wall = run_window(workload, state, seconds=seconds)
    setups += setup_times(workload, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check(workload, state, seed, outputs, raised)
    items = [0 if j in failures else workload.items(state, i)
             for j, (i, _) in enumerate(outputs)]
    rate = statistics.median(block_rates(times, items))
    latency = [end - start for start, end in times]
    deciles = statistics.quantiles(latency, n=10) if len(latency) > 1 else latency * 9
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (rate, "1/s"),
        "op_ms_trim_mean": (trimmed_mean(latency) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # p50 and p90 are reported but not gated: on a shared host each of them
    # moved by up to a third over ten runs of the same code.
    p90 = deciles[8]
    unit = workload.latency_name.rsplit("_", 1)[1]
    extra = {
        "op_ms_p50": (statistics.median(latency) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "samples": (len(latency), "count"),
        "samples_beyond_p90": (sum(1 for x in latency if x > p90), "count"),
        f"{workload.items_name}_per_s": (rate, "1/s"),
        f"{workload.latency_name}_p50": (statistics.median(latency) * workload.latency_scale, unit),
        f"{workload.latency_name}_p90": (p90 * workload.latency_scale, unit),
        "mean_items_per_s": (sum(items) / wall, "1/s"),
        "failed_frac": (len(failures) / len(outputs), "fraction"),
        "window_s": (wall, "s"),
    }
    return metrics, extra, failures, len(outputs)


def traced(workload, seed, seconds, spans_path):
    """Untraced and traced blocks in turn over the same ops, `seconds` in all.

    Each untraced block runs ops for TRACE_BLOCK_S; the traced block after
    it runs the same ops again, with the wrappers in place, on a state set
    up under the wrappers.  Load from other tenants of the host then falls
    on both walls alike, and `trace.overhead_frac` measures the wrappers.
    """
    import tracing

    state = set_up(workload, seed)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        traced_state = workload.setup(seed)
    plain, outputs, plain_raised, raised = [], [], {}, {}
    plain_wall = wall = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        block, _, failed, block_wall = run_window(workload, state, seconds=TRACE_BLOCK_S,
                                                  first=len(plain))
        plain_raised.update((len(plain) + j, reason) for j, reason in failed.items())
        plain += block
        plain_wall += block_wall
        with tracing.installed(recorder):
            block, _, failed, block_wall = run_window(workload, traced_state, ops=len(block),
                                                      recorder=recorder, first=len(outputs))
        raised.update((len(outputs) + j, reason) for j, reason in failed.items())
        outputs += block
        wall += block_wall
    failures = check(workload, state, seed, plain, plain_raised)
    failures.update((len(plain) + j, reason) for j, reason in
                    check(workload, traced_state, seed, outputs, raised).items())
    metrics = tracing.layer_metrics(recorder.spans, wall, len(outputs),
                                    getattr(workload, "workers", 1))
    metrics["trace.overhead_frac"] = (wall / plain_wall - 1.0, "fraction")
    recorder.write(spans_path)
    extra = {"samples": (len(outputs), "count"), "untraced_window_s": (plain_wall, "s"),
             "traced_window_s": (wall, "s"), "spans": (len(recorder.spans), "count"),
             "failed_frac": (len(failures) / (2 * len(outputs)), "fraction")}
    return metrics, extra, failures, 2 * len(outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    why = {w["name"]: w["why"] for w in json.loads(SPEC_PATH.read_text())["workloads"]}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra, failures, attempted = traced(
            workload, args.seed, args.seconds, OUT_DIR / f"{stem}.spans.csv.gz")
    else:
        metrics, extra, failures, attempted = end_to_end(
            workload, args.seed, args.seconds)

    record = {"workload": workload.name, "why": why[workload.name], "trace": args.trace,
              "seconds": args.seconds, "machine": machine_facts(args.seed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "failures": [failures[j] for j in sorted(failures)][:20]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {record['why']}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for name, (value, unit) in (metrics | extra).items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for reason in record["failures"]:
        print(f"FAILED: {reason}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
