"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--trace 0|1] [--out FILE]

Each run is `run.py` for BENCHMARK.json's run_seconds, in a fresh
process, one after another, with seeds 1, 2, ...  For every workload and
metric it prints the median, the quartiles and the spread (quartile
distance over median, as `statistics.quantiles(values, n=4)` gives them),
and for end-to-end metrics whether the spread stays under a third of the
metric's bound; the exit code is 1 if one does not.  `--out` writes the
same summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return result


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.trace) for seed in range(1, args.seeds + 1)]
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload][name] = s
            verdict = ""
            if name in bounds:
                ok = s["spread"] < bounds[name] / 3
                steady = steady and ok
                verdict = f"bound {bounds[name]:.2f} {'ok' if ok else 'TOO WIDE'}"
            print(f"{workload:18s} {name:48s} median {s['median']:12.6g} {s['unit']:8s} "
                  f"spread {s['spread']:7.2%} {verdict}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
