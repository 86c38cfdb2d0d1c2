"""Rewrite `pins.json`: the outputs of every workload at the default seed.

    python3 perfbench/pin.py

The benchmark compares each op it runs at the default seed with these
pins, so a change that alters any output shows as failed ops.  Re-pin only
in a change that alters outputs on purpose and says so.
"""

import hashlib
import json
import sys

import run

PIN_SWEEP_OPS = 320


def main() -> int:
    run.import_program()
    import workloads

    seed = workloads.DEFAULT_SEED
    pins = {"default_seed": seed}
    for name, w in workloads.WORKLOADS.items():
        state = w.setup(seed)
        if isinstance(w, workloads.Sweep):
            pins[name] = [w.errors(w.op(state, i)) for i in range(PIN_SWEEP_OPS)]
        elif isinstance(w, workloads.BoundGrid):
            pins[name] = [hashlib.sha256(workloads.run_cli(argv).encode()).hexdigest()[:16]
                          for argv, _ in state]
        else:
            pins[name] = "".join(w.decision(w.op(state, i)) for i in range(w.frames))
        print(f"pinned {name}", file=sys.stderr)
    with open(workloads.PINS_PATH, "w") as f:
        json.dump(pins, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
