#!/usr/bin/env python3
"""Write ``reference_seed0.json``: the outputs the correctness gate compares against.

Run from the repository root, only when an output change is intended:

    python3 bench/make_reference.py

It runs one pass of every workload at seed 0 and stores each operation's
record.  It refuses to store a record that raised or breaks an invariant.
"""
import json
import sys

import run

SEED = 0


def main():
    if run.prepare() is None:
        return 2
    import workloads

    stored = {}
    for name in run.WORKLOAD_NAMES:
        workload = workloads.build(name, SEED, str(run.OUT_ROOT / name))
        results = workload.run_pass()
        for op, result in results.items():
            errors = workloads.check(workload, op, result, result, True, None)
            if errors:
                print(f"{name} {op}: {errors}", file=sys.stderr)
                return 1
        stored[name] = results
        print(f"{name}: {len(results)} operations")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "workloads": stored}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
