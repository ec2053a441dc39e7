"""Capture the reference values that ``run.py`` checks outputs against.

Run from the root of a source checkout, at the commit whose outputs are the
reference:

    python3 perfbench/capture_reference.py [--workload NAME ...]

It runs every distinct invocation the workload can make (all data seeds
0 .. DATA_SEEDS-1) once, checks the seed-independent invariants, and stores
the checked values in ``perfbench/reference.json`` as
``{label: {data_seed: values}}``, merged into the entries already there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import _child_env, run_pass
from workloads import DATA_SEEDS, OUT_ROOT, REFERENCE_PATH, WORKLOADS, invocations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    log_dir = os.path.join(OUT_ROOT, "log", "capture")
    os.makedirs(log_dir, exist_ok=True)
    env = _child_env()
    for workload in args.workload or sorted(WORKLOADS):
        distinct = {}
        for seed in range(DATA_SEEDS):
            for inv in invocations(workload, seed):
                distinct.setdefault(inv.name, inv)
        invs = list(distinct.values())
        result = run_pass(invs, env, None, {}, log_dir)
        for inv, outcome in zip(invs, result["outcomes"]):
            if outcome.error is not None:
                print(f"{workload} {inv.name}: {outcome.error}", file=sys.stderr)
                return 1
            reference.setdefault(inv.label, {})[str(inv.data_seed)] = outcome.values
        print(f"{workload}: {len(invs)} invocations, wall {result['wall_s']:.1f} s", flush=True)
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
