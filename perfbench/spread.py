"""Run the benchmark over several seeds and report each metric's median and spread.

Run from the root of a source checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1]

For every workload it runs ``run.py`` once per seed, one run at a time, and
prints per end-to-end metric (or per-layer metric with ``--trace 1``) the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread: the distance between the quartiles as a share of the median.  With
``--out PATH`` the per-run results are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="'lo-hi' or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save every run's result here as JSON")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    runs = {}
    status = 0
    for workload in workloads:
        results = []
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            results.append(result)
            if not result["correct"]:
                status = 1
            shown = "" if args.trace else " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        runs[workload] = results
        if len(results) < 2:
            continue
        print(f"== {workload}: {len(results)} runs")
        for m in metric_spec:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                verdict = ("over bound" if spread > bound
                           else "over a third of bound" if spread > bound / 3 else "ok")
                flag = f"  bound {bound}: {verdict}"
            print(f"  {m['name']:40s} median {median:.6g} {m['unit']:6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{flag}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
