"""Repeat benchmark runs over several seeds and summarise their spread.

Run from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--out FILE]

Each end-to-end run is ``perfbench/run.py --trace 0`` with another seed,
as the acceptance check runs it; then one traced run per workload follows
(first seed).  For every end-to-end metric the summary gives the median,
the quartiles and their distance as a share of the median (the spread),
next to the metric's bound from BENCHMARK.json.  ``--out`` writes the
summary, the environment and every run as JSON (``BENCH_baseline.json``
is this output at the commit the references were recorded at).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(bench.OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    line["environment"] = record["record"]["environment"]
    line["all_metrics"] = record["metrics"]
    line["notes"] = record["notes"]
    line["units"] = record["units"]
    return line


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(bench.SPEC) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items())
                + f", failed {runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        entry = {"environment": runs[0]["environment"], "end_to_end": {}, "runs": runs}
        for name, value in runs[0]["all_metrics"].items():
            values = [r["all_metrics"][name] for r in runs]
            if not all(values):
                continue
            stats = spread(values)
            stats.update(bound=bounds.get(name), unit=runs[0]["units"][name])
            entry["end_to_end"][name] = stats
            flag = ("" if name not in bounds or stats["spread"] < bounds[name] / 3
                    else "  <-- spread not below bound/3")
            print(f"  {name:18s} median {stats['median']:.4g}  spread {stats['spread']:.3f}"
                  f"  bound {bounds.get(name, '-')}{flag}", flush=True)
        entry["failed_ratio_per_run"] = [r["all_metrics"]["failed_ratio"] for r in runs]
        traced = one_run(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = traced["all_metrics"]
        entry["traced_seed"] = args.seeds[0]
        summary["workloads"][workload] = entry
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
