#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are, the way the driver
does: run every workload once per seed, and take for each metric the
distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median.

    spread.py [--seeds 1,2,...,10] [--workload W] [--out FILE]

Prints one row per (workload, metric) with the spread beside the bound
from BENCHMARK.json, and flags spreads above a third of the bound. Run it
from the repository root; it calls benchmark/run.sh.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--workload", default="all")
    ap.add_argument("--out")
    args = ap.parse_args()

    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {"seeds": seeds, "run_seconds": contract["run_seconds"], "workloads": {}}
    worst = 0.0
    print(f"{'workload':<15} {'metric':<18} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for w in workloads:
        samples = [run_once(w, s, contract["run_seconds"]) for s in seeds]
        report["workloads"][w] = {}
        for name, bound in bounds.items():
            values = [s[name] for s in samples]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report["workloads"][w][name] = {
                "values": values, "q1": q1, "median": med, "q3": q3, "spread": spread, "bound": bound,
            }
            steady = name == "setup_s" or spread <= bound / 3
            worst = max(worst, 0.0 if name == "setup_s" else spread / bound)
            flag = "" if steady else "  <-- above a third of the bound"
            print(f"{w:<15} {name:<18} {med:>14.6g} {spread:>11.4f} {bound:>6.2f}{flag}")
    print(f"worst spread/bound (setup_s excepted): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
