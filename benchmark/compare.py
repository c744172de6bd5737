#!/usr/bin/env python3
"""Compares two result sets written by `benchmark/run.sh --out DIR`.

    compare.py A B        # A is the base (parent), B the change

A result set is a directory holding `<workload>.json` (untraced pass) and,
optionally, `<workload>.traced.json` (traced pass). One row is printed per
(metric, workload), never a combined score, with the verdict:

  improved | regressed   B is better/worse than A by more than the metric's
                         bound in BENCHMARK.json (end-to-end metrics), or
                         differs at all (deterministic metrics, which must
                         repeat bit for bit);
  unchanged              within the bound / bit-identical;
  unresolved             either side's run was too noisy for its fastest
                         sample to mean much: the first quartile of its
                         repetition times (second-fastest set-up, for
                         setup_s) is above the fastest by more than the
                         bound;
  -                      per-layer host-time metric: no bound, ratio only.

Every ratio is B/A and is printed beside its base A. Exits 1 if anything
regressed, a deterministic metric moved, a `sim_digest` differs, or an
operation failed; 0 otherwise. A claim of a gain needs more than this one
comparison: see "Claiming a gain" in README.md.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Simulated-side values: pure functions of seed and inputs, so two runs
# of one commit agree exactly and any difference is a model change.
DETERMINISTIC = {
    "asm_err_pct", "core.estimator.fst_err_pct", "core.estimator.ptca_err_pct",
    "core.estimator.mise_err_pct", "tier_err_pct", "tier_err_worst_pct",
    "sampling.ci_cover_pct", "cpu.retired_minstr", "cpu.mem_ops", "cpu.rob_stalls",
    "cache.llc_accesses", "cache.llc_misses", "cache.llc_hit_ratio", "dram.requests",
    "dram.row_hit_ratio", "dram.read_latency_cycles_p50", "core.system.exec_frac",
    "attrib.interference_share", "core.checkpoint.snapshot_kb",
}


def load(directory, workload, traced):
    path = os.path.join(directory, workload + (".traced.json" if traced else ".json"))
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_spread(doc):
    """How far one run's first quartile of repetition times sits above its
    fastest repetition (the reported value): if a quarter of the
    repetitions are not within the bound of the fastest, the host was too
    noisy for the fastest to mean much."""
    w = doc["wall_s"]
    return (w["q1"] - w["min"]) / w["min"] if w["min"] else 0.0


def setup_spread(doc):
    """The same for set-up: second-fastest sample over the fastest."""
    s = sorted(doc.get("setup_s_samples", []))
    return (s[1] - s[0]) / s[0] if len(s) >= 2 and s[0] else 0.0


def verdict(name, a, b, better, bound, spread):
    if name in DETERMINISTIC:
        if a == b:
            return "unchanged"
        return "improved" if (b < a) == (better == "lower") else "regressed"
    if bound is None:
        return "-"
    if a == 0:
        return "unresolved"
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    dir_a, dir_b = sys.argv[1], sys.argv[2]
    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in contract["workloads"]]
    failed = []
    rows = []

    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        docs = {w: (load(dir_a, w, traced), load(dir_b, w, traced)) for w in workloads}
        docs = {w: ab for w, ab in docs.items() if ab[0] and ab[1]}
        for w, (a, b) in docs.items():
            label = f"{w}{' (traced)' if traced else ''}"
            for side, doc in (("A", a), ("B", b)):
                if doc["ops_failed"] or not doc["correct"]:
                    failed.append(f"{label}: {doc['ops_failed']} operations failed in {side}")
            if a["seed"] != b["seed"]:
                failed.append(f"{label}: seeds differ ({a['seed']} vs {b['seed']}); digests and counts cannot be compared")
            same = a["sim_digest"] == b["sim_digest"]
            rows.append(("sim_digest", label, a["sim_digest"], b["sim_digest"], "", "unchanged" if same else "CHANGED"))
            if not same:
                failed.append(f"{label}: sim_digest {a['sim_digest']} -> {b['sim_digest']}: a simulated statistic moved")
        for m in contract[key]:
            name = m["name"]
            for w, (a, b) in docs.items():
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if traced and va == 0 and vb == 0:
                    continue  # layer not exercised by this workload
                spread = max(setup_spread(a), setup_spread(b)) if name == "setup_s" else max(run_spread(a), run_spread(b))
                v = verdict(name, va, vb, m["better"], m.get("bound"), spread)
                ratio = f"{vb / va:.4f}x of {va:.6g}" if va else "base is 0"
                rows.append((name, w, f"{va:.6g}", f"{vb:.6g}", ratio, v))
                if v == "regressed" or (name in DETERMINISTIC and v != "unchanged"):
                    failed.append(f"{name} on {w}: {va:.6g} -> {vb:.6g} ({v})")

    if not rows:
        sys.exit(f"no workload has results in both {dir_a} and {dir_b}")
    print(f"{'metric':<36} {'workload':<24} {'A':>18} {'B':>18}  {'B/A of base':<26} verdict")
    for name, w, va, vb, ratio, v in rows:
        print(f"{name:<36} {w:<24} {va:>18} {vb:>18}  {ratio:<26} {v}")
    for f in failed:
        print("FAIL:", f)
    print(f"{len(rows)} rows, {len(failed)} failures")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
