#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark contract's limits and
against the catalogue compiled into the asm_perf binary.

    check_contract.py BENCHMARK.json path/to/asm_perf

Run by `benchmark/run.sh --selftest`. Exits 1 listing every violation.
"""
import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(doc, errors):
    def err(msg):
        errors.append(msg)

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        err(f"top-level keys are {sorted(doc)}, expected {sorted(keys)}")
        return
    cmd = doc["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        err("command: 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        err("command: no absolute path and no '..'")
    paths = doc["paths"]
    if not (1 <= len(paths) <= 16 and all(PATH.match(p) for p in paths)):
        err("paths: 1..16 relative directory names")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        err("run_seconds: whole number in 1..60")
    for key, lo, hi, fields in (
        ("workloads", 2, 8, {"name", "why"}),
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        items = doc[key]
        if not lo <= len(items) <= hi:
            err(f"{key}: {len(items)} entries, allowed {lo}..{hi}")
        for it in items:
            if set(it) != fields:
                err(f"{key}: entry {it.get('name')!r} has keys {sorted(it)}")
                continue
            if not NAME.match(it["name"]):
                err(f"{key}: bad name {it['name']!r}")
            if "why" in it and (len(it["why"]) > 200 or "\n" in it["why"]):
                err(f"{key}: why of {it['name']} is not one line of <= 200 characters")
            if "unit" in it and not UNIT.match(it["unit"]):
                err(f"{key}: bad unit {it['unit']!r} on {it['name']}")
            if "better" in it and it["better"] not in ("lower", "higher"):
                err(f"{key}: better of {it['name']} is {it['better']!r}")
            if "bound" in it and not 0 < it["bound"] <= 0.25:
                err(f"{key}: bound of {it['name']} outside (0, 0.25]")
    names = [it["name"] for k in ("workloads", "end_to_end", "per_layer") for it in doc[k]]
    for n in sorted({n for n in names if names.count(n) > 1}):
        err(f"name {n!r} is used more than once")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        err("end_to_end must hold setup_s with unit s and better lower")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        err("setup_s should carry the largest bound")


def main():
    path, binary = sys.argv[1], sys.argv[2]
    raw = open(path, "rb").read()
    errors = []
    if len(raw) > 64 * 1024:
        errors.append("BENCHMARK.json is larger than 64 KiB")
    doc = json.loads(raw)
    check(doc, errors)

    def lines(flag):
        return subprocess.check_output([binary, flag], text=True).splitlines()

    compiled = [tuple(l.split("\t")) for l in lines("--list-workloads")]
    declared = [(w["name"], w["why"]) for w in doc.get("workloads", [])]
    if compiled != declared:
        errors.append(f"workloads differ from the binary's: {compiled} vs {declared}")
    compiled = [tuple(l.split()) for l in lines("--list-metrics")]
    declared = [
        (kind, m["name"], m["unit"], m["better"])
        for kind in ("end_to_end", "per_layer")
        for m in doc.get(kind, [])
    ]
    for row in sorted(set(compiled) ^ set(declared)):
        side = "binary only" if row in compiled else "BENCHMARK.json only"
        errors.append(f"metric {row} ({side})")
    if errors:
        print("\n".join("check_contract: " + e for e in errors))
        sys.exit(1)
    n = len(doc["workloads"])
    print(
        f"check_contract: ok - {n} workloads, {len(doc['end_to_end'])} end-to-end and "
        f"{len(doc['per_layer'])} per-layer metrics; driver makes {4 + 22 * n} runs"
    )


if __name__ == "__main__":
    main()
