#!/usr/bin/env bash
# Builds and runs the repository's benchmark (benchmark/README.md).
#
#   benchmark/run.sh [--workload W|all] [--seed S] [--seconds N]
#                    [--trace 0|1 | --traced] [--out DIR] [--selftest]
#
# One process per workload, so peak memory is per workload. Every metric
# is printed as `name value unit`; the last line of each workload's
# output is one JSON object {correct, attempted, failed, metrics}. Exits
# non-zero if the build fails or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/asm_perf/Cargo.toml"

# Build products and run artefacts stay inside the checkout.
target="${CARGO_TARGET_DIR:-$(dirname "$here")/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

workload=all seed=42 seconds=5 trace=0 out="$target/asm_perf_out" selftest=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --out) out="$2"; shift 2 ;;
        --selftest) selftest=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The root workspace's tier-1 build never compiles this package (it is a
# workspace of its own), so build it explicitly. Cargo reports on stderr;
# stdout stays the benchmark's.
cargo build --release --offline --manifest-path "$manifest" >&2
bin="$target/release/asm_perf"

if [ "$selftest" = 1 ]; then
    cargo test --release --offline --manifest-path "$manifest" >&2
    python3 "$here/check_contract.py" "$(dirname "$here")/BENCHMARK.json" "$bin"
    exit
fi

if [ "$workload" = all ]; then
    workloads="$("$bin" --list-workloads | cut -f1)"
else
    workloads="$workload"
fi
status=0
for w in $workloads; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" || status=$?
done
exit "$status"
