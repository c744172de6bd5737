#!/usr/bin/env bash
# The tier-1 verification chain, in one place instead of three shell
# histories:
#
#   1. cargo build --release --all-targets   (every crate, test, example:
#                                             `default-members` is the
#                                             whole workspace)
#   2. cargo test -q                         (unit + integration + doc, of
#                                             every package — all the
#                                             equivalence proptests and CLI
#                                             differentials included)
#   3. cargo run -p asm-lint --release       (the determinism-policy gate:
#                                             asm-lint's own rule, R9's
#                                             allocation leg, then `cargo
#                                             clippy --offline --lib
#                                             --bins` over the eleven
#                                             simulation crates with the
#                                             clippy-owned policy lints
#                                             denied — R9's panic and I/O
#                                             legs among them; ≈ +11 s
#                                             cold, ≈ 1 s warm; exit 1 on
#                                             any violation in either
#                                             half, stale allow/#[expect]
#                                             included. The measured half
#                                             of R9's allocation leg is
#                                             leg 2's hot_path_allocs and
#                                             solver_allocs counts)
#   4. asm-experiments accuracy --tiny       (cross-tier smoke: ASM and
#                                             the analytic and sampled
#                                             tiers against the cycle tier
#                                             on the 7-mix smoke sweep,
#                                             and the cliff localization;
#                                             its stdout must equal the
#                                             checked-in
#                                             results_accuracy_tiny.txt
#                                             byte for byte; the full
#                                             38-config gate lives in
#                                             tests/analytic_gate.rs)
#   5. checkpoint resume smoke               (kill a checkpointed fig11
#                                             campaign mid-flight, resume
#                                             it, and byte-compare against
#                                             a cold run; then replay the
#                                             finished campaign from its
#                                             manifests and compare again;
#                                             then the same on `all --tiny`
#                                             — every Runner-driven
#                                             experiment is a campaign —
#                                             whose cold run must simulate
#                                             exactly 589 alone runs, whose
#                                             replay must simulate no
#                                             member of any campaign,
#                                             and whose second pass after
#                                             that without --resume must
#                                             simulate no alone run; the
#                                             cold run's stdout must equal
#                                             the checked-in
#                                             results_tiny.txt byte for
#                                             byte)
#   6. run-report leg                        (the ledger's conservation
#                                             proptest runs in step 2;
#                                             here: --report is observation-
#                                             only — `all` stdout with it
#                                             equals leg 5's cold run; the
#                                             report is byte-identical
#                                             across --jobs 1 and 4; and a
#                                             checkpointed report campaign
#                                             forks the warm-up an earlier
#                                             one saved, one quantum-run
#                                             fewer, and still matches a
#                                             cold report run byte for
#                                             byte)
#   7. benchmark leg                         (tier-1 never compiles
#                                             benchmark/asm_perf, which is a
#                                             workspace of its own linking
#                                             the sim crates by path: its
#                                             selftest, then one short run
#                                             of every workload BENCHMARK.json
#                                             names, whose self-checks must
#                                             all pass — skip≡no-skip digests
#                                             (`mem_*`, `compute`), ledger
#                                             conservation and observers-on ≡
#                                             off (`hetero_full`), campaign
#                                             members {0,17,37} against cold
#                                             runs (`policy_sweep`), and the
#                                             sampled and analytic tiers'
#                                             session-less entry points)
#   8. examples                              (the seven `examples/` binaries
#                                             leg 1 built are the library-
#                                             caller surface: each must run
#                                             to exit 0)
#
# Usage:
#   scripts/ci.sh                 # tier-1 only (~minutes)
#   CI_FULL=1 scripts/ci.sh       # also runs `accuracy` at the default
#                                 # scale (15 workloads, 8M cycles); a FAIL
#                                 # verdict, or a missing PASS, fails CI;
#                                 # and runs `all --jobs 2` at the default
#                                 # scale (~3 min on 2 cores), whose stdout
#                                 # must equal results_default.txt
#
# The three golden files are the byte-identity contract of every change
# that does not mean to move a result:
#   target/release/asm-experiments all --tiny > results_tiny.txt
#   target/release/asm-experiments all --jobs 2 > results_default.txt
#   target/release/asm-experiments accuracy --tiny > results_accuracy_tiny.txt
# regenerate them only in a change that fixes or alters the simulated
# model (or, for the last, a tier's model or the accuracy report), and
# state the cause in that change's notes (ROADMAP item 2).
#
# Host-speed numbers are not part of this chain: `benchmark/run.sh` and
# its paired protocol (benchmark/README.md) are the one way to take them.
set -euo pipefail

cd "$(dirname "$0")/.."

for arg in "$@"; do
    case "$arg" in
        -h|--help)
            awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"
            exit 0
            ;;
        *)
            echo "ci: unknown argument '$arg' (try --help)" >&2
            exit 2
            ;;
    esac
done

echo "ci: [1/8] cargo build --release --all-targets" >&2
cargo build --release --all-targets

echo "ci: [2/8] cargo test -q" >&2
cargo test -q

echo "ci: [3/8] cargo run -p asm-lint --release" >&2
cargo run -p asm-lint --release

EXP=target/release/asm-experiments
echo "ci: [4/8] asm-experiments accuracy --tiny (cross-tier smoke)" >&2
"$EXP" accuracy --tiny | cmp results_accuracy_tiny.txt - || {
    echo "ci: FAIL — \`accuracy --tiny\` stdout differs from results_accuracy_tiny.txt" >&2
    exit 1
}

# CI_FULL=1 promotes the smoke to the enforced cross-tier verdicts at the
# default scale (15 workloads, 8M cycles): the analytic sweep geomean
# (threshold 10%) and the starvation-cliff localization (threshold 80%)
# each print one PASS/FAIL line. A FAIL, a missing PASS or a non-zero
# exit fails the chain. Opt-in because the sweep's cycle-accurate side
# needs a quiet minute or two.
if [[ "${CI_FULL:-0}" == "1" ]]; then
    echo "ci: [4/8] CI_FULL=1 — enforced cross-tier verdicts (accuracy, default scale)" >&2
    ACC_OUT="$("$EXP" accuracy)" || {
        echo "ci: FAIL — accuracy exited $?" >&2
        exit 1
    }
    printf '%s\n' "$ACC_OUT"
    if grep -q 'FAIL$' <<<"$ACC_OUT"; then
        echo "ci: FAIL — an accuracy verdict failed" >&2
        exit 1
    fi
    for verdict in '^gate: .* PASS$' '^localization: .* PASS$'; do
        grep -q "$verdict" <<<"$ACC_OUT" || {
            echo "ci: FAIL — accuracy printed no '$verdict' line" >&2
            exit 1
        }
    done
    echo "ci: [4/8] CI_FULL=1 — \`all\` at the default scale against results_default.txt" >&2
    "$EXP" all --jobs 2 2>/dev/null | cmp results_default.txt - || {
        echo "ci: FAIL — default-scale \`all\` stdout differs from results_default.txt" >&2
        exit 1
    }
fi

echo "ci: [5/8] checkpoint resume smoke (kill mid-campaign, resume, byte-compare)" >&2
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
"$EXP" fig11 > "$SMOKE/cold.txt" 2>/dev/null
# Kill the checkpointed campaign mid-flight (SIGKILL: no graceful
# shutdown — atomic artefact writes are the only durability mechanism).
# Wherever the kill lands — before the warmup snapshot, between
# manifests, or after the table printed — the resumed run must emit
# byte-identical stdout; `|| true` also covers the campaign finishing
# early on a fast machine.
timeout -s KILL 1.5 "$EXP" fig11 --checkpoint-dir "$SMOKE/ckpt" >/dev/null 2>&1 || true
"$EXP" fig11 --checkpoint-dir "$SMOKE/ckpt" --resume > "$SMOKE/resumed.txt" 2>/dev/null
cmp "$SMOKE/cold.txt" "$SMOKE/resumed.txt" || {
    echo "ci: FAIL — resumed campaign stdout differs from the cold run" >&2
    exit 1
}
# Second resume: every manifest now exists, so the whole campaign replays
# from disk without simulating a cycle — and must still match.
"$EXP" fig11 --checkpoint-dir "$SMOKE/ckpt" --resume > "$SMOKE/replayed.txt" 2>/dev/null
cmp "$SMOKE/cold.txt" "$SMOKE/replayed.txt" || {
    echo "ci: FAIL — manifest-replayed campaign stdout differs from the cold run" >&2
    exit 1
}
# The same on the whole suite: wherever in `all` the kill lands, in any of
# its 22 campaigns, the resumed run must match the cold one (which leg 6
# reuses).
"$EXP" all --tiny > "$SMOKE/all_off.txt" 2> "$SMOKE/all_off.err"
cmp results_tiny.txt "$SMOKE/all_off.txt" || {
    echo "ci: FAIL — \`all --tiny\` stdout differs from results_tiny.txt" >&2
    exit 1
}
# The cold run simulates exactly this many alone runs: one per
# application, slot, horizon and alone machine (`checkpoint::alone_config`).
# A key that widens again (a field the projection should drop) or a
# projection that drops a field it must keep moves this count.
ALONE_RUNS=589
awk -v want="$ALONE_RUNS" '/^campaign:/ { n++; split($NF, kv, "="); sum += kv[2] }
     END { exit !(n == 22 && sum == want) }' "$SMOKE/all_off.err" || {
    echo "ci: FAIL — cold \`all --tiny\` did not simulate exactly $ALONE_RUNS alone runs over 22 campaigns:" >&2
    grep '^campaign:' "$SMOKE/all_off.err" >&2
    exit 1
}
timeout -s KILL 4 "$EXP" all --tiny --checkpoint-dir "$SMOKE/all_ckpt" >/dev/null 2>&1 || true
"$EXP" all --tiny --checkpoint-dir "$SMOKE/all_ckpt" --resume > "$SMOKE/all_resumed.txt" 2>/dev/null
cmp "$SMOKE/all_off.txt" "$SMOKE/all_resumed.txt" || {
    echo "ci: FAIL — resumed \`all\` stdout differs from the cold run" >&2
    exit 1
}
# Second resume: nothing is left to simulate but fig1 (raw co-runs, no
# Runner) — every campaign line must read replayed == members.
"$EXP" all --tiny --checkpoint-dir "$SMOKE/all_ckpt" --resume \
    > "$SMOKE/all_replayed.txt" 2> "$SMOKE/all_replayed.err"
cmp "$SMOKE/all_off.txt" "$SMOKE/all_replayed.txt" || {
    echo "ci: FAIL — manifest-replayed \`all\` stdout differs from the cold run" >&2
    exit 1
}
awk '/^campaign:/ { n++; sub("members=", "replayed=", $3); if ($3 != $4 || $5 != "quantum_runs=0") bad++ }
     END { exit !(n > 0 && bad == 0) }' "$SMOKE/all_replayed.err" || {
    echo "ci: FAIL — a replayed \`all\` campaign still simulated members:" >&2
    grep '^campaign:' "$SMOKE/all_replayed.err" >&2
    exit 1
}
# Without --resume every member is simulated again, on the alone runs of
# the directory's alone store. That store lacks the members the resumed
# passes replayed from manifests (the killed pass, which simulated them,
# saved no store), so the first such pass completes it and the second
# must read alone_runs=0 on every campaign line; both must match cold.
for _ in 1 2; do
    "$EXP" all --tiny --checkpoint-dir "$SMOKE/all_ckpt" \
        > "$SMOKE/all_rerun.txt" 2> "$SMOKE/all_rerun.err"
    cmp "$SMOKE/all_off.txt" "$SMOKE/all_rerun.txt" || {
        echo "ci: FAIL — a checkpointed \`all\` without --resume differs from the cold run" >&2
        exit 1
    }
done
awk '/^campaign:/ { n++; if ($NF != "alone_runs=0") bad++ }
     END { exit !(n > 0 && bad == 0) }' "$SMOKE/all_rerun.err" || {
    echo "ci: FAIL — a second checkpointed \`all\` simulated alone runs:" >&2
    grep '^campaign:' "$SMOKE/all_rerun.err" >&2
    exit 1
}

echo "ci: [6/8] run-report leg (on-vs-off, --jobs differential, warm-up fork)" >&2
# The report is observation-only: requesting it must not change a single
# stdout byte, on any experiment (cold reference: leg 5's all_off.txt).
"$EXP" all --tiny --report "$SMOKE/all_report.json" > "$SMOKE/all_on.txt" 2>/dev/null
cmp "$SMOKE/all_off.txt" "$SMOKE/all_on.txt" || {
    echo "ci: FAIL — --report changed experiment stdout" >&2
    exit 1
}
[[ -s "$SMOKE/all_report.json" ]] || {
    echo "ci: FAIL — the run report was not written" >&2
    exit 1
}
# And the report is deterministic across worker counts.
for j in 1 4; do
    "$EXP" fig11 --tiny --jobs "$j" --report "$SMOKE/report_j$j.json" >/dev/null 2>&1
done
cmp "$SMOKE/report_j1.json" "$SMOKE/report_j4.json" || {
    echo "ci: FAIL — the run report differs between --jobs 1 and --jobs 4" >&2
    exit 1
}

# A report run keeps the ledger, which is part of the warm-up key, so a
# report campaign forks the warm-up snapshot an earlier report campaign
# saved (one file, one quantum-run fewer) and its stdout and report equal
# a cold report run's. (Telemetry alone is not in the key: the library
# test an_instrumented_run_forks_an_uninstrumented_warmup_bitwise pins
# that an instrumented run forks a plain warm-up.)
"$EXP" fig11 --tiny --checkpoint-dir "$SMOKE/report_ckpt" --report "$SMOKE/report_first.json" >/dev/null 2>&1
"$EXP" fig11 --tiny --checkpoint-dir "$SMOKE/report_ckpt" --report "$SMOKE/report_fork.json" \
    > "$SMOKE/report_fork.txt" 2> "$SMOKE/report_fork.err"
"$EXP" fig11 --tiny --report "$SMOKE/report_cold.json" \
    > "$SMOKE/report_cold.txt" 2> "$SMOKE/report_cold.err"
cmp "$SMOKE/report_fork.txt" "$SMOKE/report_cold.txt" \
    && cmp "$SMOKE/report_fork.json" "$SMOKE/report_cold.json" || {
    echo "ci: FAIL — a report campaign forked from a saved warm-up differs from a cold one" >&2
    exit 1
}
quantum_runs() { sed -n 's/^campaign:.* quantum_runs=\([0-9]*\) .*/\1/p' "$1"; }
[[ "$(ls "$SMOKE/report_ckpt/warmups" | wc -l)" -eq 1 \
    && "$(quantum_runs "$SMOKE/report_fork.err")" -eq "$(( $(quantum_runs "$SMOKE/report_cold.err") - 1 ))" ]] || {
    echo "ci: FAIL — the report campaign did not fork the saved warm-up" >&2
    exit 1
}

echo "ci: [7/8] benchmark leg (asm_perf selftest + one short run of every BENCHMARK.json workload, failed must be 0)" >&2
benchmark/run.sh --selftest
# The last stdout line of a workload is its JSON summary; run.sh already
# exits non-zero on a failed check, the grep also catches a summary that
# went missing.
for w in $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
    benchmark/run.sh --workload "$w" --seconds 2 | tail -n1 | grep -q '"failed": 0[,}]' || {
        echo "ci: FAIL — benchmark $w run reported failed checks" >&2
        exit 1
    }
done

echo "ci: [8/8] examples (every examples/ binary runs to exit 0)" >&2
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    "target/release/examples/$ex" >/dev/null || {
        echo "ci: FAIL — example $ex exited non-zero" >&2
        exit 1
    }
done

echo "ci: all gates green" >&2
