//! CLI entry point: regenerates the paper's tables and figures.

use asm_experiments::{exps, Scale, Tier};

/// The usage text. Its EXPERIMENTS block and both "supported by" lists
/// are rows and columns of [`exps::TABLE`].
fn usage() -> String {
    let experiments: String = exps::TABLE
        .iter()
        .map(|e| format!("    {:<9} {}\n", e.name, e.about))
        .collect();
    let (analytic, sampled) = (exps::supporting(Tier::Analytic), exps::supporting(Tier::Sampled));
    format!(
        "\
asm-experiments — regenerate the ASM paper's evaluation

USAGE:
    asm-experiments <experiment> [options]

EXPERIMENTS:
{experiments}
OPTIONS:
    --full           paper scale (100 workloads, 100M cycles, Q=5M) — hours
    --tiny           smoke-test scale — seconds
    --workloads N    override workload count
    --cycles N       override cycles per run
    --seed N         override master seed
    --jobs N         worker threads for sweeps (default: one per core;
                     affects scheduling only — output is byte-identical
                     for any value)
    --no-skip        disable the deterministic fast-forward and simulate
                     every cycle (slower; output is byte-identical —
                     this flag exists for benchmarking and differential
                     testing, see DESIGN.md §8)
    --tier T         simulation tier: `cycle` (event-driven, default),
                     `analytic` (reuse-distance model, ~1000x faster;
                     supported by: {analytic} — see DESIGN.md §10), or
                     `sampled` (representative-interval sampling with
                     confidence intervals, 10x+ faster sweeps; supported
                     by: {sampled} — DESIGN.md §12)
    --sample-intervals K  representative intervals simulated per run on
                     the sampled tier (default 4; 2 at --tiny)
    --sample-quanta L  quanta per sampling interval on the sampled tier
                     (default 1; cycles must divide into Q*L intervals)
    --alone-cache F  persist alone-run profiles in F and reuse them on
                     later invocations with the same scale (stale or
                     corrupt entries are ignored with a warning)
    --profile-cache F  persist analytic-tier reuse profiles in F (stale
                     or corrupt entries are re-extracted with a warning)
    --checkpoint-dir D  persist campaign warmup snapshots and finished-run
                     manifests under D (written atomically; kill-safe).
                     Stale or damaged artefacts are ignored with a
                     warning — output never depends on checkpoint state
    --resume         replay finished runs from D's manifests instead of
                     simulating them (byte-identical); requires
                     --checkpoint-dir
    --csv DIR        additionally write every table to DIR/<name>.csv

TELEMETRY (any of these instruments every simulated run; artefacts are
byte-identical for any --jobs value):
    --stats-json F   write a merged counter/series/latency snapshot of
                     every workload to F (schema \"asm-telemetry v1\")
    --trace F        write a Chrome trace-event JSON of the first
                     workload to F (open in Perfetto / chrome://tracing)
    --series-csv D   write per-workload time-series CSVs
                     (series,cycle,value) to D
    --series-summary print a sparkline summary of every per-quantum
                     series after the tables

ATTRIBUTION (any of these enables the conservation-checked cycle ledger
of DESIGN.md §13 on every simulated run; tables stay byte-identical):
    --attrib         print each workload's per-app stall decomposition
                     and app×app blame matrix after the tables
    --attrib-csv F   write the per-quantum ledger to F
                     (workload,quantum_end,app,component,cycles)
    --blame-json F   write per-workload blame matrices and component
                     totals to F (schema \"asm-attrib v1\")
"
    )
}

/// Every usage error: one `error:` line on stderr, exit status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(experiment) = args.first().filter(|a| !a.starts_with("--")) else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let Some(experiment) = exps::find(experiment) else {
        usage_error(&format!("unknown experiment '{experiment}'\n{}", usage()));
    };

    let mut scale = Scale::reduced();
    let mut no_skip = false;
    let mut tier = None;
    let mut sink_cfg = asm_experiments::sink::SinkConfig::default();
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::full(),
            "--tiny" => scale = Scale::tiny(),
            "--no-skip" => no_skip = true,
            "--series-summary" => sink_cfg.series_summary = true,
            "--attrib" => sink_cfg.attrib = true,
            "--stats-json" | "--trace" | "--series-csv" | "--attrib-csv" | "--blame-json" => {
                let Some(path) = args.get(i + 1) else {
                    usage_error(&format!("{} needs a path", args[i]));
                };
                match args[i].as_str() {
                    "--stats-json" => sink_cfg.stats_json = Some(path.into()),
                    "--trace" => sink_cfg.trace = Some(path.into()),
                    "--attrib-csv" => sink_cfg.attrib_csv = Some(path.into()),
                    "--blame-json" => sink_cfg.blame_json = Some(path.into()),
                    _ => sink_cfg.series_csv = Some(path.into()),
                }
                i += 1;
            }
            "--tier" => {
                let Some(t) = args.get(i + 1).and_then(|v| Tier::parse(v)) else {
                    usage_error("--tier needs `cycle`, `analytic`, or `sampled`");
                };
                // Applied after the loop: `--full`/`--tiny` replace the
                // whole Scale and must not wipe an earlier `--tier`.
                tier = Some(t);
                i += 1;
            }
            "--alone-cache" => {
                let Some(path) = args.get(i + 1) else {
                    usage_error("--alone-cache needs a file path");
                };
                asm_experiments::collect::set_alone_cache_path(path.into());
                i += 1;
            }
            "--profile-cache" => {
                let Some(path) = args.get(i + 1) else {
                    usage_error("--profile-cache needs a file path");
                };
                asm_experiments::analytic::set_profile_cache_path(path.into());
                i += 1;
            }
            "--checkpoint-dir" => {
                let Some(dir) = args.get(i + 1) else {
                    usage_error("--checkpoint-dir needs a directory");
                };
                checkpoint_dir = Some(dir.into());
                i += 1;
            }
            "--resume" => resume = true,
            "--csv" => {
                let Some(dir) = args.get(i + 1) else {
                    usage_error("--csv needs a directory");
                };
                asm_experiments::output::set_csv_dir(dir.into());
                i += 1;
            }
            "--workloads" | "--cycles" | "--seed" | "--jobs" | "--sample-intervals"
            | "--sample-quanta" => {
                let Some(value) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    usage_error(&format!("{} needs a numeric value", args[i]));
                };
                match args[i].as_str() {
                    "--workloads" => scale.workloads = value as usize,
                    "--cycles" => scale.cycles = value,
                    "--jobs" => scale.jobs = (value as usize).max(1),
                    "--sample-intervals" => scale.sample_intervals = (value as usize).max(1),
                    "--sample-quanta" => scale.sample_quanta = value.max(1),
                    _ => scale.seed = value,
                }
                i += 1;
            }
            other => {
                usage_error(&format!("unknown option {other}\n{}", usage()));
            }
        }
        i += 1;
    }
    if no_skip {
        scale.skip = false;
    }
    if let Some(tier) = tier {
        scale.tier = tier;
    }
    if !experiment.tiers.contains(&scale.tier) {
        usage_error(&format!(
            "experiment '{}' does not support --tier {} (supported: {})",
            experiment.name,
            scale.tier.name(),
            exps::supporting(scale.tier)
        ));
    }
    // Degenerate scales would print header-only tables and exit 0.
    if scale.workloads == 0 {
        usage_error("--workloads must be at least 1");
    }
    let shortest = scale.quantum * (scale.warmup_quanta as u64 + 1);
    if scale.cycles < shortest {
        usage_error(&format!(
            "--cycles {} leaves no measured quantum: need at least \
             Q x (warmup quanta + 1) = {} x {} = {shortest}",
            scale.cycles,
            scale.quantum,
            scale.warmup_quanta + 1
        ));
    }
    if scale.tier == Tier::Sampled {
        let interval = scale.quantum * scale.sample_quanta;
        if interval == 0 || !scale.cycles.is_multiple_of(interval) {
            usage_error(&format!(
                "--tier sampled needs cycles ({}) to be a multiple of quantum*L ({} * {})",
                scale.cycles, scale.quantum, scale.sample_quanta
            ));
        }
    }
    asm_experiments::sink::configure(sink_cfg);
    match checkpoint_dir {
        Some(dir) => asm_experiments::plan::set_checkpoint_dir(dir, resume),
        None if resume => usage_error("--resume requires --checkpoint-dir"),
        None => {}
    }

    if scale.tier == Tier::Analytic {
        println!("tier: analytic (reuse-distance model, no cycle loop)");
    }
    if scale.tier == Tier::Sampled {
        println!(
            "tier: sampled ({} intervals x {} quanta, 95% CIs)",
            scale.sample_intervals, scale.sample_quanta
        );
    }
    println!(
        "scale: {} workloads x {} cycles (Q={}, E={}, warmup {} quanta, seed {})",
        scale.workloads, scale.cycles, scale.quantum, scale.epoch, scale.warmup_quanta, scale.seed
    );
    // Schedule-only state goes to stderr: stdout (tables) must stay
    // byte-identical across --jobs values and across --no-skip.
    eprintln!(
        "jobs: {}{}",
        scale.jobs,
        if scale.skip { "" } else { ", fast-forward off" }
    );
    (experiment.run)(scale);
    asm_experiments::sink::finalize();
    asm_experiments::collect::save_alone_cache();
    asm_experiments::analytic::save_profile_cache();
}
