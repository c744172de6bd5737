//! `asm_perf` — the repository's benchmark.
//!
//! One process runs one workload: set-up (untimed, reported as
//! `setup_s`), one discarded warm-up repetition, then timed repetitions
//! of the identical deterministic work for `--seconds` seconds (at least
//! three), single-threaded and closed-loop. `wall_s` is the fastest
//! repetition: the work is identical every time, so what separates
//! repetitions is host interference, which only ever adds time. The untraced pass
//! (`--trace 0`) prints the end-to-end metrics; the traced pass
//! (`--trace 1`) wraps every call into a simulator layer in a span, runs
//! the isolation kernels and subtraction variants, and prints the
//! per-layer metrics. benchmark/README.md is the catalogue.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod json;
mod layers;
mod metrics;
mod span;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Metrics, Pass};
use metrics::{Def, END_TO_END, PER_LAYER};
use span::Recorder;
use stats::{median, quartiles};
use workloads::{Ops, Workload, WORKLOADS};

/// Set-ups per untraced run (fastest reported): set-up time is a metric
/// with a bound of its own, so one sample is not enough. At least
/// `SETUP_MIN_REPS`; cheap set-ups repeat up to `SETUP_MAX_REPS` times
/// while they fit in `SETUP_BUDGET_S` together.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 7;
const SETUP_BUDGET_S: f64 = 2.5;
/// Fewest timed repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: asm_perf --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
       asm_perf --list-metrics | --list-workloads";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(Args),
    ListMetrics,
    ListWorkloads,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 5.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list-metrics" => return Ok(Command::ListMetrics),
            "--list-workloads" => return Ok(Command::ListWorkloads),
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Command::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::ListMetrics) => {
            for (kind, defs) in [
                ("end_to_end", &END_TO_END[..]),
                ("per_layer", &PER_LAYER[..]),
            ] {
                for d in defs {
                    println!("{kind} {} {} {}", d.name, d.unit, d.better);
                }
            }
            ExitCode::SUCCESS
        }
        Ok(Command::ListWorkloads) => {
            for (name, why) in WORKLOADS {
                println!("{name}\t{why}");
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("asm_perf: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("asm_perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One repetition, with a panic inside the simulator counted as a
/// failed operation instead of taking the report down with it.
fn guarded_rep(wl: &mut dyn Workload, rec: &mut Recorder, ops: &mut Ops) -> Option<u64> {
    let outcome = catch_unwind(AssertUnwindSafe(|| wl.rep(rec, ops)));
    if outcome.is_err() {
        ops.check(false, || "a repetition panicked".to_owned());
    }
    outcome.ok()
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn machine_info() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    json::object(&[
        ("cpu_model", json::string(model)),
        ("logical_cpus", cpus.to_string()),
        (
            "kernel",
            json::string(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("threads_used", "1".to_owned()),
    ])
}

/// Runs the workload and prints the report; `Ok(true)` when every
/// operation and check passed.
fn run(args: &Args) -> Result<bool, String> {
    let mut rec = Recorder::new(args.trace);
    // Plain repetitions never record, traced pass included: the traced
    // pass alternates plain and spanned repetitions to price the spans.
    let mut off = Recorder::new(false);
    let mut ops = Ops::default();

    let mut setup_s = Vec::new();
    let prepared = loop {
        let t = Instant::now();
        let prepared = rec.span("setup", |rec| {
            workloads::setup(&args.workload, args.seed, rec, &mut ops)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        let spent: f64 = setup_s.iter().sum();
        let more = setup_s.len() < SETUP_MIN_REPS
            || (setup_s.len() < SETUP_MAX_REPS && spent + median(&setup_s) <= SETUP_BUDGET_S);
        // The traced pass reports no set-up time: once is enough.
        if args.trace || !more {
            break prepared;
        }
    };
    let mut wl = prepared.ok_or_else(|| format!("unknown workload {}", args.workload))?;
    wl.begin();

    let mut digests: Vec<Option<u64>> = Vec::new();
    digests.push(rec.span("warmup", |rec| guarded_rep(wl.as_mut(), rec, &mut ops)));

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain_s.len() < MIN_REPS || start.elapsed() < budget {
        let t = Instant::now();
        digests.push(guarded_rep(wl.as_mut(), &mut off, &mut ops));
        plain_s.push(t.elapsed().as_secs_f64());
        if args.trace {
            rec.set_rep(Some(traced_s.len()));
            let t = Instant::now();
            digests.push(rec.span("rep", |rec| guarded_rep(wl.as_mut(), rec, &mut ops)));
            traced_s.push(t.elapsed().as_secs_f64());
            rec.set_rep(None);
        }
    }
    let sim_digest = digests[0];
    ops.check(
        sim_digest.is_some() && digests.iter().all(|d| *d == sim_digest),
        || format!("sim_digest differs between repetitions: {digests:x?}"),
    );

    let wall = quartiles(&plain_s).ok_or("no repetition completed")?;
    let mut values: Vec<(Def, f64)> = Vec::new();
    if args.trace {
        let mut m = Metrics::default();
        // Read before the per-layer section allocates for its kernels:
        // the high-water mark so far is the workload's own.
        m.set("host.peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
        let layered = catch_unwind(AssertUnwindSafe(|| {
            let mut pass = Pass {
                rec: &mut rec,
                ops: &mut ops,
                m: &mut m,
            };
            wl.layers(&mut pass, wall.min);
        }));
        if layered.is_err() {
            ops.check(false, || "the per-layer section panicked".to_owned());
        }
        m.set(
            "trace.overhead_pct",
            100.0 * (stats::min(&traced_s) / wall.min - 1.0),
        );
        values.extend(PER_LAYER.iter().map(|d| (*d, m.get(d.name).unwrap_or(0.0))));
    } else {
        // In catalogue order (pinned by a test below).
        let measured = [
            stats::min(&setup_s),
            wall.min,
            wl.cycles_per_rep() as f64 / 1e6 / wall.min,
            wl.runs_per_rep() as f64 / wall.min,
        ];
        values.extend(END_TO_END.iter().copied().zip(measured));
    }
    for (d, v) in &values {
        ops.check(v.is_finite(), || format!("{} measured as {v}", d.name));
    }
    let correct = ops.failed == 0;

    // The report: one `name value unit` line per metric, then context.
    let digest_hex = sim_digest.map_or("none".to_owned(), |d| format!("{d:016x}"));
    println!(
        "# asm_perf workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host time, one thread, closed loop; modelled caches start empty and statistics include the fill");
    println!("# the cycle tier has no hardware reference here: it is unvalidated, and only the cheaper tiers get an error figure (against it)");
    for (d, v) in &values {
        println!("{} {} {}", d.name, json::number(*v), d.unit);
    }
    println!("wall_s.n {} count", wall.n);
    println!("wall_s.q1 {} s", json::number(wall.q1));
    println!("wall_s.median {} s", json::number(wall.median));
    println!("wall_s.q3 {} s", json::number(wall.q3));
    println!("wall_s.max {} s", json::number(wall.max));
    println!("sim_digest {digest_hex} fnv64");
    println!("ops_attempted {} count", ops.attempted);
    println!("ops_failed {} count", ops.failed);
    for f in &ops.failures {
        println!("# FAILED: {f}");
    }

    let metrics_json = {
        let fields: Vec<(&str, String)> = values
            .iter()
            .map(|(d, v)| {
                let value =
                    json::object(&[("value", json::number(*v)), ("unit", json::string(d.unit))]);
                (d.name, value)
            })
            .collect();
        json::object(&fields)
    };

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let suffix = if args.trace { ".traced" } else { "" };
        let doc = json::object(&[
            ("workload", json::string(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", json::number(args.seconds)),
            ("trace", args.trace.to_string()),
            ("correct", correct.to_string()),
            ("ops_attempted", ops.attempted.to_string()),
            ("ops_failed", ops.failed.to_string()),
            (
                "failures",
                json::array(
                    &ops.failures
                        .iter()
                        .map(|f| json::string(f))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("sim_digest", json::string(&digest_hex)),
            (
                "wall_s",
                json::object(&[
                    ("n", wall.n.to_string()),
                    ("min", json::number(wall.min)),
                    ("q1", json::number(wall.q1)),
                    ("median", json::number(wall.median)),
                    ("q3", json::number(wall.q3)),
                    ("max", json::number(wall.max)),
                ]),
            ),
            (
                "setup_s_samples",
                json::array(&setup_s.iter().map(|s| json::number(*s)).collect::<Vec<_>>()),
            ),
            ("metrics", metrics_json.clone()),
            ("machine", machine_info()),
            (
                "caches",
                json::string("start empty; statistics include the fill"),
            ),
            (
                "cycle_tier",
                json::string("unvalidated: no hardware reference in this repository"),
            ),
        ]);
        let path = dir.join(format!("{}{suffix}.json", args.workload));
        std::fs::write(&path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        if args.trace {
            let path = dir.join(format!("{}.trace.json", args.workload));
            std::fs::write(&path, rec.chrome_trace(&args.workload) + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    println!(
        "{}",
        json::object(&[
            ("correct", correct.to_string()),
            ("attempted", ops.attempted.to_string()),
            ("failed", ops.failed.to_string()),
            ("metrics", metrics_json),
        ])
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cmd = parse_args(&argv("--workload compute --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Run(Args {
                workload: "compute".to_owned(),
                seed: 7,
                seconds: 3.0,
                trace: true,
                out: None,
            })
        );
        assert_eq!(
            parse_args(&argv("--list-metrics")),
            Ok(Command::ListMetrics)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload compute --trace 2",
            "--workload compute --seconds 0",
            "--workload compute --seconds nan",
            "--workload compute --seed",
            "--workload compute --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn end_to_end_catalogue_order_matches_the_measurements() {
        // `run` zips the catalogue with its measurements by position.
        let names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            ["setup_s", "wall_s", "sim_mcycles_per_s", "runs_per_s"]
        );
    }
}
