//! CLI entry point: regenerates the paper's tables and figures.

use std::path::PathBuf;

use asm_experiments::session::{Session, SessionConfig};
use asm_experiments::{exps, Scale, Tier};

/// What the command line asked for, before any of it is acted on.
struct Cli {
    base: fn() -> Scale,
    /// Edits of `base`, applied once it is chosen: `--full` and `--tiny`
    /// replace the whole `Scale` and must not wipe a value given before
    /// them.
    edits: Vec<Box<dyn Fn(&mut Scale)>>,
    session: SessionConfig,
}

/// How an option takes its value, and where the value goes.
enum Set {
    Switch(fn(&mut Cli)),
    /// A number of at least this minimum.
    Num(u64, fn(&mut Scale, u64)),
    Path(fn(&mut SessionConfig, PathBuf)),
    Tier,
}

impl Set {
    /// What `<flag> needs …` when its value is missing or unparsable.
    fn wants(&self) -> &'static str {
        match self {
            Set::Switch(_) => "no value",
            Set::Num(..) => "a numeric value",
            Set::Path(_) => "a path",
            Set::Tier => "`cycle`, `analytic`, or `sampled`",
        }
    }
}

/// One row of the options table: the usage text, value parsing and the
/// per-value errors all derive from it.
struct Opt {
    flag: &'static str,
    /// Metavariable of the value; empty for a switch.
    arg: &'static str,
    /// Usage text; the renderer indents continuation lines.
    help: &'static str,
    set: Set,
}

/// Every option, by usage-text section. `{analytic}` and `{sampled}`
/// stand for the experiments of [`exps::TABLE`] supporting that tier.
#[rustfmt::skip]
const OPTIONS: &[(&str, &[Opt])] = &[
    ("OPTIONS:", &[
        Opt { flag: "--full", arg: "", set: Set::Switch(|c| c.base = Scale::full),
              help: "paper scale (100 workloads, 100M cycles, Q=5M) — hours" },
        Opt { flag: "--tiny", arg: "", set: Set::Switch(|c| c.base = Scale::tiny),
              help: "smoke-test scale — seconds" },
        Opt { flag: "--workloads", arg: "N", set: Set::Num(1, |s, v| s.workloads = v as usize),
              help: "override workload count" },
        Opt { flag: "--cycles", arg: "N", set: Set::Num(0, |s, v| s.cycles = v),
              help: "override cycles per run (at least one measured quantum\nafter the warm-up quanta)" },
        Opt { flag: "--seed", arg: "N", set: Set::Num(0, |s, v| s.seed = v),
              help: "override master seed" },
        Opt { flag: "--jobs", arg: "N", set: Set::Num(1, |s, v| s.jobs = v as usize),
              help: "worker threads for sweeps (default: one per core;\naffects scheduling only — output is byte-identical\nfor any value)" },
        Opt { flag: "--no-skip", arg: "", set: Set::Switch(|c| c.edits.push(Box::new(|s| s.skip = false))),
              help: "disable the deterministic fast-forward and simulate\nevery cycle (slower; output is byte-identical —\nthis flag exists for benchmarking and differential\ntesting, see DESIGN.md §8)" },
        Opt { flag: "--tier", arg: "T", set: Set::Tier,
              help: "simulation tier: `cycle` (event-driven, default),\n`analytic` (reuse-distance model, ~1000x faster;\nsupported by: {analytic} — see DESIGN.md §10), or\n`sampled` (representative-interval sampling with\nconfidence intervals, 10x+ faster sweeps; supported\nby: {sampled} — DESIGN.md §12)" },
        Opt { flag: "--sample-intervals", arg: "K", set: Set::Num(1, |s, v| s.sample_intervals = v as usize),
              help: "representative intervals simulated per run on\nthe sampled tier (default 4; 2 at --tiny)" },
        Opt { flag: "--sample-quanta", arg: "L", set: Set::Num(1, |s, v| s.sample_quanta = v),
              help: "quanta per sampling interval on the sampled tier\n(default 1; cycles must divide into Q*L intervals)" },
        Opt { flag: "--alone-cache", arg: "F", set: Set::Path(|s, p| s.alone_cache = Some(p)),
              help: "persist alone-run profiles in F and reuse them on\nlater invocations with the same scale (a stale or\ncorrupt file is ignored with a warning)" },
        Opt { flag: "--profile-cache", arg: "F", set: Set::Path(|s, p| s.profile_cache = Some(p)),
              help: "persist analytic-tier reuse profiles in F (stale\nor corrupt entries are re-extracted with a warning)" },
        Opt { flag: "--checkpoint-dir", arg: "D", set: Set::Path(|s, p| s.checkpoint_dir = Some(p)),
              help: "persist campaign warmup snapshots and finished-run\nmanifests under D (written atomically; kill-safe).\nStale or damaged artefacts are ignored with a\nwarning — output never depends on checkpoint state" },
        Opt { flag: "--resume", arg: "", set: Set::Switch(|c| c.session.resume = true),
              help: "replay finished runs from D's manifests instead of\nsimulating them (byte-identical); requires\n--checkpoint-dir" },
        Opt { flag: "--csv", arg: "DIR", set: Set::Path(|s, p| s.csv_dir = Some(p)),
              help: "additionally write every table to DIR/<name>.csv" },
    ]),
    ("ARTEFACTS (byte-identical for any --jobs value; tables stay byte-identical;\n\
      --tier cycle only):", &[
        Opt { flag: "--report", arg: "F", set: Set::Path(|s, p| s.sink.report = Some(p)),
              help: "write the run report to F (schema \"asm-report/1\"):\nper simulated run, its counters, DRAM read-latency\nquantiles, every per-quantum series and the\nconservation-checked cycle ledger of DESIGN.md §13" },
        Opt { flag: "--trace", arg: "F", set: Set::Path(|s, p| s.sink.trace = Some(p)),
              help: "write a Chrome trace-event JSON of the first\nworkload to F (open in Perfetto / chrome://tracing);\nonly that run pays for request tracing" },
    ]),
];

/// The usage text: the EXPERIMENTS block and both "supported by" lists
/// are rows and columns of [`exps::TABLE`], the rest is [`OPTIONS`].
fn usage() -> String {
    let mut text = String::from(
        "asm-experiments — regenerate the ASM paper's evaluation\n\n\
         USAGE:\n    asm-experiments <experiment> [options]\n\nEXPERIMENTS:\n",
    );
    for e in exps::TABLE {
        text += &format!("    {:<9} {}\n", e.name, e.about);
    }
    for (section, opts) in OPTIONS {
        text += &format!("\n{section}\n");
        for o in *opts {
            let help = o.help.replace('\n', &format!("\n{:21}", ""));
            text += &format!("    {:<16} {help}\n", format!("{} {}", o.flag, o.arg).trim_end());
        }
    }
    text.replace("{analytic}", &exps::supporting(Tier::Analytic))
        .replace("{sampled}", &exps::supporting(Tier::Sampled))
}

/// Reads the options off the command line, each against its table row.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        base: Scale::reduced,
        edits: Vec::new(),
        session: SessionConfig::default(),
    };
    let mut given: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(opt) = OPTIONS.iter().flat_map(|(_, opts)| *opts).find(|o| o.flag == arg) else {
            return Err(format!("unknown option {arg}\n{}", usage()));
        };
        let needs = || format!("{} needs {}", opt.flag, opt.set.wants());
        let mut value = || {
            // A repeated value would silently lose one of the two.
            if given.contains(&opt.flag) {
                return Err(format!("{} given more than once", opt.flag));
            }
            given.push(opt.flag);
            args.next().ok_or_else(needs)
        };
        match opt.set {
            Set::Switch(set) => set(&mut cli),
            Set::Num(min, set) => {
                let n: u64 = value()?.parse().map_err(|_| needs())?;
                if n < min {
                    return Err(format!("{} must be at least {min}", opt.flag));
                }
                cli.edits.push(Box::new(move |s| set(s, n)));
            }
            Set::Path(set) => set(&mut cli.session, value()?.into()),
            Set::Tier => {
                let tier = Tier::parse(value()?).ok_or_else(needs)?;
                cli.edits.push(Box::new(move |s| s.tier = tier));
            }
        }
    }
    Ok(cli)
}

/// The scale `cli` describes, after the checks no single option can
/// make: each would otherwise print header-only tables or artefacts and
/// exit 0.
fn resolve(cli: &Cli, experiment: &exps::Experiment) -> Result<Scale, String> {
    let mut scale = (cli.base)();
    cli.edits.iter().for_each(|edit| edit(&mut scale));
    if !experiment.tiers.contains(&scale.tier) {
        return Err(format!(
            "experiment '{}' does not support --tier {} (supported: {})",
            experiment.name,
            scale.tier.name(),
            exps::supporting(scale.tier)
        ));
    }
    let shortest = scale.quantum * (scale.warmup_quanta as u64 + 1);
    if scale.cycles < shortest {
        return Err(format!(
            "--cycles {} leaves no measured quantum: need at least \
             Q x (warmup quanta + 1) = {} x {} = {shortest}",
            scale.cycles,
            scale.quantum,
            scale.warmup_quanta + 1
        ));
    }
    if scale.workloads.checked_mul(4).is_none() {
        return Err(format!(
            "--workloads {} is too large: the core-count sweeps scale it by 4",
            scale.workloads
        ));
    }
    if scale.tier == Tier::Sampled {
        let Some(interval) = scale.quantum.checked_mul(scale.sample_quanta) else {
            return Err(format!(
                "--sample-quanta {} is too large: quantum*L ({} * {0}) overflows",
                scale.sample_quanta, scale.quantum
            ));
        };
        if !scale.cycles.is_multiple_of(interval) {
            return Err(format!(
                "--tier sampled needs cycles ({}) to be a multiple of quantum*L ({} * {})",
                scale.cycles, scale.quantum, scale.sample_quanta
            ));
        }
    }
    let sink = &cli.session.sink;
    if scale.tier != Tier::Cycle && (sink.report.is_some() || sink.trace.is_some()) {
        return Err(format!(
            "--report and --trace need --tier cycle: the {} tier instruments no run",
            scale.tier.name()
        ));
    }
    if cli.session.resume && cli.session.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".to_owned());
    }
    Ok(scale)
}

/// Every usage error: one `error:` line on stderr, exit status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let Some(experiment) = exps::find(name) else {
        usage_error(&format!("unknown experiment '{name}'\n{}", usage()));
    };
    let cli = parse(&args[1..]).unwrap_or_else(|e| usage_error(&e));
    let scale = resolve(&cli, experiment).unwrap_or_else(|e| usage_error(&e));
    let session = Session::new(cli.session);

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
    (experiment.run)(&session, scale);
    session.finish();
}
