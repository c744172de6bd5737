//! Shared accuracy-collection machinery for the estimation-error
//! experiments (Figures 2-8, Table 3, §6.4 and the database study).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use asm_core::{AloneCache, RunResult, Runner, SystemConfig};
use asm_cpu::AppProfile;
use asm_metrics::{ErrorAggregate, ErrorDistribution, Table};
use asm_simcore::Cycle;

use crate::plan::PlannedRun;
use crate::pool;
use crate::scale::{Scale, Tier};

/// The process-wide alone-run cache, shared by every runner the
/// experiments construct once set: `--alone-cache <path>` installs a
/// file-backed one, [`install_alone_cache`] an in-memory one.
static ALONE_CACHE: OnceLock<(Option<PathBuf>, Arc<AloneCache>)> = OnceLock::new();

/// Loads (or initializes) the persistent alone-run cache at `path` and
/// routes all subsequent [`make_runner`] calls through it. A missing file
/// starts empty; a corrupt or stale file is ignored with a warning (the
/// run then recomputes and overwrites it on [`save_alone_cache`]).
/// Progress chatter goes to stderr: stdout must stay byte-identical with
/// and without a cache.
pub fn set_alone_cache_path(path: PathBuf) {
    let (cache, warning) = AloneCache::load_or_warn(&path);
    if let Some(w) = warning {
        eprintln!("warning: alone-cache: {w}");
    } else if !cache.is_empty() {
        eprintln!(
            "alone-cache: loaded {} run(s) from {}",
            cache.len(),
            path.display()
        );
    }
    let _ = ALONE_CACHE.set((Some(path), Arc::new(cache)));
}

/// Routes all subsequent runners and campaigns through an in-memory
/// cache with no backing file ([`save_alone_cache`] becomes a no-op).
/// Harnesses that compare tiers (the sampled-accuracy gate, the
/// `sampled_sweep` bench) pre-warm one cache and install it so both
/// tiers amortize the same alone runs — exactly what `--alone-cache`
/// gives the CLI across invocations. First installation wins, like the
/// CLI flag.
pub fn install_alone_cache(cache: Arc<AloneCache>) {
    let _ = ALONE_CACHE.set((None, cache));
}

/// A runner for `config` backed by the persistent alone-run cache when
/// one is configured, else by a fresh private cache. All experiment code
/// constructs runners through here.
#[must_use]
pub fn make_runner(config: SystemConfig) -> Runner {
    match ALONE_CACHE.get() {
        Some((_, cache)) => Runner::with_cache(config, Arc::clone(cache)),
        None => Runner::new(config),
    }
}

/// Writes the persistent alone-run cache back to its file, if one was
/// configured. Called once at the end of the CLI run.
pub fn save_alone_cache() {
    if let Some((Some(path), cache)) = ALONE_CACHE.get() {
        match cache.save_to(path) {
            Ok(()) => eprintln!(
                "alone-cache: saved {} run(s) to {}",
                cache.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: alone-cache: could not save {}: {e}", path.display()),
        }
    }
}

/// Simulates every workload under `config`, fanning runs across `jobs`
/// worker threads, and returns the results **in workload order**.
///
/// This is the deterministic parallel driver every sweep goes through:
/// workloads are independent, the shared [`asm_core::AloneCache`] dedupes
/// alone runs across threads, and because the returned `Vec` preserves
/// submission order, any sequential fold over it is byte-identical for
/// every `jobs` value (including `jobs = 1`, which runs inline).
///
/// Prints one progress dot per completed workload to stderr.
#[must_use]
pub fn run_parallel(
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
    jobs: usize,
) -> Vec<RunResult> {
    let runner = make_runner(config.clone());
    run_parallel_with(&runner, workloads, cycles, jobs)
}

/// Like [`run_parallel`], reusing an existing runner — and therefore its
/// alone-run cache. Use with [`Runner::set_policies`] when sweeping
/// mechanisms on identical hardware.
#[must_use]
pub fn run_parallel_with(
    runner: &Runner,
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
    jobs: usize,
) -> Vec<RunResult> {
    let opts = crate::sink::options();
    let results = pool::run_ordered(jobs, workloads, |_, w| {
        let r = runner.run_with(w, cycles, opts);
        eprint!(".");
        r
    });
    eprintln!();
    // Telemetry snapshots are recorded here, sequentially and in
    // submission order, so the sink's artefacts stay jobs-independent.
    for r in &results {
        crate::sink::record(r);
    }
    results
}

/// Accumulated accuracy statistics across a set of workloads.
#[derive(Debug, Default)]
pub struct AccuracyStats {
    /// Mean/max error per estimator.
    pub per_estimator: BTreeMap<String, ErrorAggregate>,
    /// Mean error per (estimator, benchmark name).
    pub per_app: BTreeMap<(String, String), ErrorAggregate>,
    /// Error distribution per estimator (10%-wide buckets).
    pub dist: BTreeMap<String, ErrorDistribution>,
    /// Per-workload mean error per estimator (for std-dev error bars).
    pub per_workload: BTreeMap<String, Vec<f64>>,
}

impl AccuracyStats {
    /// Mean error (%) of `estimator` across all samples.
    #[must_use]
    pub fn mean_error(&self, estimator: &str) -> Option<f64> {
        self.per_estimator.get(estimator)?.mean_pct()
    }

    /// Standard deviation of per-workload mean errors (the paper's error
    /// bars in Figures 5, 7, 8).
    #[must_use]
    pub fn workload_std_dev(&self, estimator: &str) -> Option<f64> {
        let v = self.per_workload.get(estimator)?;
        if v.is_empty() {
            return None;
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Some((v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64).sqrt())
    }

    /// Benchmark names seen, in first-seen order of the provided list.
    #[must_use]
    pub fn mean_error_for_app(&self, estimator: &str, app: &str) -> Option<f64> {
        self.per_app
            .get(&(estimator.to_owned(), app.to_owned()))?
            .mean_pct()
    }
}

/// Runs `workloads` under `config` on `jobs` worker threads and
/// accumulates estimation-error statistics, skipping `warmup_quanta`
/// leading quanta of every run.
///
/// Simulations run via [`run_parallel`]; the statistics fold happens
/// sequentially on the caller's thread in workload order, so the result
/// is bitwise identical for every `jobs` value.
#[must_use]
pub fn collect_accuracy(
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
    warmup_quanta: usize,
    jobs: usize,
) -> AccuracyStats {
    let results = run_parallel(config, workloads, cycles, jobs);
    let mut stats = AccuracyStats::default();
    for result in &results {
        let mut workload_err: BTreeMap<String, ErrorAggregate> = BTreeMap::new();
        for q in result.quanta.iter().skip(warmup_quanta) {
            for (name, est) in &q.estimates {
                for (i, (&e, &a)) in est.iter().zip(&q.actual).enumerate() {
                    if !(a.is_finite() && a > 0.0) {
                        continue;
                    }
                    let err = asm_metrics::estimation_error_pct(e, a);
                    stats
                        .per_estimator
                        .entry(name.clone())
                        .or_default()
                        .add_error_pct(err);
                    stats
                        .per_app
                        .entry((name.clone(), result.app_names[i].clone()))
                        .or_default()
                        .add_error_pct(err);
                    stats
                        .dist
                        .entry(name.clone())
                        .or_insert_with(|| ErrorDistribution::new(10.0, 15))
                        .add(err);
                    workload_err
                        .entry(name.clone())
                        .or_default()
                        .add_error_pct(err);
                }
            }
        }
        for (name, agg) in workload_err {
            if let Some(m) = agg.mean_pct() {
                stats.per_workload.entry(name).or_default().push(m);
            }
        }
        if std::env::var_os("ASM_DEBUG_SIGNED").is_some() {
            for q in result.quanta.iter().skip(warmup_quanta).take(1) {
                for (name, est) in &q.estimates {
                    let pairs: Vec<String> = est
                        .iter()
                        .zip(&q.actual)
                        .map(|(e, a)| format!("{e:.2}/{a:.2}"))
                        .collect();
                    eprintln!("[signed] {name}: est/actual {}", pairs.join(" "));
                }
            }
        }
    }
    stats
}

/// Formats an optional percentage for table cells.
#[must_use]
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.1}%"),
        None => "-".to_owned(),
    }
}

/// Averaged fairness/performance outcome of a resource-management
/// mechanism across workloads (Figures 9-11).
#[derive(Debug, Clone, Copy, Default)]
pub struct MechOutcome {
    /// Mean of per-workload maximum slowdown (unfairness; lower is better).
    pub unfairness: f64,
    /// Standard deviation of per-workload maximum slowdown.
    pub unfairness_std: f64,
    /// Mean harmonic speedup (system performance; higher is better).
    pub harmonic_speedup: f64,
}

/// Runs `workloads` under `config` on `jobs` worker threads and averages
/// whole-run unfairness and harmonic speedup.
#[must_use]
pub fn eval_mechanism(
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
    jobs: usize,
) -> MechOutcome {
    let runner = make_runner(config.clone());
    eval_mechanism_with(&runner, workloads, cycles, jobs)
}

/// Like [`eval_mechanism`], reusing an existing runner (and its cached
/// alone runs — use with [`Runner::set_policies`] when sweeping
/// mechanisms on identical hardware).
#[must_use]
pub fn eval_mechanism_with(
    runner: &Runner,
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
    jobs: usize,
) -> MechOutcome {
    mech_outcome(&run_parallel_with(runner, workloads, cycles, jobs))
}

/// Folds per-workload results into the averaged fairness/performance
/// outcome. Sequential and order-dependent only on the slice order, so a
/// caller that slices a [`crate::plan::run_campaign`] result by scheme
/// gets output byte-identical to the per-scheme sweeps it replaces.
#[must_use]
pub fn mech_outcome(results: &[RunResult]) -> MechOutcome {
    let mut maxes = Vec::new();
    let mut hspeeds = Vec::new();
    for r in results {
        let slowdowns: Vec<f64> = r
            .whole_run_slowdowns
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .collect();
        if let Some(m) = asm_metrics::max_slowdown(&slowdowns) {
            maxes.push(m);
        }
        if let Some(h) = asm_metrics::harmonic_speedup(&slowdowns) {
            hspeeds.push(h);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let m = mean(&maxes);
    let std =
        (maxes.iter().map(|x| (x - m).powi(2)).sum::<f64>() / maxes.len().max(1) as f64).sqrt();
    MechOutcome {
        unfairness: m,
        unfairness_std: std,
        harmonic_speedup: mean(&hspeeds),
    }
}

/// The table Figures 9 and 10 and the combined study fill: one row per
/// `(core count, scheme)`.
#[must_use]
pub fn scheme_table() -> Table {
    Table::new(vec![
        "cores".into(),
        "scheme".into(),
        "unfairness (max slowdown)".into(),
        "harmonic speedup".into(),
    ])
}

/// Runs every scheme on every workload as one campaign, on the tier
/// `scale` selects, and appends one row per scheme to a
/// [`scheme_table`]: plain cells on the cycle tier, `value ± CI` cells on
/// the sampled tier. The scheme tables branch on the tier nowhere else.
pub fn push_scheme_rows(
    table: &mut Table,
    cores: usize,
    schemes: &[(&str, SystemConfig)],
    workloads: &[Vec<AppProfile>],
    scale: &Scale,
) {
    let runs: Vec<PlannedRun> = schemes
        .iter()
        .flat_map(|(_, config)| {
            workloads
                .iter()
                .map(|w| PlannedRun::new(config.clone(), w.clone(), scale.cycles))
        })
        .collect();
    let cells: Vec<(String, String)> = if scale.tier == Tier::Sampled {
        crate::sampled::run_campaign(&runs, scale)
            .chunks(workloads.len())
            .map(crate::sampled::sampled_outcome)
            .map(|out| (out.unfairness.cell(2), out.harmonic_speedup.cell(3)))
            .collect()
    } else {
        crate::plan::run_campaign(&runs, scale.jobs)
            .chunks(workloads.len())
            .map(mech_outcome)
            .map(|out| {
                (
                    format!("{:.2}", out.unfairness),
                    format!("{:.3}", out.harmonic_speedup),
                )
            })
            .collect()
    };
    for ((name, _), (unfairness, speedup)) in schemes.iter().zip(cells) {
        table.row(vec![cores.to_string(), (*name).into(), unfairness, speedup]);
    }
}

/// The alone-run cache a campaign's runners share: the persistent global
/// cache when `--alone-cache` is configured, else one fresh cache per
/// campaign — either way, every runner of the campaign dedupes alone
/// simulations against the same table.
#[must_use]
pub fn campaign_cache() -> Arc<AloneCache> {
    match ALONE_CACHE.get() {
        Some((_, cache)) => Arc::clone(cache),
        None => Arc::new(AloneCache::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use asm_core::EstimatorSet;
    use asm_workloads::mix;

    #[test]
    fn collects_errors_for_all_estimators() {
        let scale = Scale::tiny();
        let mut config = scale.base_config();
        config.estimators = EstimatorSet::all();
        let workloads = mix::random_mixes(1, 2, 7);
        let stats = collect_accuracy(&config, &workloads, scale.cycles, scale.warmup_quanta, 1);
        for name in ["ASM", "FST", "PTCA", "MISE"] {
            assert!(stats.mean_error(name).is_some(), "missing stats for {name}");
        }
        assert!(stats.workload_std_dev("ASM").is_some());
    }

    #[test]
    fn run_parallel_preserves_workload_order() {
        let scale = Scale::tiny();
        let config = scale.base_config();
        let workloads = mix::random_mixes(3, 2, 11);
        let results = run_parallel(&config, &workloads, scale.cycles, 3);
        assert_eq!(results.len(), workloads.len());
        for (r, w) in results.iter().zip(&workloads) {
            let expected: Vec<String> = w.iter().map(|a| a.name().to_owned()).collect();
            assert_eq!(r.app_names, expected);
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(12.34)), "12.3%");
        assert_eq!(pct(None), "-");
    }
}
