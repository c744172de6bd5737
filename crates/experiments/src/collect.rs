//! What the experiments share on either side of a campaign: the tier
//! switch, and the folds that turn per-run results into table cells —
//! estimation-error statistics (Figures 2-8, Table 3, §6.4, the database
//! study) and the averaged fairness/performance outcome (Figures 9-11).

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_core::{AloneCache, RunResult, SystemConfig};
use asm_cpu::AppProfile;
use asm_metrics::{ErrorAggregate, ErrorDistribution, Table};
use asm_sampling::Estimate;
use asm_simcore::Cycle;

use crate::plan::{self, PlannedRun};
use crate::scale::{Scale, Tier};
use crate::session::Session;

/// [`Session::install_alone_cache`] on the [`Session::global`] session.
pub fn install_alone_cache(cache: Arc<AloneCache>) {
    Session::global().install_alone_cache(cache);
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

/// Accumulates estimation-error statistics over `results`, skipping
/// `warmup_quanta` leading quanta of every run. A sequential fold in
/// slice order: over a campaign's results it is bitwise identical for
/// every `--jobs` value.
#[must_use]
pub fn collect_accuracy(results: &[RunResult], warmup_quanta: usize) -> AccuracyStats {
    let mut stats = AccuracyStats::default();
    for result in results {
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
    }
    stats
}

/// Runs every configuration on every workload as one campaign
/// ([`plan::cross`]) and folds one [`AccuracyStats`] per configuration.
#[must_use]
pub fn accuracy_sweep(
    session: &Session,
    configs: &[SystemConfig],
    workloads: &[Vec<AppProfile>],
    cycles: Cycle,
    scale: &Scale,
) -> Vec<AccuracyStats> {
    plan::run_campaign_in(session, &plan::cross(configs, workloads, cycles), scale.jobs)
        .chunks(workloads.len())
        .map(|results| collect_accuracy(results, scale.warmup_quanta))
        .collect()
}

/// Formats an optional percentage for table cells.
#[must_use]
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.1}%"),
        None => "-".to_owned(),
    }
}

/// Slowdowns an exact tier computed, as estimates with `ci = 0`.
#[must_use]
pub fn exact(slowdowns: &[f64]) -> Vec<Estimate> {
    slowdowns.iter().map(|&s| Estimate::exact(s)).collect()
}

/// A tier's table cell: an estimate rendered to some decimals.
pub type CellFormat = fn(&Estimate, usize) -> String;

/// Per-app whole-run slowdowns of every run, on the tier `scale`
/// selects, with the cell format that tier's tables use: plain values,
/// or `value ±CI` on the sampled tier. The one place the harness
/// branches on `--tier`. The analytic tier reads only cache geometry,
/// latencies and DRAM timing from a configuration (and nothing from
/// `cycles`), so an experiment hands every tier the same runs.
#[must_use]
pub fn tier_slowdowns(
    session: &Session,
    runs: &[PlannedRun],
    scale: &Scale,
) -> (Vec<Vec<Estimate>>, CellFormat) {
    let plain: CellFormat = |e, decimals| format!("{:.decimals$}", e.value);
    match scale.tier {
        Tier::Cycle => {
            let results = plan::run_campaign_in(session, runs, scale.jobs);
            (results.iter().map(|r| exact(&r.whole_run_slowdowns)).collect(), plain)
        }
        Tier::Sampled => {
            let results = crate::sampled::run_campaign_in(session, runs, scale);
            (results.into_iter().map(|r| r.slowdowns).collect(), Estimate::cell)
        }
        Tier::Analytic => {
            let solved = runs.chunk_by(|a, b| a.config == b.config).flat_map(|same| {
                let mixes: Vec<_> = same.iter().map(|r| r.apps.clone()).collect();
                crate::analytic::solve_mixes_in(session, &same[0].config, &mixes, scale.jobs)
            });
            (solved.map(|s| exact(&s.slowdowns)).collect(), plain)
        }
    }
}

/// Averaged fairness/performance outcome of a resource-management
/// mechanism across workloads (Figures 9-11).
#[derive(Debug, Clone, Copy)]
pub struct MechOutcome {
    /// Mean of per-workload maximum slowdown (unfairness; lower is better).
    pub unfairness: Estimate,
    /// Mean harmonic speedup (system performance; higher is better).
    pub harmonic_speedup: Estimate,
}

/// Folds per-workload slowdowns ([`tier_slowdowns`]) into the averaged
/// outcome. Sequential and dependent only on the slice order, so a caller
/// that slices a campaign by scheme gets the same bits for every
/// `--jobs` value; at `ci = 0` the arithmetic is that of
/// `asm_metrics::{max_slowdown, harmonic_speedup}` and a plain mean.
#[must_use]
pub fn mech_outcome(slowdowns: &[Vec<Estimate>]) -> MechOutcome {
    let nan = Estimate::exact(f64::NAN);
    let maxes: Vec<Estimate> = slowdowns.iter().filter_map(|s| Estimate::max_of(s)).collect();
    let hspeeds: Vec<Estimate> = slowdowns
        .iter()
        .filter_map(|s| Estimate::harmonic_speedup_of(s))
        .collect();
    MechOutcome {
        unfairness: Estimate::mean_of(&maxes).unwrap_or(nan),
        harmonic_speedup: Estimate::mean_of(&hspeeds).unwrap_or(nan),
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
/// `scale` selects, and appends one row per scheme to a [`scheme_table`].
pub fn push_scheme_rows(
    session: &Session,
    table: &mut Table,
    cores: usize,
    schemes: &[(&str, SystemConfig)],
    workloads: &[Vec<AppProfile>],
    scale: &Scale,
) {
    let configs: Vec<SystemConfig> = schemes.iter().map(|(_, c)| c.clone()).collect();
    let runs = plan::cross(&configs, workloads, scale.cycles);
    let (slowdowns, cell) = tier_slowdowns(session, &runs, scale);
    for ((name, _), per_workload) in schemes.iter().zip(slowdowns.chunks(workloads.len())) {
        let out = mech_outcome(per_workload);
        table.row(vec![
            cores.to_string(),
            (*name).into(),
            cell(&out.unfairness, 2),
            cell(&out.harmonic_speedup, 3),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_core::EstimatorSet;
    use asm_workloads::mix;

    #[test]
    fn collects_errors_for_all_estimators() {
        let scale = Scale::tiny();
        let mut config = scale.base_config();
        config.estimators = EstimatorSet::all();
        let workloads = mix::random_mixes(1, 2, 7);
        let stats = accuracy_sweep(&Session::default(), &[config], &workloads, scale.cycles, &scale)
            .remove(0);
        for name in ["ASM", "FST", "PTCA", "MISE"] {
            assert!(stats.mean_error(name).is_some(), "missing stats for {name}");
        }
        assert!(stats.workload_std_dev("ASM").is_some());
    }

    #[test]
    fn exact_outcome_is_the_metrics_crate_fold_bitwise() {
        // The cycle tier's former fold: max and harmonic speedup per
        // workload from `asm_metrics`, then plain means.
        let workloads = [vec![1.25, 3.5, 2.0], vec![4.75, 1.0, 1.5, 2.25]];
        let mean_of = |f: fn(&[f64]) -> Option<f64>| {
            workloads.iter().map(|w| f(w).unwrap()).sum::<f64>() / workloads.len() as f64
        };
        let out = mech_outcome(&workloads.iter().map(|w| exact(w)).collect::<Vec<_>>());
        let expected = [mean_of(asm_metrics::max_slowdown), mean_of(asm_metrics::harmonic_speedup)];
        for (got, want) in [out.unfairness, out.harmonic_speedup].iter().zip(expected) {
            assert_eq!((got.value.to_bits(), got.ci), (want.to_bits(), 0.0));
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(12.34)), "12.3%");
        assert_eq!(pct(None), "-");
    }
}
