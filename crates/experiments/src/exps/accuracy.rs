//! Cross-tier accuracy (`accuracy`): every slowdown estimate the repo
//! produces, scored against the cycle tier by one measure — the
//! symmetric per-app error `max(t, r) / min(t, r) − 1` — and folded by
//! [`Envelope`] into a geomean and a worst cell per (tier, workload
//! class):
//!
//! - **ASM**: the online estimator's mean post-warm-up estimate against
//!   the actual slowdown of the same run, the cycle tier with the
//!   attribution ledger on (DESIGN.md §13), over the sweep's pairs;
//! - **analytic**: the reuse-distance tier (DESIGN.md §10) against the
//!   plain machine over the whole sweep and extra random mixes;
//! - **sampled**: the representative-interval tier (DESIGN.md §12) is
//!   exact on a fingerprint's own configuration, so each pair's group
//!   plans a UCP member (the partitioned-class representative) and an
//!   ASM-Cache member, and the ASM-Cache member is scored against a full
//!   run of that variant.
//!
//! The per-pair table sets each victim's errors beside its ledger
//! decomposition; the closing section localizes the analytic tier's
//! worst documented cell, the FR-FCFS starvation cliff (libquantum → cg),
//! to its dominant ledger component. `tests/analytic_gate.rs` enforces
//! the analytic sweep geomean and the localization.
//!
//! Every fold runs sequentially in sweep order over campaign results, so
//! stdout is byte-identical for every `--jobs` value.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_analytic::{MixSolution, WorkloadClass};
use asm_core::{
    AloneCache, CachePolicy, Component, EstimatorSet, QuantumLedger, RunAttribution, RunOptions,
    RunResult, SystemConfig, COMPONENTS,
};
use asm_cpu::AppProfile;
use asm_metrics::Table;
use asm_workloads::{mix, suite};

use crate::collect::pct;
use crate::plan::{self, PlannedRun};
use crate::{Scale, Session};

/// The symmetric error of a tier's slowdown against its reference,
/// `max(t, r) / min(t, r) − 1` (0 = they agree); `None` unless both are
/// finite and positive.
fn sym_err(tier: f64, reference: f64) -> Option<f64> {
    (tier.is_finite() && tier > 0.0 && reference.is_finite() && reference > 0.0)
        .then(|| tier.max(reference) / tier.min(reference) - 1.0)
}

/// One tier's per-app errors, by workload class.
#[derive(Debug, Default, Clone)]
pub struct Envelope {
    /// `(cell, error)` samples per class display name, in fold order.
    per_class: BTreeMap<&'static str, Vec<(String, f64)>>,
}

/// An [`Envelope`]'s report over a set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub samples: usize,
    /// Geometric mean of `1 + err`, minus 1.
    pub geomean: f64,
    /// The largest error (the first, on a tie) …
    pub worst: f64,
    /// … and the cell it came from.
    pub worst_cell: String,
}

impl Envelope {
    /// Folds the symmetric error of `tier` against `reference` under
    /// `class` as `cell`; whether it was folded (both were finite and
    /// positive).
    pub fn add(&mut self, class: &'static str, cell: String, tier: f64, reference: f64) -> bool {
        let err = sym_err(tier, reference);
        if let Some(err) = err {
            self.per_class.entry(class).or_default().push((cell, err));
        }
        err.is_some()
    }

    /// The summary of `class`'s samples, or of every sample (in class
    /// display order) for `None`; `None` when there are no samples.
    #[must_use]
    pub fn summary(&self, class: Option<&str>) -> Option<Summary> {
        let samples: Vec<&(String, f64)> = match class {
            Some(c) => self.per_class.get(c).into_iter().flatten().collect(),
            None => self.per_class.values().flatten().collect(),
        };
        let (cell, worst) = samples.iter().copied().reduce(|m, s| if s.1 > m.1 { s } else { m })?;
        let ln: f64 = samples.iter().map(|(_, e)| (1.0 + e).ln()).sum();
        Some(Summary {
            samples: samples.len(),
            geomean: (ln / samples.len() as f64).exp() - 1.0,
            worst: *worst,
            worst_cell: cell.clone(),
        })
    }
}

/// Size of the full gated sweep.
pub const FULL_SWEEP: usize = 38;

/// The sweep at this scale, its victim←aggressor pairs first: the 36
/// ordered interference-matrix pairs plus two intensity-binned 4-app
/// mixes. Below suite scale (`--tiny`), a smoke subset: the matrix
/// diagonal (one self-pair per app class) plus one binned mix.
#[must_use]
pub fn sweep(scale: Scale) -> Vec<Vec<AppProfile>> {
    let smoke = scale.workloads < 6;
    let pairs = super::matrix::ordered_pairs().into_iter();
    let mut mixes: Vec<_> = pairs.step_by(if smoke { 7 } else { 1 }).collect();
    mixes.extend(mix::binned_mixes(if smoke { 1 } else { 2 }, 4, scale.seed));
    mixes
}

/// Benchmark display name: the suite's `_like` suffix carries no
/// information in a table of suite mixes.
fn short(name: &str) -> &str {
    name.strip_suffix("_like").unwrap_or(name)
}

/// A sample's cell: its mix, the scored app bracketed (`[cg]+libquantum`).
fn cell(mix: &[AppProfile], app: usize) -> String {
    let mut names: Vec<String> = mix.iter().map(|p| short(p.name()).to_owned()).collect();
    names[app] = format!("[{}]", names[app]);
    names.join("+")
}

/// Runs `mixes` on the plain machine (no estimators, epochs off, half the
/// horizon) and solves them analytically, folding the analytic envelope.
/// The solutions come back too, in mix order: the analytic tier reads
/// only the cache geometry, the LLC latency and the DRAM timing, so they
/// serve every configuration here.
#[must_use]
pub fn analytic_envelope(
    session: &Session,
    scale: Scale,
    mixes: &[Vec<AppProfile>],
) -> (Envelope, Vec<MixSolution>) {
    let mut config = scale.base_config();
    config.estimators = EstimatorSet::none();
    config.epochs_enabled = false;
    let runs = plan::cross(&[config.clone()], mixes, scale.cycles / 2);
    let results = plan::run_campaign_in(session, &runs, scale.jobs);
    let solutions = crate::analytic::solve_mixes_in(session, &config, mixes, scale.jobs);
    let mut env = Envelope::default();
    for ((r, s), m) in results.iter().zip(&solutions).zip(mixes) {
        for (i, &a) in s.slowdowns.iter().enumerate() {
            env.add(s.classes[i].name(), cell(m, i), a, r.whole_run_slowdowns[i]);
        }
    }
    (env, solutions)
}

/// The ledger runs' machine: the scale's, with ASM observing.
fn ledger_config(scale: Scale) -> SystemConfig {
    SystemConfig { estimators: EstimatorSet::asm_only(), ..scale.base_config() }
}

/// Ground truth: `mixes` on the cycle tier with the attribution ledger
/// forced on (whether or not `--report` asked; the sink still records
/// every run).
fn ledger_runs(session: &Session, scale: Scale, mixes: &[Vec<AppProfile>]) -> Vec<RunResult> {
    let opts = RunOptions { attrib: true, ..session.run_options() };
    let runs = plan::cross(&[ledger_config(scale)], mixes, scale.cycles);
    let (truth, stats) = plan::run_campaign_counted(session, &runs, scale.jobs, opts);
    eprintln!("{stats}");
    session.record(&truth);
    truth
}

/// The ASM estimator's whole-run slowdown estimate for `app`: the mean
/// of its finite positive per-quantum estimates after warmup (NaN if
/// none).
fn asm_estimate(r: &RunResult, app: usize, warmup: usize) -> f64 {
    let est: Vec<f64> = r
        .quanta
        .iter()
        .skip(warmup)
        .filter_map(|q| q.estimates.iter().find(|(n, _)| n == "ASM"))
        .map(|(_, e)| e[app])
        .filter(|e| e.is_finite() && *e > 0.0)
        .collect();
    est.iter().sum::<f64>() / est.len() as f64
}

/// `(dominant interference component, its cycles, total interference
/// cycles, total run cycles)` for `app`'s ledger row. Ties break toward
/// the earlier [`Component::ALL`] entry, so the answer is deterministic.
fn ledger_breakdown(a: &RunAttribution, app: usize) -> (Component, u64, u64, u64) {
    let total: u64 = a.quanta.iter().map(QuantumLedger::len).sum();
    let mut dom = Component::DramBankConflict;
    let mut dom_cycles = 0u64;
    let mut interference = 0u64;
    for c in Component::ALL {
        if !c.is_interference() {
            continue;
        }
        let cycles = a.totals[app * COMPONENTS + c.index()];
        interference += cycles;
        if cycles > dom_cycles {
            dom = c;
            dom_cycles = cycles;
        }
    }
    (dom, dom_cycles, interference, total)
}

/// An error as a table cell.
fn err_pct(err: Option<f64>) -> String {
    pct(err.map(|e| e * 100.0))
}

/// A summary-table row: `label`, then the sample count, geomean, worst
/// error and worst cell of `s`.
fn row(label: String, s: Option<Summary>) -> Vec<String> {
    match s {
        Some(s) => {
            vec![label, s.samples.to_string(), err_pct(Some(s.geomean)), err_pct(Some(s.worst)), s.worst_cell]
        }
        None => [label.as_str(), "0", "-", "-", "-"].map(str::to_owned).to_vec(),
    }
}

/// `tier`'s summary rows: one per workload class with samples, then all.
fn tier_rows(tier: &str, env: &Envelope) -> Vec<Vec<String>> {
    let per_class = WorkloadClass::all().into_iter().filter_map(|c| {
        Some(row(format!("{tier}: {}", c.name()), Some(env.summary(Some(c.name()))?)))
    });
    per_class.chain([row(format!("{tier}: all"), env.summary(None))]).collect()
}

/// Runs the cross-tier accuracy campaign.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Cross-tier accuracy: ASM / analytic / sampled vs the cycle tier (per-app slowdown) ===");
    // Every tier below amortizes the same alone runs; the alone store of
    // `--checkpoint-dir` wins because first installation sticks.
    session.install_alone_cache(Arc::new(AloneCache::new()));

    let sweep = sweep(scale);
    let pairs = &sweep[..sweep.iter().filter(|m| m.len() == 2).count()];
    let apps: usize = sweep.iter().map(Vec::len).sum();
    println!(
        "sweep: {} mixes ({apps} app slots), the first {} victim\u{2190}aggressor pairs",
        sweep.len(),
        pairs.len()
    );
    let (analytic, solutions) = analytic_envelope(session, scale, &sweep);
    // Extra stratified (intensity-binned) random mixes beyond the gated
    // sweep, to probe mixes the calibration never saw.
    let extras = mix::binned_mixes(scale.workloads.min(8), 4, scale.seed + 0x5eed);
    let (random, _) = analytic_envelope(session, scale, &extras);

    let truth = ledger_runs(session, scale, pairs);
    let variant = |cache_policy| SystemConfig { cache_policy, ..ledger_config(scale) };
    let planned: Vec<PlannedRun> = pairs
        .iter()
        .flat_map(|m| {
            [CachePolicy::Ucp, CachePolicy::AsmCache]
                .map(|p| PlannedRun::new(variant(p), m.clone(), scale.cycles))
        })
        .collect();
    let sampled = crate::sampled::run_campaign_in(session, &planned, &scale);
    // Uninstrumented and unrecorded: a reference, not a subject.
    let runs = plan::cross(&[variant(CachePolicy::AsmCache)], pairs, scale.cycles);
    let (asmc_truth, stats) =
        plan::run_campaign_counted(session, &runs, scale.jobs, RunOptions::default());
    eprintln!("{stats}");

    let mut table = Table::new(
        [
            "victim \u{2190} aggressor",
            "cycle",
            "ASM err",
            "analytic err",
            "sampled err*",
            "victim interference (ledger)",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    let (mut asm, mut smp) = (Envelope::default(), Envelope::default());
    let mut ci_sum = 0.0;
    for (k, m) in pairs.iter().enumerate() {
        let (t, s) = (&truth[k], &solutions[k]);
        let (smp_k, smp_ref) = (&sampled[2 * k + 1].slowdowns, &asmc_truth[k].whole_run_slowdowns);
        let asm_est = |i| asm_estimate(t, i, scale.warmup_quanta);
        for i in 0..m.len() {
            asm.add(s.classes[i].name(), cell(m, i), asm_est(i), t.whole_run_slowdowns[i]);
            smp.add(s.classes[i].name(), cell(m, i), smp_k[i].value, smp_ref[i]);
        }
        ci_sum += smp_k[0].ci;
        let actual = t.whole_run_slowdowns[0];
        let (dom, dom_cycles, interference, total) =
            ledger_breakdown(t.attribution.as_ref().expect("attribution forced on"), 0);
        let ledger_cell = if interference == 0 {
            "none".to_owned()
        } else {
            format!(
                "{:.1}% of cycles, {:.0}% {}",
                interference as f64 / total.max(1) as f64 * 100.0,
                dom_cycles as f64 / interference as f64 * 100.0,
                dom.name(),
            )
        };
        table.row(vec![
            format!("{} \u{2190} {}", short(m[0].name()), short(m[1].name())),
            format!("{actual:.2}x"),
            err_pct(sym_err(asm_est(0), actual)),
            err_pct(sym_err(s.slowdowns[0], actual)),
            err_pct(sym_err(smp_k[0].value, smp_ref[0])),
            ledger_cell,
        ]);
    }
    session.emit("accuracy", &table);
    println!(
        "* the sampled tier is exact on a fingerprint's own configuration \
         (DESIGN.md \u{a7}12), so it is scored on each pair's ASM-Cache variant \
         against that variant's full cycle run (mean victim 95% CI half-width \
         {:.4}; 0 would mean the tier fell back to full runs). Per-pair errors \
         are the victim's, against this row's runs; the summary's analytic rows \
         score every app against the plain machine.",
        ci_sum / pairs.len() as f64,
    );

    let mut summary = Table::new(
        ["tier / class", "apps", "geomean err", "max err", "worst cell"].map(str::to_owned).to_vec(),
    );
    let random = vec![row("analytic: random 4-app mixes".to_owned(), random.summary(None))];
    let rows = [tier_rows("ASM", &asm), tier_rows("analytic", &analytic), random, tier_rows("sampled", &smp)];
    for r in rows.concat() {
        summary.row(r);
    }
    session.emit("accuracy_summary", &summary);

    // Enforced exactly when the gated sweep ran: the workload count picks
    // the sweep, and the sweep alone decides the verdict.
    let gate = analytic.summary(None).map_or(f64::INFINITY, |s| s.geomean);
    let verdict = match (sweep.len() < FULL_SWEEP, gate <= 0.10) {
        (true, _) => "informational (smoke subset; tests/analytic_gate.rs enforces the full sweep)",
        (false, true) => "PASS",
        (false, false) => "FAIL",
    };
    println!(
        "gate: analytic sweep geomean per-app error {} over {} of {FULL_SWEEP} configs \
         (threshold 10.0%) \u{2014} {verdict}",
        err_pct(Some(gate)),
        sweep.len(),
    );

    match pairs.iter().position(|m| is_cliff(m)) {
        Some(k) => localize(&truth[k], solutions[k].slowdowns[0]),
        // The smoke subset lacks the cliff pair: simulate it on its own.
        None => localize_cliff(session, scale),
    };
}

/// The starvation-cliff cell of DESIGN.md §10: cg (row-conflict victim,
/// slot 0) under libquantum (streaming aggressor, slot 1).
fn is_cliff(mix: &[AppProfile]) -> bool {
    mix.len() == 2 && mix[0].name() == "cg_like" && mix[1].name() == "libquantum_like"
}

/// [`localize`] on the cliff pair's own ledger run and analytic solve.
pub fn localize_cliff(session: &Session, scale: Scale) -> Option<(Component, f64)> {
    let pair = [["cg_like", "libquantum_like"].map(|n| suite::by_name(n).expect("profile")).to_vec()];
    let truth = ledger_runs(session, scale, &pair);
    let analytic = crate::analytic::solve_mixes_in(session, &ledger_config(scale), &pair, 1);
    localize(&truth[0], analytic[0].slowdowns[0])
}

/// The acceptance claim: localize the starvation cliff's analytic error
/// (DESIGN.md §10) to a named ledger component. The slowdown error is
/// converted into victim cycles — `total × |1/s_cycle − 1/s_analytic|`,
/// the mis-modeled alone-equivalent cycle mass, a direction-neutral
/// measure (at full scale the linear row-hit-first bias term saturates
/// below the simulated starvation and the tier underestimates; at short
/// horizons the starvation has not compounded yet and the same term
/// overshoots) — then covered against the dominant component's measured
/// interference cycles. Prints the breakdown and returns the dominant
/// component with its coverage in percent (80 passes); `None` when a
/// slowdown is not finite.
fn localize(t: &RunResult, analytic: f64) -> Option<(Component, f64)> {
    let attrib = t.attribution.as_ref().expect("attribution forced on");
    let actual = t.whole_run_slowdowns[0];
    let n = t.app_names.len();
    println!("\n=== Starvation-cliff localization: libquantum \u{2192} cg (DESIGN.md \u{a7}10) ===");
    println!(
        "victim cg: cycle {actual:.2}x vs analytic {analytic:.2}x ({})",
        err_pct(sym_err(analytic, actual)),
    );
    let (dom, dom_cycles, interference, total) = ledger_breakdown(attrib, 0);
    for c in Component::ALL {
        if !c.is_interference() {
            continue;
        }
        let cycles = attrib.totals[c.index()];
        if cycles == 0 {
            continue;
        }
        println!(
            "  {:<18} {:>12} cycles  {:>5.1}% of interference",
            c.name(),
            cycles,
            cycles as f64 / interference.max(1) as f64 * 100.0,
        );
    }
    let blamed: u64 = (1..n).map(|o| attrib.blame[o]).sum();
    println!(
        "  ledger blames {:.0}% of that interference on libquantum (blame matrix row 0)",
        blamed as f64 / interference.max(1) as f64 * 100.0,
    );
    if sym_err(analytic, actual).is_none() {
        println!("localization: no finite slowdowns \u{2014} skipped");
        return None;
    }
    // Slowdown is shared time over alone time for the same work, so the
    // tiers' disagreement corresponds to a definite victim-cycle mass:
    // the difference in the alone-equivalent length each tier implies
    // for the same shared run.
    let err_cycles = total as f64 * (1.0 / actual - 1.0 / analytic).abs();
    let runner_up = Component::ALL
        .into_iter()
        .filter(|c| c.is_interference() && *c != dom)
        .map(|c| attrib.totals[c.index()])
        .max()
        .unwrap_or(0);
    let coverage = (dom_cycles as f64 / err_cycles).min(1.0) * 100.0;
    println!(
        "mis-modeled cycle mass: {total} x |1/{actual:.2} - 1/{analytic:.2}| \
         = {:.2}M victim cycles",
        err_cycles / 1e6,
    );
    println!(
        "localization: `{}` measures {:.2}M interference cycles \u{2014} covers {coverage:.0}% \
         of the mis-modeled mass (threshold 80%); the runner-up component covers \
         only {:.0}% \u{2014} {}",
        dom.name(),
        dom_cycles as f64 / 1e6,
        (runner_up as f64 / err_cycles).min(1.0) * 100.0,
        if coverage >= 80.0 { "PASS" } else { "FAIL" },
    );
    Some((dom, coverage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_math() {
        let mut env = Envelope::default();
        // A non-finite or non-positive value on either side is skipped.
        for (tier, reference) in [(1.0, 0.0), (1.0, f64::NAN), (1.0, f64::INFINITY), (0.0, 1.0)] {
            assert!(!env.add("c", "skipped".to_owned(), tier, reference));
        }
        // An empty class (or envelope) summarises to nothing.
        assert_eq!(env.summary(None), None);
        assert_eq!(env.summary(Some("c")), None);
        // Symmetric: 10% over and 10% under the reference are one error,
        // and equal errors have that error as their geomean.
        assert!(env.add("c", "over".to_owned(), 1.1, 1.0));
        assert!(env.add("c", "under".to_owned(), 1.0, 1.1));
        let s = env.summary(Some("c")).expect("two samples");
        assert_eq!(s.samples, 2);
        assert!((s.geomean - 0.1).abs() < 1e-12);
        // The worst cell is the maximum, named; "all" spans the classes.
        assert!(env.add("d", "worst".to_owned(), 3.0, 2.0));
        assert!(env.add("d", "exact".to_owned(), 2.0, 2.0));
        let all = env.summary(None).expect("samples");
        assert_eq!((all.samples, all.worst, all.worst_cell.as_str()), (4, 0.5, "worst"));
        assert_eq!(env.summary(Some("e")), None);
    }

    #[test]
    fn sweep_sizes() {
        assert_eq!(sweep(Scale::reduced()).len(), FULL_SWEEP);
        assert_eq!(sweep(Scale::tiny()).len(), 7);
        // The workload count picks the sweep, never the scale preset.
        let mut full = Scale::full();
        full.workloads = 4;
        assert_eq!(sweep(full).len(), 7);
        let mut reduced = Scale::reduced();
        reduced.workloads = 100;
        assert_eq!(sweep(reduced).len(), FULL_SWEEP);
        // Pairs first: the ledger campaign is the sweep's prefix.
        let s = sweep(Scale::reduced());
        assert!(s[..36].iter().all(|m| m.len() == 2) && s[36..].iter().all(|m| m.len() == 4));
    }

    #[test]
    fn summary_rows_format() {
        let mut env = Envelope::default();
        env.add("c", "[a]+b".to_owned(), 1.1, 1.0);
        assert_eq!(row("x".to_owned(), env.summary(None)), ["x", "1", "10.0%", "10.0%", "[a]+b"]);
        assert_eq!(row("y".to_owned(), None), ["y", "0", "-", "-", "-"]);
        assert_eq!(err_pct(sym_err(1.0, 0.0)), "-");
        let pair = ["cg_like", "libquantum_like"].map(|n| suite::by_name(n).expect("profile"));
        assert_eq!(cell(&pair, 0), "[cg]+libquantum");
        assert_eq!(cell(&pair, 1), "cg+[libquantum]");
    }

    #[test]
    fn the_cliff_is_localized_at_every_scale() {
        // Suite scale localizes from the sweep's own cliff run ...
        for scale in [Scale::reduced(), Scale::full()] {
            assert!(sweep(scale).iter().any(|m| is_cliff(m)), "no libquantum→cg cell");
        }
        // ... and the smoke subset, which lacks it, simulates it alone.
        assert!(!sweep(Scale::tiny()).iter().any(|m| is_cliff(m)));
        assert!(localize_cliff(&Session::default(), Scale::tiny()).is_some());
    }
}
