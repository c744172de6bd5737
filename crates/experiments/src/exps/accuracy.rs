//! Cross-tier accuracy dashboard (`accuracy`).
//!
//! Joins the attribution ledger's ground truth (DESIGN.md §13) against
//! every slowdown estimate the repo produces, over the interference
//! matrix's ordered victim←aggressor pairs:
//!
//! - **cycle**: the cycle-accurate simulator with the ledger enabled —
//!   the ground truth every other column is judged against, plus the
//!   exact per-victim stall decomposition;
//! - **ASM**: the online estimator's per-quantum slowdown estimates
//!   (warmup quanta skipped), against the same run's actual slowdown;
//! - **analytic**: the reuse-distance tier (DESIGN.md §10) on the same
//!   configuration;
//! - **sampled**: the representative-interval tier (DESIGN.md §12).
//!   The sampled tier returns *exact* values for a fingerprint's own
//!   configuration, so its column is measured where the tier genuinely
//!   reconstructs from medoid intervals: each pair's group plans a UCP
//!   member (the partitioned-class representative, exact by design) and
//!   an ASM-Cache member, and the dashboard scores the ASM-Cache
//!   estimate against a full cycle-accurate run of that same variant.
//!
//! The closing section localizes the analytic tier's worst documented
//! cell — the FR-FCFS starvation cliff, libquantum → cg (DESIGN.md
//! §10) — to its dominant ledger component: the unmodeled slowdown gap
//! is converted to victim cycles and covered against the component's
//! measured interference cycles, gated at ≥ 80%.
//!
//! Everything folds sequentially in sweep order over campaign results,
//! so stdout is byte-identical for every `--jobs` value.

use std::sync::Arc;

use asm_core::{
    AloneCache, CachePolicy, Component, EstimatorSet, QuantumLedger, RunAttribution, RunOptions,
    RunResult, COMPONENTS,
};
use asm_cpu::AppProfile;
use asm_metrics::Table;

use crate::collect;
use crate::plan::{self, PlannedRun};
use crate::{Scale, Session};

/// The starvation-cliff cell of DESIGN.md §10: cg (row-conflict victim,
/// slot 0) under libquantum (streaming aggressor, slot 1).
fn is_cliff(mix: &[AppProfile]) -> bool {
    mix.len() == 2 && mix[0].name() == "cg_like" && mix[1].name() == "libquantum_like"
}

/// Benchmark display name: the suite's `_like` suffix carries no
/// information in a table of suite pairs.
fn short(name: &str) -> &str {
    name.strip_suffix("_like").unwrap_or(name)
}

/// The dashboard's sweep: every ordered interference-matrix pair. Below
/// suite scale, a smoke subset — the matrix diagonal plus the
/// starvation-cliff cell, so the localization section always has its
/// subject.
#[must_use]
pub fn sweep_mixes(scale: Scale) -> Vec<Vec<AppProfile>> {
    let mut mixes = super::matrix::ordered_pairs();
    if scale.workloads < 6 {
        let cliff = mixes.iter().find(|m| is_cliff(m)).cloned();
        mixes = mixes.into_iter().step_by(7).collect();
        mixes.extend(cliff);
    }
    mixes
}

/// The ASM estimator's whole-run slowdown estimate for `app`: the mean
/// of its per-quantum estimates, skipping warmup quanta. `None` when no
/// quantum produced a finite positive estimate.
fn asm_estimate(r: &RunResult, app: usize, warmup: usize) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for q in r.quanta.iter().skip(warmup) {
        let Some(est) = q.estimates.iter().find(|(n, _)| n == "ASM") else {
            continue;
        };
        let e = est.1[app];
        if e.is_finite() && e > 0.0 {
            sum += e;
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
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

/// Absolute relative error of `est` vs `actual`, as a table cell.
fn err_cell(est: Option<f64>, actual: f64) -> (Option<f64>, String) {
    match est {
        Some(e) if e.is_finite() && actual.is_finite() && actual > 0.0 => {
            let err = asm_metrics::estimation_error_pct(e, actual);
            (Some(err), format!("{err:.1}%"))
        }
        _ => (None, "-".to_owned()),
    }
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Runs the cross-tier accuracy dashboard.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Cross-tier accuracy: ledger ground truth vs ASM / analytic / sampled ===");
    // Every tier below amortizes the same alone runs (the documented
    // idiom for tier-comparing harnesses); a CLI-installed
    // `--alone-cache` wins because first installation sticks.
    session.install_alone_cache(Arc::new(AloneCache::new()));

    let mixes = sweep_mixes(scale);
    println!("sweep: {} victim\u{2190}aggressor pairs", mixes.len());

    let mut config = scale.base_config();
    config.estimators = EstimatorSet::asm_only();

    // Ground truth: the cycle-accurate tier with the attribution ledger
    // forced on (whether or not --report asked for it; the sink still
    // records every run, so the report covers them).
    let mut opts = session.run_options();
    opts.attrib = true;
    let runs = plan::cross(&[config.clone()], &mixes, scale.cycles);
    let (truth, stats) = plan::run_campaign_counted(session, &runs, scale.jobs, opts);
    eprintln!("{stats}");
    session.record(&truth);

    // Analytic tier on the same configuration.
    let solutions = crate::analytic::solve_mixes_in(session, &config, &mixes, scale.jobs);

    // Sampled tier: per pair, a two-member partitioned-class group. UCP
    // becomes the class representative (its estimate is exact by
    // design), so the ASM-Cache member is the one the tier genuinely
    // reconstructs from K medoid intervals — that is the estimate the
    // dashboard scores, against a full run of the same variant.
    let mut ucp = config.clone();
    ucp.cache_policy = CachePolicy::Ucp;
    let mut asmc = config.clone();
    asmc.cache_policy = CachePolicy::AsmCache;
    let planned: Vec<PlannedRun> = mixes
        .iter()
        .flat_map(|m| {
            [
                PlannedRun::new(ucp.clone(), m.clone(), scale.cycles),
                PlannedRun::new(asmc.clone(), m.clone(), scale.cycles),
            ]
        })
        .collect();
    let sampled = crate::sampled::run_campaign_in(session, &planned, &scale);
    // Uninstrumented and unrecorded: a reference, not a subject.
    let runs = plan::cross(&[asmc], &mixes, scale.cycles);
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
    let (mut asm_errs, mut ana_errs, mut smp_errs) = (Vec::new(), Vec::new(), Vec::new());
    let mut smp_cis = Vec::new();
    for (k, m) in mixes.iter().enumerate() {
        let t = &truth[k];
        let attrib = t.attribution.as_ref().expect("attribution forced on");
        let actual = t.whole_run_slowdowns[0];
        let (asm_err, asm_cell) =
            err_cell(asm_estimate(t, 0, scale.warmup_quanta), actual);
        let (ana_err, ana_cell) = err_cell(Some(solutions[k].slowdowns[0]), actual);
        let smp = sampled[2 * k + 1].slowdowns[0];
        let (smp_err, smp_cell) =
            err_cell(Some(smp.value), asmc_truth[k].whole_run_slowdowns[0]);
        smp_cis.push(smp.ci);
        asm_errs.extend(asm_err);
        ana_errs.extend(ana_err);
        smp_errs.extend(smp_err);
        let (dom, dom_cycles, interference, total) = ledger_breakdown(attrib, 0);
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
            format!("{} \u{2190} {}", short(&m[0].name()), short(&m[1].name())),
            format!("{actual:.2}x"),
            asm_cell,
            ana_cell,
            smp_cell,
            ledger_cell,
        ]);
    }
    session.emit("accuracy", &table);
    println!(
        "* sampled errors score the ASM-Cache variant of each pair against its own \
         full cycle run: the sampled tier is exact on a fingerprint's own \
         configuration (DESIGN.md \u{a7}12), so the neutral cell would measure nothing."
    );
    println!(
        "mean |err| vs cycle ground truth: ASM {}, analytic {}, sampled {} \
         (mean 95% CI half-width {:.4}; 0 would mean the tier fell back to full runs)",
        collect::pct(mean(&asm_errs)),
        collect::pct(mean(&ana_errs)),
        collect::pct(mean(&smp_errs)),
        mean(&smp_cis).unwrap_or(f64::NAN),
    );

    if let Some(k) = mixes.iter().position(|m| is_cliff(m)) {
        localize_cliff(&truth[k], solutions[k].slowdowns[0]);
    }
}

/// The acceptance claim: localize the starvation cliff's analytic error
/// (DESIGN.md §10) to a named ledger component. The slowdown error is
/// converted into victim cycles — `total × |1/s_cycle − 1/s_analytic|`,
/// the mis-modeled alone-equivalent cycle mass, a direction-neutral
/// measure (at full scale the linear row-hit-first bias term saturates
/// below the simulated starvation and the tier underestimates; at short
/// horizons the starvation has not compounded yet and the same term
/// overshoots) — then covered against the dominant component's measured
/// interference cycles.
fn localize_cliff(t: &RunResult, analytic: f64) {
    let attrib = t.attribution.as_ref().expect("attribution forced on");
    let actual = t.whole_run_slowdowns[0];
    let n = t.app_names.len();
    println!("\n=== Starvation-cliff localization: libquantum \u{2192} cg (DESIGN.md \u{a7}10) ===");
    println!(
        "victim cg: cycle {actual:.2}x vs analytic {analytic:.2}x ({})",
        collect::pct(Some(asm_metrics::estimation_error_pct(analytic, actual))),
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
    if !(actual.is_finite() && actual > 0.0 && analytic.is_finite() && analytic > 0.0) {
        println!("localization: no finite slowdowns — skipped");
        return;
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
        "localization: `{}` measures {:.2}M interference cycles — covers {coverage:.0}% \
         of the mis-modeled mass (threshold 80%); the runner-up component covers \
         only {:.0}% — {}",
        dom.name(),
        dom_cycles as f64 / 1e6,
        (runner_up as f64 / err_cycles).min(1.0) * 100.0,
        if coverage >= 80.0 { "PASS" } else { "FAIL" },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_always_contains_the_cliff_cell() {
        for scale in [Scale::tiny(), Scale::reduced(), Scale::full()] {
            let mixes = sweep_mixes(scale);
            assert!(
                mixes.iter().any(|m| is_cliff(m)),
                "no libquantum→cg cell at {:?} scale",
                scale.tier
            );
        }
        assert_eq!(sweep_mixes(Scale::reduced()).len(), 36);
        assert_eq!(sweep_mixes(Scale::tiny()).len(), 7);
    }

    #[test]
    fn err_cell_formats() {
        let (e, s) = err_cell(Some(1.1), 1.0);
        assert!((e.unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(s, "10.0%");
        assert_eq!(err_cell(None, 1.0), (None, "-".to_owned()));
        assert_eq!(err_cell(Some(1.0), 0.0), (None, "-".to_owned()));
    }
}
