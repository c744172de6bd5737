//! Cross-validation of the analytic tier against the cycle-accurate
//! simulator (`xval`).
//!
//! Runs *both* tiers over the gated validation sweep — every ordered
//! pair of the interference-matrix application set (36 configurations)
//! plus two intensity-binned 4-app mixes — and over extra stratified
//! random mixes, then reports the per-workload-class disagreement
//! envelope of the per-app slowdowns. The headline number, the geometric
//! mean of `max(s_analytic, s_cycle) / min(s_analytic, s_cycle) − 1`
//! over the sweep, is gated at ≤ 10% by
//! `crates/experiments/tests/analytic_gate.rs`; the per-class envelope
//! is recorded in EXPERIMENTS.md.
//!
//! Both tiers fan across the `--jobs` pool; the error fold below runs
//! sequentially in workload order, so the emitted table is byte-identical
//! for every `--jobs` value.

use std::collections::BTreeMap;

use asm_analytic::WorkloadClass;
use asm_core::EstimatorSet;
use asm_cpu::AppProfile;
use asm_metrics::Table;
use asm_workloads::mix;

use crate::{Scale, Session};

/// Per-app tier-disagreement samples, grouped by workload class.
///
/// Each sample is the symmetric relative error of one app's slowdown in
/// one mix: `max(s_a, s_c) / min(s_a, s_c) − 1` (0 = tiers agree).
#[derive(Debug, Default, Clone)]
pub struct Envelope {
    /// Samples per class display name.
    pub per_class: BTreeMap<&'static str, Vec<f64>>,
}

impl Envelope {
    /// All samples, in class display order.
    #[must_use]
    pub fn all_samples(&self) -> Vec<f64> {
        self.per_class.values().flatten().copied().collect()
    }

    /// Geometric mean of `1 + err` over the samples, minus 1 — the
    /// multiplicative average disagreement. `None` when empty.
    #[must_use]
    pub fn geomean(samples: &[f64]) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        let s: f64 = samples.iter().map(|e| (1.0 + e).ln()).sum();
        Some((s / samples.len() as f64).exp() - 1.0)
    }

    /// Worst single-app disagreement. `None` when empty.
    #[must_use]
    pub fn worst(samples: &[f64]) -> Option<f64> {
        samples.iter().copied().fold(None, |m, e| {
            Some(m.map_or(e, |m: f64| m.max(e)))
        })
    }
}

/// Size of the full gated validation sweep: the 36 ordered
/// interference-matrix pairs plus two intensity-binned 4-app mixes.
pub const FULL_SWEEP: usize = 38;

/// The gated validation sweep at this scale: the 36 ordered
/// interference-matrix pairs plus two intensity-binned 4-app mixes
/// ([`FULL_SWEEP`] configurations). Below suite scale (`--tiny`), a
/// smoke subset: the 6 self-pairs plus one binned mix.
#[must_use]
pub fn sweep_mixes(scale: Scale) -> Vec<Vec<AppProfile>> {
    let mut mixes = super::matrix::ordered_pairs();
    if scale.workloads < 6 {
        // CI smoke: the matrix diagonal (one self-pair per app class).
        mixes = mixes.into_iter().step_by(7).collect();
        mixes.extend(mix::binned_mixes(1, 4, scale.seed));
    } else {
        mixes.extend(mix::binned_mixes(2, 4, scale.seed));
    }
    mixes
}

/// Runs both tiers over `mixes` and folds the per-app disagreement
/// envelope. Public so the gating test can enforce it directly.
#[must_use]
pub fn envelope(session: &Session, scale: Scale, mixes: &[Vec<AppProfile>]) -> Envelope {
    let mut config = scale.base_config();
    config.estimators = EstimatorSet::none();
    config.epochs_enabled = false;
    let runs = crate::plan::cross(&[config.clone()], mixes, scale.cycles / 2);
    let results = crate::plan::run_campaign_in(session, &runs, scale.jobs);
    let solutions = crate::analytic::solve_mixes_in(session, &config, mixes, scale.jobs);
    let mut env = Envelope::default();
    for (r, s) in results.iter().zip(&solutions) {
        for i in 0..s.slowdowns.len() {
            let c = r.whole_run_slowdowns[i];
            let a = s.slowdowns[i];
            if !(c.is_finite() && c > 0.0 && a.is_finite() && a > 0.0) {
                continue;
            }
            let err = a.max(c) / a.min(c) - 1.0;
            env.per_class
                .entry(s.classes[i].name())
                .or_default()
                .push(err);
        }
    }
    env
}

fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "-".to_owned(),
    }
}

/// Runs the cross-validation experiment.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Cross-validation: analytic tier vs cycle-accurate (per-app slowdown) ===");
    let sweep = sweep_mixes(scale);
    let apps: usize = sweep.iter().map(Vec::len).sum();
    println!("sweep: {} mixes ({apps} app slots)", sweep.len());
    let env = envelope(session, scale, &sweep);

    // Extra stratified (intensity-binned) random mixes beyond the gated
    // sweep, to probe mixes the calibration never saw.
    let extras = mix::binned_mixes(scale.workloads.min(8), 4, scale.seed + 0x5eed);
    let extra_env = envelope(session, scale, &extras);

    let mut table = Table::new(
        ["mix set / class", "apps", "geomean err", "max err"]
            .map(str::to_owned)
            .to_vec(),
    );
    for class in WorkloadClass::all() {
        let Some(samples) = env.per_class.get(class.name()) else {
            continue;
        };
        table.row(vec![
            format!("sweep: {}", class.name()),
            samples.len().to_string(),
            pct(Envelope::geomean(samples)),
            pct(Envelope::worst(samples)),
        ]);
    }
    let all = env.all_samples();
    table.row(vec![
        "sweep: all".to_owned(),
        all.len().to_string(),
        pct(Envelope::geomean(&all)),
        pct(Envelope::worst(&all)),
    ]);
    let extra_all = extra_env.all_samples();
    table.row(vec![
        "random 4-app mixes".to_owned(),
        extra_all.len().to_string(),
        pct(Envelope::geomean(&extra_all)),
        pct(Envelope::worst(&extra_all)),
    ]);
    session.emit("xval", &table);

    let gate = Envelope::geomean(&all).unwrap_or(f64::INFINITY);
    // Enforce exactly when the *gated suite* actually ran. Deriving this
    // from `scale.workloads` (as the gate line once did) misfires in both
    // directions: `--full --workloads 4` runs all 38 sweep configs yet
    // claimed to be informational, while the workload count never decides
    // which sweep `sweep_mixes` emits in the first place.
    if sweep.len() < FULL_SWEEP {
        println!(
            "gate: sweep geomean per-app error {} (informational — smoke \
             subset, {} of {} sweep configs; the 10% gate is enforced over \
             the full sweep, see tests/analytic_gate.rs)",
            pct(Some(gate)),
            sweep.len(),
            FULL_SWEEP,
        );
    } else {
        println!(
            "gate: sweep geomean per-app error {} over {} configs \
             (threshold 10.0%) — {}",
            pct(Some(gate)),
            sweep.len(),
            if gate <= 0.10 { "PASS" } else { "FAIL" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_math() {
        assert_eq!(Envelope::geomean(&[]), None);
        let g = Envelope::geomean(&[0.1, 0.1]).unwrap();
        assert!((g - 0.1).abs() < 1e-12);
        assert_eq!(Envelope::worst(&[0.05, 0.2, 0.1]), Some(0.2));
    }

    #[test]
    fn sweep_sizes() {
        assert_eq!(sweep_mixes(Scale::reduced()).len(), FULL_SWEEP);
        assert_eq!(sweep_mixes(Scale::tiny()).len(), 7);
        // The gate-enforcement decision keys on the sweep itself, so the
        // workload count (a random-mix knob) must not change it.
        let mut full = Scale::full();
        full.workloads = 4;
        assert_eq!(sweep_mixes(full).len(), 7);
        let mut reduced = Scale::reduced();
        reduced.workloads = 100;
        assert_eq!(sweep_mixes(reduced).len(), FULL_SWEEP);
    }
}
