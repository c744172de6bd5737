//! Experiment scale: the paper simulates 100 workloads × 100 M cycles per
//! configuration; the default scale here is reduced so the whole suite
//! finishes in minutes. `--full` restores paper scale.

use asm_core::{EstimatorSet, SystemConfig};
use asm_simcore::Cycle;

/// Which simulation tier an experiment runs on (`--tier`).
///
/// The cycle tier is the event-driven `asm_core::System`; the analytic
/// tier is the reuse-distance model in `asm-analytic`, which trades
/// per-cycle fidelity for mix throughput measured in microseconds (see
/// DESIGN.md §10). The sampled tier simulates only `K` representative
/// intervals per run and reports every metric with a confidence interval
/// (DESIGN.md §12). Which experiments accept which tier is a column of
/// [`crate::exps::TABLE`]; [`crate::collect::tier_slowdowns`] is where a
/// tier becomes a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Cycle-accurate event-driven simulation (the default).
    #[default]
    Cycle,
    /// Analytical reuse-distance slowdown model.
    Analytic,
    /// Representative-interval sampling with confidence intervals.
    Sampled,
}

impl Tier {
    /// The CLI spelling of this tier.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Cycle => "cycle",
            Tier::Analytic => "analytic",
            Tier::Sampled => "sampled",
        }
    }

    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cycle" => Some(Tier::Cycle),
            "analytic" => Some(Tier::Analytic),
            "sampled" => Some(Tier::Sampled),
            _ => None,
        }
    }
}

/// The tier sets of [`crate::exps::TABLE`]: most experiments study
/// per-quantum estimator behaviour, which only the cycle tier has.
pub const CYCLE: &[Tier] = &[Tier::Cycle];
/// Policy sweeps: their runs share prefix configurations, so one
/// fingerprint pass amortises over many variants (DESIGN.md §12).
pub const CYCLE_SAMPLED: &[Tier] = &[Tier::Cycle, Tier::Sampled];
/// Studies that read whole-run slowdowns only (DESIGN.md §10).
pub const CYCLE_ANALYTIC: &[Tier] = &[Tier::Cycle, Tier::Analytic];

/// How big to run each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of multi-programmed workloads per configuration.
    pub workloads: usize,
    /// Simulated cycles per run.
    pub cycles: Cycle,
    /// Quantum length Q.
    pub quantum: Cycle,
    /// Epoch length E.
    pub epoch: Cycle,
    /// Leading quanta excluded from error statistics (cache warm-up).
    pub warmup_quanta: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the sweep (`--jobs`). Schedule-only state: it
    /// decides how runs are spread across cores, never what they compute
    /// (see DESIGN.md §8).
    pub jobs: usize,
    /// Deterministic fast-forward (`--no-skip` clears it). Like `jobs`,
    /// this may never change what a run computes — outputs are
    /// byte-identical either way (see DESIGN.md §8).
    pub skip: bool,
    /// Simulation tier (`--tier cycle|analytic|sampled`).
    pub tier: Tier,
    /// Representative intervals simulated per run on the sampled tier
    /// (`--sample-intervals`, the clustering's `K`). Ignored elsewhere.
    pub sample_intervals: usize,
    /// Quanta per sampling interval (`--sample-quanta`, the interval
    /// length `L` in units of Q). Ignored outside the sampled tier.
    pub sample_quanta: u64,
}

impl Scale {
    /// The default reduced scale (minutes for the whole suite).
    #[must_use]
    pub fn reduced() -> Self {
        Scale {
            workloads: 15,
            cycles: 8_000_000,
            quantum: 1_000_000,
            epoch: 10_000,
            warmup_quanta: 2,
            seed: 42,
            jobs: crate::pool::default_jobs(),
            skip: true,
            tier: Tier::default(),
            sample_intervals: 4,
            sample_quanta: 1,
        }
    }

    /// The paper's scale (§5): Q = 5 M, E = 10 k, 100 workloads, 100 M
    /// cycles. Expect hours.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            workloads: 100,
            cycles: 100_000_000,
            quantum: 5_000_000,
            epoch: 10_000,
            warmup_quanta: 2,
            seed: 42,
            jobs: crate::pool::default_jobs(),
            skip: true,
            tier: Tier::default(),
            sample_intervals: 4,
            sample_quanta: 1,
        }
    }

    /// A tiny scale for smoke tests and benches. Single-threaded: at this
    /// size spawn overhead would dominate the runs themselves.
    #[must_use]
    pub fn tiny() -> Self {
        Scale {
            workloads: 2,
            cycles: 600_000,
            quantum: 200_000,
            epoch: 5_000,
            warmup_quanta: 1,
            seed: 42,
            jobs: 1,
            skip: true,
            tier: Tier::default(),
            sample_intervals: 2,
            sample_quanta: 1,
        }
    }

    /// The sampled tier's interval geometry at this scale.
    #[must_use]
    pub fn sample_spec(&self) -> asm_sampling::SampleSpec {
        asm_sampling::SampleSpec {
            intervals: self.sample_intervals,
            quanta: self.sample_quanta,
        }
    }

    /// Base system configuration at this scale (Table 2 hardware).
    #[must_use]
    pub fn base_config(&self) -> SystemConfig {
        let mut c = SystemConfig::default();
        c.quantum = self.quantum;
        c.epoch = self.epoch;
        c.seed = self.seed;
        c.skip_mode = self.skip;
        c
    }

    /// Workloads per `cores`-core point of a core-count sweep: total
    /// simulation work stays roughly constant (alone runs scale linearly
    /// with cores).
    #[must_use]
    pub fn workloads_for(&self, cores: usize) -> usize {
        (self.workloads.saturating_mul(4) / cores).max(2)
    }

    /// FST and PTCA at their best: every estimator observing a full
    /// (unsampled) ATS, FST with a pollution filter of equal overhead
    /// (2048 sets x 16 ways x 4 B).
    #[must_use]
    pub fn unsampled_config(&self) -> SystemConfig {
        let mut c = self.base_config();
        c.estimators = EstimatorSet::all();
        c.ats_sampled_sets = None;
        c.pollution_filter_bits = 1 << 20;
        c
    }

    /// ASM as deployed: every estimator observing the 64-set sampled ATS.
    #[must_use]
    pub fn deployed_config(&self) -> SystemConfig {
        let mut c = self.base_config();
        c.estimators = EstimatorSet::all();
        c.ats_sampled_sets = Some(64);
        c
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::reduced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_parameters() {
        let s = Scale::full();
        assert_eq!(s.quantum, 5_000_000);
        assert_eq!(s.epoch, 10_000);
        assert_eq!(s.workloads, 100);
    }

    #[test]
    fn base_config_inherits_q_and_e() {
        let s = Scale::reduced();
        let c = s.base_config();
        assert_eq!(c.quantum, s.quantum);
        assert_eq!(c.epoch, s.epoch);
    }
}
