//! Whole-system configuration (Table 2 defaults).

use asm_cache::CacheGeometry;
use asm_dram::{DramConfig, SchedulerKind};
use asm_simcore::{AppId, Cycle};

/// Stride-prefetcher configuration (Figure 5 uses degree 4, distance 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Prefetches issued per trigger.
    pub degree: u32,
    /// How many lines ahead of the demand stream to prefetch.
    pub distance: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            degree: 4,
            distance: 24,
        }
    }
}

/// Which slowdown estimators to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EstimatorSet {
    /// The paper's Application Slowdown Model.
    pub asm: bool,
    /// Fairness via Source Throttling \[15\].
    pub fst: bool,
    /// Per-Thread Cycle Accounting \[14\].
    pub ptca: bool,
    /// MISE \[66\] (memory interference only; §6.4).
    pub mise: bool,
    /// STFM's slowdown model \[46\] (memory interference only,
    /// per-request; §2.1).
    pub stfm: bool,
}

impl EstimatorSet {
    /// No estimators at all (pure-baseline runs).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Only ASM.
    #[must_use]
    pub fn asm_only() -> Self {
        EstimatorSet {
            asm: true,
            ..Self::default()
        }
    }

    /// The accuracy-comparison set of Figures 2-8 (ASM, FST, PTCA, MISE).
    #[must_use]
    pub fn all() -> Self {
        EstimatorSet {
            asm: true,
            fst: true,
            ptca: true,
            mise: true,
            stfm: false,
        }
    }

    /// Every implemented estimator, including STFM.
    #[must_use]
    pub fn everything() -> Self {
        EstimatorSet {
            stfm: true,
            ..Self::all()
        }
    }
}

/// Soft-slowdown-guarantee parameters (§7.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// The application of interest.
    pub target: AppId,
    /// The slowdown bound to satisfy (e.g. 2.5 for ASM-QoS-2.5).
    pub bound: f64,
}

/// The shared-cache allocation policy applied at each quantum boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachePolicy {
    /// No partitioning (free-for-all LRU).
    None,
    /// Utility-based Cache Partitioning \[56\]: miss-count utility.
    Ucp,
    /// MLP- and cache-friendliness-aware quasi-partitioning \[27\]
    /// (simplified; see `mech::mcfq`).
    Mcfq,
    /// ASM-Cache (§7.1): marginal *slowdown* utility from ASM estimates.
    AsmCache,
    /// ASM-QoS (§7.3): smallest allocation meeting the target's bound,
    /// ASM-Cache for the rest.
    AsmQos(QosConfig),
    /// Naive-QoS (§7.3): all ways to the target application.
    NaiveQos(AppId),
}

/// How epochs are assigned to applications (§4.2, §7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPolicy {
    /// Every application equally likely per epoch (plain ASM).
    Uniform,
    /// Probability proportional to estimated slowdown (ASM-Mem, §7.2).
    SlowdownWeighted,
}

/// Source-throttling policy applied at quantum boundaries (§8; FST's
/// actuator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThrottlePolicy {
    /// No throttling.
    None,
    /// FST: when estimated unfairness exceeds the threshold, throttle the
    /// least-slowed-down application's outstanding-miss budget one level.
    Fst {
        /// Unfairness (max/min slowdown) trigger (FST uses ~1.4).
        unfairness_threshold: f64,
    },
}

/// How the epoch owner is drawn (§4.2 notes that round-robin "could also
/// achieve similar effects"; ASM uses probabilistic assignment so ASM-Mem
/// can be built on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochAssignment {
    /// Sample the owner from the (possibly slowdown-weighted) distribution.
    Probabilistic,
    /// Strict rotation; ignores weights (ablation only).
    RoundRobin,
}

/// Full system configuration. Defaults reproduce Table 2's main
/// configuration: 5.3 GHz 3-wide cores with 128-entry windows, 64 KB 4-way
/// private L1s (1-cycle), a 2 MB 16-way shared LLC (20-cycle), and
/// 1-channel DDR3-1333 with FR-FCFS, plus the paper's ASM parameters
/// (Q = 5 M cycles, E = 10 k cycles, 64-set sampled ATS).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Private L1 geometry (64 KB, 4-way).
    pub l1_geometry: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_latency: Cycle,
    /// Shared last-level cache geometry (2 MB, 16-way).
    pub llc_geometry: CacheGeometry,
    /// LLC hit latency in cycles.
    pub llc_latency: Cycle,
    /// Main-memory configuration.
    pub dram: DramConfig,
    /// Memory-scheduling policy.
    pub scheduler: SchedulerKind,
    /// Quantum length Q in cycles.
    pub quantum: Cycle,
    /// Epoch length E in cycles.
    pub epoch: Cycle,
    /// Whether epoch prioritisation runs at all (off for pure-baseline
    /// scheduler comparisons).
    pub epochs_enabled: bool,
    /// Auxiliary-tag-store sampling: `None` = full ATS, `Some(n)` = `n`
    /// sampled sets (§4.4; the paper's default is 64).
    pub ats_sampled_sets: Option<usize>,
    /// Pollution-filter size in bits (per application, for FST).
    pub pollution_filter_bits: usize,
    /// Optional stride prefetcher (Figure 5).
    pub prefetcher: Option<PrefetchConfig>,
    /// Which estimators to run.
    pub estimators: EstimatorSet,
    /// Cache-allocation mechanism.
    pub cache_policy: CachePolicy,
    /// Epoch-assignment (bandwidth-partitioning) mechanism.
    pub mem_policy: MemPolicy,
    /// How the epoch owner is drawn.
    pub epoch_assignment: EpochAssignment,
    /// Source-throttling mechanism.
    pub throttle_policy: ThrottlePolicy,
    /// Whether ASM applies the §4.3 memory-queueing-delay correction
    /// (ablation switch; the paper's model has it on).
    pub asm_queueing_correction: bool,
    /// Deterministic fast-forward: when no component can change state
    /// before cycle `now + k`, advance the clock by `k` in one jump
    /// instead of ticking `k` times. Bitwise-exact — the same
    /// [`crate::QuantumRecord`]s, estimator outputs and CSV bytes as the
    /// cycle-by-cycle loop (pinned by the skip-equivalence tests; see
    /// DESIGN.md §8). Default on; `--no-skip` in `asm-experiments` turns
    /// it off.
    pub skip_mode: bool,
    /// Master seed: the whole simulation is a pure function of this (plus
    /// the workload).
    pub seed: u64,
    /// Milestone interval (instructions) for alone-run progress logs.
    pub progress_interval: u64,
    /// When set, estimators collect alone-miss-latency histograms with the
    /// given (bucket width in cycles, bucket count) — Figure 6.
    pub latency_hist: Option<(f64, usize)>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            l1_geometry: CacheGeometry::from_capacity(64 * 1024, 4),
            l1_latency: 1,
            llc_geometry: CacheGeometry::from_capacity(2 * 1024 * 1024, 16),
            llc_latency: 20,
            dram: DramConfig::default(),
            scheduler: SchedulerKind::FrFcfs,
            quantum: 5_000_000,
            epoch: 10_000,
            epochs_enabled: true,
            ats_sampled_sets: Some(64),
            pollution_filter_bits: 1 << 14,
            prefetcher: None,
            estimators: EstimatorSet::asm_only(),
            cache_policy: CachePolicy::None,
            mem_policy: MemPolicy::Uniform,
            epoch_assignment: EpochAssignment::Probabilistic,
            throttle_policy: ThrottlePolicy::None,
            asm_queueing_correction: true,
            skip_mode: true,
            seed: 1,
            progress_interval: 1_000,
            latency_hist: None,
        }
    }
}

impl SystemConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the epoch does not divide the quantum, or the ATS sample
    /// count does not divide the LLC set count.
    pub fn validate(&self) {
        assert!(
            self.epoch > 0 && self.quantum > 0,
            "Q and E must be positive"
        );
        assert!(
            self.quantum.is_multiple_of(self.epoch),
            "epoch length must divide quantum length"
        );
        if let Some(n) = self.ats_sampled_sets {
            assert!(
                n > 0 && self.llc_geometry.sets().is_multiple_of(n),
                "ATS sample count must divide LLC set count"
            );
        }
        assert!(
            self.pollution_filter_bits.is_power_of_two(),
            "pollution filter bits must be a power of two"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = SystemConfig::default();
        assert_eq!(c.llc_geometry.sets() * c.llc_geometry.ways() * 64, 2 * 1024 * 1024);
        assert_eq!(c.llc_geometry.ways(), 16);
        assert_eq!(c.l1_geometry.sets() * c.l1_geometry.ways() * 64, 64 * 1024);
        assert_eq!(c.quantum, 5_000_000);
        assert_eq!(c.epoch, 10_000);
        assert_eq!(c.ats_sampled_sets, Some(64));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "divide quantum")]
    fn validate_rejects_misaligned_epoch() {
        let mut c = SystemConfig::default();
        c.epoch = 7_000;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "ATS sample count")]
    fn validate_rejects_bad_ats_sampling() {
        let mut c = SystemConfig::default();
        c.ats_sampled_sets = Some(100);
        c.validate();
    }

    #[test]
    fn estimator_sets() {
        assert!(EstimatorSet::asm_only().asm);
        assert!(!EstimatorSet::asm_only().fst);
        let all = EstimatorSet::all();
        assert!(all.asm && all.fst && all.ptca && all.mise);
    }
}
