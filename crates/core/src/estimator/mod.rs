//! Slowdown estimators.
//!
//! All estimators are passive observers of the same simulated execution:
//! the [`crate::System`] feeds its [`Estimators`] bank shared-cache access
//! events and main-memory completion events, and asks it for
//! per-application slowdown estimates at every quantum boundary. This
//! mirrors the paper's methodology, where ASM, FST and PTCA are evaluated
//! on identical workloads (§5).
//!
//! | Estimator | Granularity | Cache interference via | Paper |
//! |---|---|---|---|
//! | [`AsmEstimator`] | aggregate (epochs) | ATS contention-miss *count* | this paper |
//! | [`PerRequestEstimator::fst`] | per request | pollution filter | \[15\] |
//! | [`PerRequestEstimator::ptca`] | per request | ATS per-request | \[14\] |
//! | [`MiseEstimator`] | aggregate (epochs) | — (memory only) | \[66\] |
//! | [`StfmEstimator`] | per request | — (memory only) | \[46\] |

mod asm_model;
mod mise;
mod per_request;
mod stfm;

pub use asm_model::AsmEstimator;
pub use mise::MiseEstimator;
pub use per_request::PerRequestEstimator;
pub use stfm::StfmEstimator;

use asm_cache::AtsOutcome;
use asm_simcore::{AppId, Cycle, Histogram};

use crate::config::SystemConfig;

/// The estimators' display names in report order: entry `i` of
/// [`Estimators::on_quantum_end`] is the estimate of `NAMES[i]`.
pub const NAMES: [&str; 5] = ["ASM", "FST", "PTCA", "MISE", "STFM"];

/// The estimators a configuration instantiates, one field each
/// ([`EstimatorSet`](crate::EstimatorSet) says which are present).
///
/// Events enter through four methods, each one direct call per present
/// estimator; each estimator accumulates state over a quantum and resets
/// it when asked for its estimates. The [`Persist`](asm_simcore::persist::Persist)
/// state is that accumulated quantum state, and the presence of each
/// estimator is structural: a snapshot restores only into a bank built
/// from the same set.
#[derive(Debug)]
pub struct Estimators {
    asm: Option<AsmEstimator>,
    fst: Option<PerRequestEstimator>,
    ptca: Option<PerRequestEstimator>,
    mise: Option<MiseEstimator>,
    stfm: Option<StfmEstimator>,
}

impl Estimators {
    /// Builds the estimators `config.estimators` asks for, for `apps`
    /// applications.
    #[must_use]
    pub fn new(config: &SystemConfig, apps: usize) -> Self {
        let set = config.estimators;
        let (lat, hist) = (config.llc_latency, config.latency_hist);
        let sampling_factor = config
            .ats_sampled_sets
            .map_or(1.0, |s| config.llc_geometry.sets() as f64 / s as f64);
        Estimators {
            asm: set
                .asm
                .then(|| AsmEstimator::new(apps, lat, hist, config.asm_queueing_correction)),
            fst: set.fst.then(|| PerRequestEstimator::fst(apps, lat, hist)),
            ptca: set
                .ptca
                .then(|| PerRequestEstimator::ptca(apps, lat, sampling_factor, hist)),
            mise: set.mise.then(|| MiseEstimator::new(apps)),
            stfm: set.stfm.then(|| StfmEstimator::new(apps)),
        }
    }

    /// Notifies the estimators that a new epoch began with the given owner.
    pub fn on_epoch_start(&mut self, owner: Option<AppId>) {
        if let Some(asm) = &mut self.asm {
            asm.on_epoch_start(owner);
        }
        if let Some(mise) = &mut self.mise {
            mise.on_epoch_start(owner);
        }
    }

    /// Observes a demand access to the shared cache.
    pub fn on_access(&mut self, ev: &AccessEvent) {
        if let Some(asm) = &mut self.asm {
            asm.on_access(ev);
        }
        if let Some(mise) = &mut self.mise {
            mise.on_access(ev);
        }
    }

    /// Observes a completed demand miss.
    pub fn on_miss_complete(&mut self, ev: &MissEvent) {
        if let Some(asm) = &mut self.asm {
            asm.on_miss_complete(ev);
        }
        if let Some(fst) = &mut self.fst {
            fst.on_miss_complete(ev);
        }
        if let Some(ptca) = &mut self.ptca {
            ptca.on_miss_complete(ev);
        }
        if let Some(mise) = &mut self.mise {
            mise.on_miss_complete(ev);
        }
        if let Some(stfm) = &mut self.stfm {
            stfm.on_miss_complete(ev);
        }
    }

    /// Per-application slowdown estimates for the finished quantum, indexed
    /// like [`NAMES`] (`None` where the estimator is absent); every present
    /// estimator resets its quantum state.
    pub fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> [Option<Vec<f64>>; 5] {
        [
            self.asm.as_mut().map(|e| e.on_quantum_end(ctx)),
            self.fst.as_mut().map(|e| e.on_quantum_end(ctx)),
            self.ptca.as_mut().map(|e| e.on_quantum_end(ctx)),
            self.mise.as_mut().map(|e| e.on_quantum_end(ctx)),
            self.stfm.as_mut().map(|e| e.on_quantum_end(ctx)),
        ]
    }

    /// ASM, when present: the quantum boundary reads its `CAR_alone`
    /// estimates and ATS samples for the mechanisms and the record.
    #[must_use]
    pub fn asm(&self) -> Option<&AsmEstimator> {
        self.asm.as_ref()
    }

    /// The alone-miss-latency histograms (Figure 6) of the estimators that
    /// collect one, named and in report order.
    pub fn latency_hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        let hists = [
            self.asm.as_ref().and_then(AsmEstimator::miss_latency_histogram),
            self.fst.as_ref().and_then(PerRequestEstimator::miss_latency_histogram),
            self.ptca.as_ref().and_then(PerRequestEstimator::miss_latency_histogram),
        ];
        NAMES.into_iter().zip(hists).filter_map(|(name, h)| Some((name, h?)))
    }
}

asm_simcore::persist_fields!(Estimators { [asm], [fst], [ptca], [mise], [stfm] });

/// A demand access to the shared cache, observed as it happens.
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// Current cycle.
    pub now: Cycle,
    /// The accessing application.
    pub app: AppId,
    /// Whether the access hit in the shared cache.
    pub llc_hit: bool,
    /// The auxiliary-tag-store outcome, if the line's set is sampled.
    pub ats: Option<AtsOutcome>,
    /// The application currently holding epoch priority, if any.
    pub epoch_owner: Option<AppId>,
}

/// A completed main-memory read for a demand miss.
#[derive(Debug, Clone, Copy)]
pub struct MissEvent {
    /// The owning application.
    pub app: AppId,
    /// Cycle the miss entered the memory system.
    pub arrival: Cycle,
    /// Cycle the data returned.
    pub finish: Cycle,
    /// Cycles spent waiting behind other applications' bank occupancy
    /// (the per-request interference signal).
    pub interference_cycles: Cycle,
    /// The application's concurrent outstanding misses at completion
    /// (per-request models use this as a parallelism divisor, like STFM's
    /// parallelism factor).
    pub concurrent_misses: u64,
    /// Whether the application held epoch priority when the miss issued.
    pub epoch_owned_at_issue: bool,
    /// End of the epoch in which the miss issued (`Cycle::MAX` when the
    /// application did not own that epoch). Table 1's `epoch-miss-time`
    /// counts only cycles *during assigned epochs*, so interval
    /// accumulation clips at this boundary.
    pub epoch_end: Cycle,
    /// ATS outcome captured at access time: `Some(true)` = contention miss
    /// (would have hit alone), `Some(false)` = miss even alone, `None` =
    /// set not sampled.
    pub was_ats_hit: Option<bool>,
    /// Pollution-filter outcome captured at access time.
    pub pollution_hit: bool,
}

impl MissEvent {
    /// Total memory latency of the miss.
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.finish - self.arrival
    }
}

/// Per-quantum context handed to estimators at the quantum boundary.
#[derive(Debug, Clone, Copy)]
pub struct QuantumCtx<'a> {
    /// Quantum length Q.
    pub quantum: Cycle,
    /// Epoch length E.
    pub epoch: Cycle,
    /// Per-application §4.3 queueing-cycle counters for this quantum.
    pub queueing_cycles: &'a [Cycle],
}

/// Tracks the union length of possibly-overlapping service intervals —
/// "# cycles during which the application has at least one outstanding
/// hit/miss" (Table 1) — in O(1) per interval.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UnionTime {
    busy_until: Cycle,
    pub total: Cycle,
}

impl UnionTime {
    /// Adds the interval `[start, end)`.
    pub fn add(&mut self, start: Cycle, end: Cycle) {
        if end <= start {
            return;
        }
        let effective_start = start.max(self.busy_until);
        if end > effective_start {
            self.total += end - effective_start;
            self.busy_until = end;
        }
    }

    /// Clears accumulated time (keeps the busy horizon so intervals
    /// spanning the boundary are not double counted).
    pub fn reset(&mut self) {
        self.total = 0;
    }
}

// Both the accumulated total and the busy horizon: the horizon survives
// `reset`, so it is live state.
asm_simcore::persist_fields!(UnionTime { busy_until, total });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_time_merges_overlaps() {
        let mut u = UnionTime::default();
        u.add(0, 10);
        u.add(5, 15); // 5 overlapping cycles
        assert_eq!(u.total, 15);
        u.add(20, 25);
        assert_eq!(u.total, 20);
    }

    #[test]
    fn union_time_ignores_contained_intervals() {
        let mut u = UnionTime::default();
        u.add(0, 100);
        u.add(10, 50);
        assert_eq!(u.total, 100);
    }

    #[test]
    fn union_time_reset_keeps_horizon() {
        let mut u = UnionTime::default();
        u.add(0, 10);
        u.reset();
        u.add(5, 8); // still inside the old horizon
        assert_eq!(u.total, 0);
        u.add(10, 12);
        assert_eq!(u.total, 2);
    }

    #[test]
    fn union_time_empty_interval_is_noop() {
        let mut u = UnionTime::default();
        u.add(5, 5);
        u.add(9, 3);
        assert_eq!(u.total, 0);
    }

    #[test]
    fn miss_event_latency() {
        let ev = MissEvent {
            app: AppId::new(0),
            arrival: 100,
            finish: 350,
            interference_cycles: 10,
            concurrent_misses: 2,
            epoch_owned_at_issue: true,
            epoch_end: Cycle::MAX,
            was_ats_hit: None,
            pollution_hit: false,
        };
        assert_eq!(ev.latency(), 250);
    }
}
