//! Slowdown estimators.
//!
//! All estimators are passive observers of the same simulated execution:
//! the [`crate::System`] feeds them shared-cache access events and
//! main-memory completion events, and asks each for per-application
//! slowdown estimates at every quantum boundary. This mirrors the paper's
//! methodology, where ASM, FST and PTCA are evaluated on identical
//! workloads (§5).
//!
//! | Estimator | Granularity | Cache interference via | Paper |
//! |---|---|---|---|
//! | [`AsmEstimator`] | aggregate (epochs) | ATS contention-miss *count* | this paper |
//! | [`FstEstimator`] | per request | pollution filter | \[15\] |
//! | [`PtcaEstimator`] | per request | ATS per-request | \[14\] |
//! | [`MiseEstimator`] | aggregate (epochs) | — (memory only) | \[66\] |
//! | [`StfmEstimator`] | per request | — (memory only) | \[46\] |

mod asm_model;
mod fst;
mod mise;
mod ptca;
mod stfm;

pub use asm_model::AsmEstimator;
pub use fst::FstEstimator;
pub use mise::MiseEstimator;
pub use ptca::PtcaEstimator;
pub use stfm::StfmEstimator;

use asm_cache::AtsOutcome;
use asm_simcore::{AppId, Cycle, Histogram};

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

/// A slowdown estimator driven by system events.
///
/// Implementations accumulate state over a quantum; `on_quantum_end`
/// returns one slowdown estimate per application and resets for the next
/// quantum. Its [`Persist`](asm_simcore::persist::Persist) state is that
/// accumulated quantum state, restored into an estimator constructed with
/// the same configuration.
pub trait SlowdownEstimator: std::fmt::Debug + Send + asm_simcore::persist::Persist {
    /// Short display name ("ASM", "FST", "PTCA", "MISE").
    fn name(&self) -> &'static str;

    /// Notifies the estimator that a new epoch began with the given owner.
    fn on_epoch_start(&mut self, now: Cycle, owner: Option<AppId>);

    /// Observes a demand access to the shared cache.
    fn on_access(&mut self, ev: &AccessEvent);

    /// Observes a completed demand miss.
    fn on_miss_complete(&mut self, ev: &MissEvent);

    /// Produces per-application slowdown estimates for the finished quantum
    /// and resets quantum state.
    fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> Vec<f64>;

    /// The most recent `CAR_alone` estimates (accesses/cycle), if this
    /// estimator computes them (ASM does; used by ASM-Cache).
    fn car_alone(&self) -> Option<&[f64]> {
        None
    }

    /// Histogram of this estimator's *alone miss service time* estimates
    /// (Figure 6), when histogram collection is enabled.
    fn miss_latency_histogram(&self) -> Option<&Histogram> {
        None
    }

    /// Per-application `(ats_hits, ats_misses)` sampled over the *last
    /// completed* quantum, if this estimator samples an auxiliary tag
    /// store (ASM does). Telemetry reads these at quantum boundaries to
    /// expose the ATS-sampled miss rate as a time series.
    fn ats_sample_counts(&self) -> Option<&[(u64, u64)]> {
        None
    }
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
