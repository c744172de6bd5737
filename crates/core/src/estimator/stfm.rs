//! STFM: stall-time fair memory scheduling's slowdown model [Mutlu &
//! Moscibroda, MICRO 2007] (§2.1).
//!
//! STFM estimates slowdown as the ratio of *memory stall times*:
//! `T_stall_shared / T_stall_alone`, where the alone stall time is obtained
//! by subtracting, per request, the cycles the request was delayed by other
//! applications — divided by a *parallelism factor* because overlapped
//! requests do not stall the processor serially. It is the original
//! per-request accounting model; FST and PTCA extend it with shared-cache
//! interference, and MISE/ASM replace it with aggregate epoch measurement.
//!
//! STFM is memory-only (no shared-cache term). Our implementation tracks
//! per-application memory stall time as the union of outstanding-miss
//! intervals, and interference as the per-request bank-wait cycles divided
//! by the concurrent-miss count.

use super::{MissEvent, QuantumCtx, UnionTime};

#[derive(Debug, Clone, Copy, Default)]
struct AppState {
    /// Union of outstanding-miss intervals: the shared memory stall time.
    stall_time: UnionTime,
    /// Estimated interference cycles (per-request, parallelism-scaled).
    interference: f64,
}

/// The STFM slowdown estimator.
#[derive(Debug)]
pub struct StfmEstimator {
    apps: Vec<AppState>,
}

impl StfmEstimator {
    /// Creates the estimator for `app_count` applications.
    #[must_use]
    pub fn new(app_count: usize) -> Self {
        StfmEstimator {
            apps: vec![AppState::default(); app_count],
        }
    }

    /// Observes a completed demand miss.
    pub fn on_miss_complete(&mut self, ev: &MissEvent) {
        let st = &mut self.apps[ev.app.index()];
        st.stall_time.add(ev.arrival, ev.finish);
        let par = ev.concurrent_misses.max(1) as f64;
        st.interference += ev.interference_cycles as f64 / par;
    }

    /// Produces per-application slowdown estimates for the finished
    /// quantum and resets quantum state.
    pub fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.apps.len());
        for st in &mut self.apps {
            let shared_stall = st.stall_time.total as f64;
            let slowdown = if shared_stall <= 0.0 {
                1.0
            } else {
                // Alone stall time = shared stall minus estimated
                // interference; the processor time outside memory stalls is
                // assumed unaffected (STFM's model).
                let alone_stall = (shared_stall - st.interference).max(shared_stall * 0.1);
                let non_stall = (ctx.quantum as f64 - shared_stall).max(0.0);
                ((non_stall + shared_stall) / (non_stall + alone_stall)).max(1.0)
            };
            out.push(slowdown);
            let mut stall_time = st.stall_time;
            stall_time.reset();
            *st = AppState {
                stall_time,
                interference: 0.0,
            };
        }
        out
    }
}

asm_simcore::persist_fields!(AppState { stall_time, interference });
asm_simcore::persist_fields!(StfmEstimator { [apps] });

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::{AppId, Cycle};

    fn ctx() -> QuantumCtx<'static> {
        QuantumCtx {
            quantum: 100_000,
            epoch: 1_000,
            queueing_cycles: &[],
        }
    }

    fn miss(arrival: Cycle, finish: Cycle, interference: Cycle, concurrent: u64) -> MissEvent {
        MissEvent {
            app: AppId::new(0),
            arrival,
            finish,
            interference_cycles: interference,
            concurrent_misses: concurrent,
            epoch_owned_at_issue: false,
            epoch_end: Cycle::MAX,
            was_ats_hit: None,
            pollution_hit: false,
        }
    }

    #[test]
    fn no_misses_means_no_slowdown() {
        let mut est = StfmEstimator::new(1);
        assert_eq!(est.on_quantum_end(&ctx())[0], 1.0);
    }

    #[test]
    fn interference_free_misses_mean_no_slowdown() {
        let mut est = StfmEstimator::new(1);
        for k in 0..100u64 {
            est.on_miss_complete(&miss(k * 500, k * 500 + 200, 0, 1));
        }
        assert_eq!(est.on_quantum_end(&ctx())[0], 1.0);
    }

    #[test]
    fn interference_raises_estimate() {
        let mut est = StfmEstimator::new(1);
        // 100 serialised misses, 400 of each 500 cycles due to others.
        for k in 0..100u64 {
            est.on_miss_complete(&miss(k * 500, k * 500 + 500, 400, 1));
        }
        let s = est.on_quantum_end(&ctx())[0];
        // Stall 50k of 100k; alone stall 10k -> 100k / 60k.
        assert!((s - 100.0 / 60.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn parallelism_factor_discounts_overlap() {
        let run = |concurrent| {
            let mut est = StfmEstimator::new(1);
            for k in 0..100u64 {
                est.on_miss_complete(&miss(k * 500, k * 500 + 500, 400, concurrent));
            }
            est.on_quantum_end(&ctx())[0]
        };
        assert!(run(8) < run(1));
    }

    #[test]
    fn overlapping_misses_share_stall_time() {
        let mut est = StfmEstimator::new(1);
        // Two fully overlapping misses: stall time counted once.
        est.on_miss_complete(&miss(0, 500, 0, 2));
        est.on_miss_complete(&miss(0, 500, 0, 2));
        assert_eq!(est.apps[0].stall_time.total, 500);
    }

    #[test]
    fn resets_between_quanta() {
        let mut est = StfmEstimator::new(1);
        est.on_miss_complete(&miss(0, 500, 400, 1));
        est.on_quantum_end(&ctx());
        assert_eq!(est.on_quantum_end(&ctx())[0], 1.0);
    }
}
