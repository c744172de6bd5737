//! Fairness via Source Throttling's slowdown estimation [Ebrahimi+,
//! ASPLOS 2010] (§2.1).
//!
//! FST estimates slowdown as `shared_time / alone_time` and obtains
//! `alone_time` by subtracting, *per request*, the cycles the request was
//! delayed by interference:
//!
//! - **memory interference**: the cycles the request waited behind other
//!   applications' bank occupancy (divided by the concurrent-miss count, a
//!   parallelism factor in the spirit of STFM — without it, overlapping
//!   misses would be double-counted even more severely);
//! - **shared-cache interference**: for each *contention miss* — a miss
//!   that hits in the application's pollution filter (a Bloom filter of
//!   lines evicted by other applications) — the extra cycles a miss costs
//!   over a shared-cache hit.
//!
//! Both components inherit the fundamental inaccuracy the paper identifies
//! (§2.2): with overlapping requests, per-request delays do not add up to
//! wall-clock delay, and the Bloom filter adds false positives as it
//! shrinks (Figure 3).

use asm_simcore::{Cycle, Histogram};

use super::{AccessEvent, MissEvent, QuantumCtx, SlowdownEstimator};

/// Upper bound on the per-request cache-contention penalty (cycles): a
/// contention miss cannot reasonably be charged more than a few worst-case
/// DRAM accesses, even if the observed latency included unrelated queueing.
const CACHE_PENALTY_CAP: f64 = 1_000.0;

/// The FST slowdown estimator.
///
/// # Examples
///
/// ```
/// use asm_core::estimator::{FstEstimator, SlowdownEstimator};
/// let est = FstEstimator::new(4, 20, None);
/// assert_eq!(est.name(), "FST");
/// ```
#[derive(Debug)]
pub struct FstEstimator {
    /// Estimated interference (excess) cycles per application this quantum.
    excess: Vec<f64>,
    llc_latency: Cycle,
    latency_hist: Option<Histogram>,
}

impl FstEstimator {
    /// Creates the estimator for `app_count` applications.
    #[must_use]
    pub fn new(app_count: usize, llc_latency: Cycle, latency_hist: Option<(f64, usize)>) -> Self {
        FstEstimator {
            excess: vec![0.0; app_count],
            llc_latency,
            latency_hist: latency_hist.map(|(w, n)| Histogram::new(w, n)),
        }
    }
}

impl SlowdownEstimator for FstEstimator {
    fn name(&self) -> &'static str {
        "FST"
    }

    fn on_epoch_start(&mut self, _now: Cycle, _owner: Option<asm_simcore::AppId>) {}

    fn on_access(&mut self, _ev: &AccessEvent) {}

    fn on_miss_complete(&mut self, ev: &MissEvent) {
        let par = ev.concurrent_misses.max(1) as f64;
        let excess = &mut self.excess[ev.app.index()];
        // Per-request memory interference.
        *excess += ev.interference_cycles as f64 / par;
        // Per-request cache interference for pollution-filter hits.
        if ev.pollution_hit {
            let cache_penalty =
                (ev.latency().saturating_sub(self.llc_latency) as f64).min(CACHE_PENALTY_CAP);
            *excess += cache_penalty / par;
        }
        if let Some(h) = &mut self.latency_hist {
            // FST's alone-latency estimate: observed latency minus the
            // per-request interference estimate.
            let alone = ev.latency().saturating_sub(ev.interference_cycles);
            h.add(alone as f64);
        }
    }

    fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> Vec<f64> {
        let q = ctx.quantum as f64;
        let out = self
            .excess
            .iter()
            .map(|excess| {
                let alone = (q - excess).max(q * 0.1);
                (q / alone).max(1.0)
            })
            .collect();
        self.excess.fill(0.0);
        out
    }

    fn miss_latency_histogram(&self) -> Option<&Histogram> {
        self.latency_hist.as_ref()
    }
}

asm_simcore::persist_fields!(FstEstimator { [excess], [latency_hist] });

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::AppId;

    fn ctx() -> QuantumCtx<'static> {
        QuantumCtx {
            quantum: 100_000,
            epoch: 1_000,
            queueing_cycles: &[],
        }
    }

    fn miss(
        app: usize,
        latency: Cycle,
        interference: Cycle,
        concurrent: u64,
        polluted: bool,
    ) -> MissEvent {
        MissEvent {
            app: AppId::new(app),
            arrival: 1_000,
            finish: 1_000 + latency,
            interference_cycles: interference,
            concurrent_misses: concurrent,
            epoch_owned_at_issue: false,
            epoch_end: Cycle::MAX,
            was_ats_hit: None,
            pollution_hit: polluted,
        }
    }

    #[test]
    fn no_interference_estimates_unity() {
        let mut est = FstEstimator::new(1, 20, None);
        est.on_miss_complete(&miss(0, 200, 0, 1, false));
        let s = est.on_quantum_end(&ctx());
        assert_eq!(s[0], 1.0);
    }

    #[test]
    fn memory_interference_raises_estimate() {
        let mut est = FstEstimator::new(1, 20, None);
        for _ in 0..100 {
            est.on_miss_complete(&miss(0, 500, 400, 1, false));
        }
        let s = est.on_quantum_end(&ctx());
        // 40k excess out of 100k -> slowdown ~1.67.
        assert!((s[0] - 100.0 / 60.0).abs() < 1e-6, "got {}", s[0]);
    }

    #[test]
    fn parallelism_factor_divides_interference() {
        let run = |concurrent| {
            let mut est = FstEstimator::new(1, 20, None);
            for _ in 0..100 {
                est.on_miss_complete(&miss(0, 500, 400, concurrent, false));
            }
            est.on_quantum_end(&ctx())[0]
        };
        assert!(run(4) < run(1));
    }

    #[test]
    fn pollution_hits_add_cache_penalty() {
        let mut est = FstEstimator::new(1, 20, None);
        for _ in 0..50 {
            est.on_miss_complete(&miss(0, 320, 0, 1, true));
        }
        let s = est.on_quantum_end(&ctx());
        // 50 * (320 - 20) = 15k excess of 100k -> ~1.176.
        assert!(s[0] > 1.1, "got {}", s[0]);
    }

    #[test]
    fn excess_clamped_to_quantum() {
        let mut est = FstEstimator::new(1, 20, None);
        for _ in 0..10_000 {
            est.on_miss_complete(&miss(0, 500, 490, 1, true));
        }
        let s = est.on_quantum_end(&ctx());
        assert!(s[0] <= 10.0); // 1 / 0.1
    }

    #[test]
    fn state_resets_each_quantum() {
        let mut est = FstEstimator::new(1, 20, None);
        est.on_miss_complete(&miss(0, 500, 400, 1, false));
        est.on_quantum_end(&ctx());
        let s = est.on_quantum_end(&ctx());
        assert_eq!(s[0], 1.0);
    }

    #[test]
    fn histogram_subtracts_interference() {
        let mut est = FstEstimator::new(1, 20, Some((100.0, 10)));
        est.on_miss_complete(&miss(0, 450, 400, 1, false));
        let h = est.miss_latency_histogram().unwrap();
        // 450 - 400 = 50 -> first bucket.
        assert_eq!(h.bucket_count(0), 1);
    }
}
