//! Per-Thread Cycle Accounting [Du Bois+, HiPEAC 2013] (§2.1).
//!
//! Like FST, PTCA accounts interference cycles *per request*; it differs in
//! identifying contention misses with a per-application auxiliary tag store
//! instead of a pollution filter. With a full ATS this is exact (PTCA
//! beats FST unsampled in Figure 2); but when the ATS is *set-sampled*,
//! PTCA can only observe the requests that map to sampled sets and must
//! scale their interference cycles up by the sampling factor — and because
//! per-request latencies vary wildly, scaling a small latency sample is far
//! noisier than scaling a count, which is why PTCA degrades most under
//! sampling (Figure 3: 14.7% → 40.4%).

use asm_simcore::{Cycle, Histogram};

use super::{AccessEvent, MissEvent, QuantumCtx, SlowdownEstimator};

/// Upper bound on the per-request cache-contention penalty (cycles); see
/// the same constant in the FST estimator.
const CACHE_PENALTY_CAP: f64 = 1_000.0;

/// The PTCA slowdown estimator.
///
/// # Examples
///
/// ```
/// use asm_core::estimator::{PtcaEstimator, SlowdownEstimator};
/// let est = PtcaEstimator::new(4, 20, 32.0, None);
/// assert_eq!(est.name(), "PTCA");
/// ```
#[derive(Debug)]
pub struct PtcaEstimator {
    excess: Vec<f64>,
    llc_latency: Cycle,
    /// `total sets / sampled sets` of the ATS (1.0 when unsampled).
    sampling_factor: f64,
    latency_hist: Option<Histogram>,
}

impl PtcaEstimator {
    /// Creates the estimator; `sampling_factor` is the ATS's
    /// total-to-sampled set ratio.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_factor < 1.0`.
    #[must_use]
    pub fn new(
        app_count: usize,
        llc_latency: Cycle,
        sampling_factor: f64,
        latency_hist: Option<(f64, usize)>,
    ) -> Self {
        assert!(sampling_factor >= 1.0, "sampling factor must be >= 1");
        PtcaEstimator {
            excess: vec![0.0; app_count],
            llc_latency,
            sampling_factor,
            latency_hist: latency_hist.map(|(w, n)| Histogram::new(w, n)),
        }
    }
}

impl SlowdownEstimator for PtcaEstimator {
    fn name(&self) -> &'static str {
        "PTCA"
    }

    fn on_epoch_start(&mut self, _now: Cycle, _owner: Option<asm_simcore::AppId>) {}

    fn on_access(&mut self, _ev: &AccessEvent) {}

    fn on_miss_complete(&mut self, ev: &MissEvent) {
        // PTCA only observes requests mapping to sampled ATS sets, and
        // scales their cycle counts to the whole cache.
        let Some(ats_hit) = ev.was_ats_hit else {
            return;
        };
        let par = ev.concurrent_misses.max(1) as f64;
        let excess = &mut self.excess[ev.app.index()];
        *excess += self.sampling_factor * ev.interference_cycles as f64 / par;
        if ats_hit {
            // Contention miss: alone it would have been a cache hit.
            let cache_penalty =
                (ev.latency().saturating_sub(self.llc_latency) as f64).min(CACHE_PENALTY_CAP);
            *excess += self.sampling_factor * cache_penalty / par;
        }
        if let Some(h) = &mut self.latency_hist {
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

asm_simcore::persist_fields!(PtcaEstimator { [excess], [latency_hist] });

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::{AppId, LineAddr};

    fn ctx() -> QuantumCtx<'static> {
        QuantumCtx {
            now: 100_000,
            quantum: 100_000,
            epoch: 1_000,
            queueing_cycles: &[],
            llc_latency: 20,
        }
    }

    fn miss(latency: Cycle, interference: Cycle, ats: Option<bool>) -> MissEvent {
        MissEvent {
            app: AppId::new(0),
            line: LineAddr::new(0),
            arrival: 0,
            finish: latency,
            interference_cycles: interference,
            concurrent_misses: 1,
            epoch_owned_at_issue: false,
            epoch_end: Cycle::MAX,
            was_ats_hit: ats,
            pollution_hit: false,
        }
    }

    #[test]
    fn unsampled_requests_are_invisible() {
        let mut est = PtcaEstimator::new(1, 20, 32.0, None);
        for _ in 0..100 {
            est.on_miss_complete(&miss(500, 400, None));
        }
        let s = est.on_quantum_end(&ctx());
        assert_eq!(s[0], 1.0);
    }

    #[test]
    fn sampled_interference_is_scaled() {
        let mut unsampled = PtcaEstimator::new(1, 20, 1.0, None);
        let mut sampled = PtcaEstimator::new(1, 20, 32.0, None);
        // One observed request out of 32 (the others unsampled).
        sampled.on_miss_complete(&miss(500, 320, Some(false)));
        for _ in 0..32 {
            unsampled.on_miss_complete(&miss(500, 320, Some(false)));
        }
        let a = sampled.on_quantum_end(&ctx())[0];
        let b = unsampled.on_quantum_end(&ctx())[0];
        assert!((a - b).abs() < 1e-9, "scaled {a} vs full {b}");
    }

    #[test]
    fn contention_miss_adds_cache_penalty() {
        let mut with = PtcaEstimator::new(1, 20, 1.0, None);
        let mut without = PtcaEstimator::new(1, 20, 1.0, None);
        for _ in 0..50 {
            with.on_miss_complete(&miss(320, 100, Some(true)));
            without.on_miss_complete(&miss(320, 100, Some(false)));
        }
        assert!(with.on_quantum_end(&ctx())[0] > without.on_quantum_end(&ctx())[0]);
    }

    #[test]
    fn resets_between_quanta() {
        let mut est = PtcaEstimator::new(1, 20, 1.0, None);
        est.on_miss_complete(&miss(500, 400, Some(true)));
        est.on_quantum_end(&ctx());
        assert_eq!(est.on_quantum_end(&ctx())[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "sampling factor")]
    fn rejects_sub_unity_sampling() {
        let _ = PtcaEstimator::new(1, 20, 0.5, None);
    }
}
