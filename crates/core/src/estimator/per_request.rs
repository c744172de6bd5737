//! The per-request slowdown estimators of §2.1: Fairness via Source
//! Throttling [Ebrahimi+, ASPLOS 2010] and Per-Thread Cycle Accounting
//! [Du Bois+, HiPEAC 2013].
//!
//! Both estimate slowdown as `shared_time / alone_time` and obtain
//! `alone_time` by subtracting, *per request*, the cycles the request was
//! delayed by interference:
//!
//! - **memory interference**: the cycles the request waited behind other
//!   applications' bank occupancy (divided by the concurrent-miss count, a
//!   parallelism factor in the spirit of STFM — without it, overlapping
//!   misses would be double-counted even more severely);
//! - **shared-cache interference**: for each *contention miss*, the extra
//!   cycles a miss costs over a shared-cache hit.
//!
//! They differ only in how a contention miss is spotted:
//!
//! - **FST** asks the application's *pollution filter* (a Bloom filter of
//!   its lines evicted by other applications), which sees every request
//!   but adds false positives as it shrinks (Figure 3);
//! - **PTCA** asks a per-application *auxiliary tag store*. With a full
//!   ATS this is exact (PTCA beats FST unsampled in Figure 2); but when the
//!   ATS is *set-sampled*, PTCA observes only the requests that map to
//!   sampled sets and must scale their interference cycles up by the
//!   sampling factor — and because per-request latencies vary wildly,
//!   scaling a small latency sample is far noisier than scaling a count,
//!   which is why PTCA degrades most under sampling (Figure 3: 14.7% →
//!   40.4%).
//!
//! Both inherit the fundamental inaccuracy the paper identifies (§2.2):
//! with overlapping requests, per-request delays do not add up to
//! wall-clock delay.

use asm_simcore::{Cycle, Histogram};

use super::{MissEvent, QuantumCtx};

/// Upper bound on the per-request cache-contention penalty (cycles): a
/// contention miss cannot reasonably be charged more than a few worst-case
/// DRAM accesses, even if the observed latency included unrelated queueing.
const CACHE_PENALTY_CAP: f64 = 1_000.0;

/// How a per-request estimator tells a contention miss.
#[derive(Debug, Clone, Copy)]
enum Contention {
    /// FST: the pollution filter, consulted on every request.
    PollutionFilter,
    /// PTCA: the ATS, which sees only requests to its sampled sets; each
    /// observed request stands for `sampling_factor` requests.
    Ats { sampling_factor: f64 },
}

/// The FST or PTCA slowdown estimator (see the module docs).
#[derive(Debug)]
pub struct PerRequestEstimator {
    /// Estimated interference (excess) cycles per application this quantum.
    excess: Vec<f64>,
    llc_latency: Cycle,
    contention: Contention,
    latency_hist: Option<Histogram>,
}

impl PerRequestEstimator {
    /// Creates FST for `app_count` applications; `latency_hist` enables
    /// Figure 6-style histogram collection.
    #[must_use]
    pub fn fst(app_count: usize, llc_latency: Cycle, latency_hist: Option<(f64, usize)>) -> Self {
        Self::new(app_count, llc_latency, Contention::PollutionFilter, latency_hist)
    }

    /// Creates PTCA; `sampling_factor` is the ATS's total-to-sampled set
    /// ratio (1.0 when unsampled).
    ///
    /// # Panics
    ///
    /// Panics if `sampling_factor < 1.0`.
    #[must_use]
    pub fn ptca(
        app_count: usize,
        llc_latency: Cycle,
        sampling_factor: f64,
        latency_hist: Option<(f64, usize)>,
    ) -> Self {
        assert!(sampling_factor >= 1.0, "sampling factor must be >= 1");
        let contention = Contention::Ats { sampling_factor };
        Self::new(app_count, llc_latency, contention, latency_hist)
    }

    fn new(
        app_count: usize,
        llc_latency: Cycle,
        contention: Contention,
        latency_hist: Option<(f64, usize)>,
    ) -> Self {
        PerRequestEstimator {
            excess: vec![0.0; app_count],
            llc_latency,
            contention,
            latency_hist: latency_hist.map(|(w, n)| Histogram::new(w, n)),
        }
    }

    /// Observes a completed demand miss.
    pub fn on_miss_complete(&mut self, ev: &MissEvent) {
        // FST's scale is exactly 1.0, and `1.0 * x == x` in IEEE 754.
        let (scale, contended) = match self.contention {
            Contention::PollutionFilter => (1.0, ev.pollution_hit),
            Contention::Ats { sampling_factor } => {
                let Some(ats_hit) = ev.was_ats_hit else {
                    return;
                };
                (sampling_factor, ats_hit)
            }
        };
        let par = ev.concurrent_misses.max(1) as f64;
        let excess = &mut self.excess[ev.app.index()];
        *excess += scale * ev.interference_cycles as f64 / par;
        if contended {
            // Contention miss: alone it would have been a cache hit.
            let cache_penalty =
                (ev.latency().saturating_sub(self.llc_latency) as f64).min(CACHE_PENALTY_CAP);
            *excess += scale * cache_penalty / par;
        }
        if let Some(h) = &mut self.latency_hist {
            // The alone-latency estimate: observed latency minus the
            // per-request interference estimate.
            let alone = ev.latency().saturating_sub(ev.interference_cycles);
            h.add(alone as f64);
        }
    }

    /// Produces per-application slowdown estimates for the finished
    /// quantum and resets quantum state.
    pub fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> Vec<f64> {
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

    /// Histogram of the alone miss service time estimates (Figure 6),
    /// when histogram collection is enabled.
    #[must_use]
    pub fn miss_latency_histogram(&self) -> Option<&Histogram> {
        self.latency_hist.as_ref()
    }
}

asm_simcore::persist_fields!(PerRequestEstimator { [excess], [latency_hist] });

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::{AppId, SimRng};

    fn ctx() -> QuantumCtx<'static> {
        QuantumCtx {
            quantum: 100_000,
            epoch: 1_000,
            queueing_cycles: &[],
        }
    }

    #[test]
    fn fst_is_ptca_on_the_pollution_signal() {
        // Fed an ATS that answers exactly what the pollution filter
        // answers, unsampled PTCA must be FST, bit for bit.
        let hist = Some((25.0, 40));
        let mut fst = PerRequestEstimator::fst(3, 20, hist);
        let mut ptca = PerRequestEstimator::ptca(3, 20, 1.0, hist);
        let mut rng = SimRng::seed_from(0xF57);
        for quantum in 0..4 {
            for k in 0..2_000u64 {
                let arrival = k * 37;
                let latency = rng.gen_range(900) + 1;
                let pollution_hit = rng.gen_bool(0.3);
                let ev = MissEvent {
                    app: AppId::new(rng.gen_range(3) as usize),
                    arrival,
                    finish: arrival + latency,
                    interference_cycles: rng.gen_range(latency + 1),
                    concurrent_misses: rng.gen_range(12),
                    epoch_owned_at_issue: false,
                    epoch_end: Cycle::MAX,
                    was_ats_hit: Some(pollution_hit),
                    pollution_hit,
                };
                fst.on_miss_complete(&ev);
                ptca.on_miss_complete(&ev);
            }
            let bits = |s: Vec<f64>| s.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let (a, b) = (fst.on_quantum_end(&ctx()), ptca.on_quantum_end(&ctx()));
            assert!(a.iter().any(|&s| s > 1.0), "quantum {quantum}: nothing to compare");
            assert_eq!(bits(a), bits(b), "quantum {quantum}");
        }
        let (a, b) = (fst.miss_latency_histogram(), ptca.miss_latency_histogram());
        assert!(a.is_some_and(|h| h.total() == 8_000));
        assert_eq!(a, b);
    }

    /// FST, one test per property of the pollution-filter signal.
    mod fst {
        use super::*;

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
            let mut est = PerRequestEstimator::fst(1, 20, None);
            est.on_miss_complete(&miss(0, 200, 0, 1, false));
            let s = est.on_quantum_end(&ctx());
            assert_eq!(s[0], 1.0);
        }

        #[test]
        fn memory_interference_raises_estimate() {
            let mut est = PerRequestEstimator::fst(1, 20, None);
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
                let mut est = PerRequestEstimator::fst(1, 20, None);
                for _ in 0..100 {
                    est.on_miss_complete(&miss(0, 500, 400, concurrent, false));
                }
                est.on_quantum_end(&ctx())[0]
            };
            assert!(run(4) < run(1));
        }

        #[test]
        fn pollution_hits_add_cache_penalty() {
            let mut est = PerRequestEstimator::fst(1, 20, None);
            for _ in 0..50 {
                est.on_miss_complete(&miss(0, 320, 0, 1, true));
            }
            let s = est.on_quantum_end(&ctx());
            // 50 * (320 - 20) = 15k excess of 100k -> ~1.176.
            assert!(s[0] > 1.1, "got {}", s[0]);
        }

        #[test]
        fn excess_clamped_to_quantum() {
            let mut est = PerRequestEstimator::fst(1, 20, None);
            for _ in 0..10_000 {
                est.on_miss_complete(&miss(0, 500, 490, 1, true));
            }
            let s = est.on_quantum_end(&ctx());
            assert!(s[0] <= 10.0); // 1 / 0.1
        }

        #[test]
        fn state_resets_each_quantum() {
            let mut est = PerRequestEstimator::fst(1, 20, None);
            est.on_miss_complete(&miss(0, 500, 400, 1, false));
            est.on_quantum_end(&ctx());
            let s = est.on_quantum_end(&ctx());
            assert_eq!(s[0], 1.0);
        }

        #[test]
        fn histogram_subtracts_interference() {
            let mut est = PerRequestEstimator::fst(1, 20, Some((100.0, 10)));
            est.on_miss_complete(&miss(0, 450, 400, 1, false));
            let h = est.miss_latency_histogram().unwrap();
            // 450 - 400 = 50 -> first bucket.
            assert_eq!(h.bucket_count(0), 1);
        }
    }

    /// PTCA, one test per property of the (sampled) ATS signal.
    mod ptca {
        use super::*;

        fn miss(latency: Cycle, interference: Cycle, ats: Option<bool>) -> MissEvent {
            MissEvent {
                app: AppId::new(0),
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
            let mut est = PerRequestEstimator::ptca(1, 20, 32.0, None);
            for _ in 0..100 {
                est.on_miss_complete(&miss(500, 400, None));
            }
            let s = est.on_quantum_end(&ctx());
            assert_eq!(s[0], 1.0);
        }

        #[test]
        fn sampled_interference_is_scaled() {
            let mut unsampled = PerRequestEstimator::ptca(1, 20, 1.0, None);
            let mut sampled = PerRequestEstimator::ptca(1, 20, 32.0, None);
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
            let mut with = PerRequestEstimator::ptca(1, 20, 1.0, None);
            let mut without = PerRequestEstimator::ptca(1, 20, 1.0, None);
            for _ in 0..50 {
                with.on_miss_complete(&miss(320, 100, Some(true)));
                without.on_miss_complete(&miss(320, 100, Some(false)));
            }
            assert!(with.on_quantum_end(&ctx())[0] > without.on_quantum_end(&ctx())[0]);
        }

        #[test]
        fn resets_between_quanta() {
            let mut est = PerRequestEstimator::ptca(1, 20, 1.0, None);
            est.on_miss_complete(&miss(500, 400, Some(true)));
            est.on_quantum_end(&ctx());
            assert_eq!(est.on_quantum_end(&ctx())[0], 1.0);
        }

        #[test]
        #[should_panic(expected = "sampling factor")]
        fn rejects_sub_unity_sampling() {
            let _ = PerRequestEstimator::ptca(1, 20, 0.5, None);
        }
    }
}
