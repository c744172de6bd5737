//! The Application Slowdown Model (§3–§4).
//!
//! ASM estimates each application's slowdown as
//! `CAR_alone / CAR_shared` (§3.1). `CAR_shared` is measured directly
//! (§4.1). `CAR_alone` is estimated from the metrics of Table 1, gathered
//! during the application's *epochs* — short windows in which the memory
//! controller gives the application's requests highest priority:
//!
//! ```text
//! CAR_alone = (epoch_hits + epoch_misses)
//!           / (epoch_count * E  -  epoch_excess_cycles
//!                               -  epoch_ATS_misses * avg_queueing_delay)
//!
//! epoch_excess_cycles = contention_misses * (avg_miss_time - avg_hit_time)
//! contention_misses   = epoch_ATS_hits - epoch_hits
//! ```
//!
//! With a sampled ATS (§4.4), `epoch_ATS_hits/misses` are reconstructed
//! from the sampled hit/miss *fractions* times the total epoch accesses —
//! sampling a count is far more robust than sampling per-request latencies,
//! which is the paper's explanation for ASM's robustness in Figure 3.

use asm_simcore::{AppId, Cycle, Histogram};

use super::{AccessEvent, MissEvent, QuantumCtx, UnionTime};

#[derive(Debug, Clone, Default)]
struct AppState {
    /// All shared-cache accesses this quantum (CAR_shared numerator).
    accesses: u64,
    /// Epochs assigned to this application.
    epoch_count: u64,
    /// Table 1 metrics, gathered during this application's epochs.
    epoch_hits: u64,
    epoch_misses: u64,
    epoch_hit_time: UnionTime,
    epoch_miss_time: UnionTime,
    /// Sampled ATS outcomes during this application's epochs.
    ats_hits_sampled: u64,
    ats_misses_sampled: u64,
}

/// The ASM slowdown estimator.
#[derive(Debug)]
pub struct AsmEstimator {
    apps: Vec<AppState>,
    llc_latency: Cycle,
    /// Miss-service-time distribution during owned epochs (ASM's alone
    /// miss-latency estimate; Figure 6).
    latency_hist: Option<Histogram>,
    last_car_alone: Vec<f64>,
    /// Per-app `(ats_hits, ats_misses)` from the last completed quantum,
    /// captured before the quantum reset (telemetry introspection).
    last_ats: Vec<(u64, u64)>,
    queueing_correction: bool,
}

impl AsmEstimator {
    /// Creates the estimator for `app_count` applications; `latency_hist`
    /// enables Figure 6-style histogram collection and
    /// `queueing_correction` the §4.3 memory-queueing-delay correction
    /// (the paper's model has it on; off is an ablation).
    #[must_use]
    pub fn new(
        app_count: usize,
        llc_latency: Cycle,
        latency_hist: Option<(f64, usize)>,
        queueing_correction: bool,
    ) -> Self {
        AsmEstimator {
            apps: vec![AppState::default(); app_count],
            llc_latency,
            latency_hist: latency_hist.map(|(w, n)| Histogram::new(w, n)),
            last_car_alone: vec![0.0; app_count],
            last_ats: vec![(0, 0); app_count],
            queueing_correction,
        }
    }

    /// Notifies the estimator that a new epoch began with the given owner.
    pub fn on_epoch_start(&mut self, owner: Option<AppId>) {
        if let Some(owner) = owner {
            self.apps[owner.index()].epoch_count += 1;
        }
    }

    /// Observes a demand access to the shared cache.
    pub fn on_access(&mut self, ev: &AccessEvent) {
        let st = &mut self.apps[ev.app.index()];
        st.accesses += 1;
        if ev.epoch_owner != Some(ev.app) {
            return;
        }
        if ev.llc_hit {
            st.epoch_hits += 1;
            st.epoch_hit_time.add(ev.now, ev.now + self.llc_latency);
        } else {
            st.epoch_misses += 1;
        }
        if let Some(ats) = ev.ats {
            if ats.hit {
                st.ats_hits_sampled += 1;
            } else {
                st.ats_misses_sampled += 1;
            }
        }
    }

    /// Observes a completed demand miss.
    pub fn on_miss_complete(&mut self, ev: &MissEvent) {
        if !ev.epoch_owned_at_issue {
            return;
        }
        let st = &mut self.apps[ev.app.index()];
        // Table 1: epoch-miss-time counts cycles "during its assigned
        // epochs" — service that spills past the epoch boundary (where the
        // application no longer holds priority) is excluded.
        st.epoch_miss_time
            .add(ev.arrival, ev.finish.min(ev.epoch_end));
        if let Some(h) = &mut self.latency_hist {
            h.add(ev.latency() as f64);
        }
    }

    /// Produces per-application slowdown estimates for the finished
    /// quantum and resets quantum state.
    pub fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.apps.len());
        for (i, st) in self.apps.iter_mut().enumerate() {
            let estimate =
                estimate_slowdown(st, ctx, i, self.llc_latency, self.queueing_correction);
            self.last_car_alone[i] = estimate.car_alone;
            self.last_ats[i] = (st.ats_hits_sampled, st.ats_misses_sampled);
            out.push(estimate.slowdown);
            *st = AppState {
                // Union trackers keep their horizons across quanta.
                epoch_hit_time: {
                    let mut u = st.epoch_hit_time;
                    u.reset();
                    u
                },
                epoch_miss_time: {
                    let mut u = st.epoch_miss_time;
                    u.reset();
                    u
                },
                ..AppState::default()
            };
        }
        out
    }

    /// The `CAR_alone` estimates (accesses/cycle) of the last completed
    /// quantum (ASM-Cache reads them).
    #[must_use]
    pub fn car_alone(&self) -> &[f64] {
        &self.last_car_alone
    }

    /// Histogram of the alone miss service time estimates (Figure 6),
    /// when histogram collection is enabled.
    #[must_use]
    pub fn miss_latency_histogram(&self) -> Option<&Histogram> {
        self.latency_hist.as_ref()
    }

    /// Per-application `(ats_hits, ats_misses)` sampled over the *last
    /// completed* quantum. Telemetry reads these at quantum boundaries to
    /// expose the ATS-sampled miss rate as a time series.
    #[must_use]
    pub fn ats_sample_counts(&self) -> &[(u64, u64)] {
        &self.last_ats
    }
}

/// Minimum accesses observed during owned epochs before the model trusts
/// its extrapolation (sparser data degenerates like Table 3's short-Q
/// cells).
const MIN_EPOCH_ACCESSES: u64 = 16;

/// Plausibility ceiling on a single-quantum estimate; even 16-core
/// workloads stay far below this.
const MAX_SLOWDOWN: f64 = 50.0;

struct Estimate {
    slowdown: f64,
    car_alone: f64,
}

/// The §4.2/§4.3 model, with guards for degenerate quanta (no accesses, no
/// epochs assigned).
fn estimate_slowdown(
    st: &AppState,
    ctx: &QuantumCtx<'_>,
    app_index: usize,
    llc_latency: Cycle,
    queueing_correction: bool,
) -> Estimate {
    let car_shared = st.accesses as f64 / ctx.quantum as f64;
    // Keep the degenerate-quantum test in integer cycles (asm-lint R3):
    // comparing the f64 image of this product against 0.0 is exact today
    // but fragile under refactoring.
    let epoch_cycles_int = st.epoch_count * ctx.epoch;
    let epoch_cycles = epoch_cycles_int as f64;
    let epoch_accesses = st.epoch_hits + st.epoch_misses;

    if st.accesses == 0 || epoch_accesses < MIN_EPOCH_ACCESSES || epoch_cycles_int == 0 {
        // Too little information: the application is compute-bound or was
        // barely observed under priority this quantum (Table 3 shows the
        // model needs enough epoch samples); report no slowdown.
        return Estimate {
            slowdown: 1.0,
            car_alone: car_shared,
        };
    }

    // §4.4: reconstruct ATS counts from sampled fractions.
    let sampled_total = st.ats_hits_sampled + st.ats_misses_sampled;
    let (ats_hit_frac, ats_miss_frac) = if sampled_total > 0 {
        (
            st.ats_hits_sampled as f64 / sampled_total as f64,
            st.ats_misses_sampled as f64 / sampled_total as f64,
        )
    } else {
        // No sampled accesses: fall back to observed shared hit rate
        // (i.e. assume no cache contention information).
        (
            st.epoch_hits as f64 / epoch_accesses as f64,
            st.epoch_misses as f64 / epoch_accesses as f64,
        )
    };
    let epoch_ats_hits = ats_hit_frac * epoch_accesses as f64;
    let epoch_ats_misses = ats_miss_frac * epoch_accesses as f64;

    // §4.2: excess cycles from contention misses.
    let contention_misses = (epoch_ats_hits - st.epoch_hits as f64).max(0.0);
    let avg_miss_time = if st.epoch_misses > 0 {
        st.epoch_miss_time.total as f64 / st.epoch_misses as f64
    } else {
        0.0
    };
    let avg_hit_time = if st.epoch_hits > 0 {
        st.epoch_hit_time.total as f64 / st.epoch_hits as f64
    } else {
        llc_latency as f64
    };
    let excess = contention_misses * (avg_miss_time - avg_hit_time).max(0.0);

    // §4.3: queueing-delay correction for the misses that remain even when
    // run alone.
    let queueing = if queueing_correction {
        ctx.queueing_cycles.get(app_index).copied().unwrap_or(0) as f64
    } else {
        0.0
    };
    let avg_queueing_delay = if st.epoch_misses > 0 {
        queueing / st.epoch_misses as f64
    } else {
        0.0
    };

    let mut denom = epoch_cycles - excess - epoch_ats_misses * avg_queueing_delay;
    // The alone run cannot be more than ~20x faster within an epoch; guard
    // against degenerate denominators.
    denom = denom.max(epoch_cycles * 0.05);

    let car_alone = epoch_accesses as f64 / denom;
    let slowdown = (car_alone / car_shared).clamp(1.0, MAX_SLOWDOWN);
    Estimate {
        slowdown,
        car_alone,
    }
}

asm_simcore::persist_fields!(AppState {
    accesses,
    epoch_count,
    epoch_hits,
    epoch_misses,
    epoch_hit_time,
    epoch_miss_time,
    ats_hits_sampled,
    ats_misses_sampled,
});
asm_simcore::persist_fields!(AsmEstimator {
    [apps],
    [latency_hist],
    [last_car_alone],
    [last_ats],
});

#[cfg(test)]
mod tests {
    use super::*;
    use asm_cache::AtsOutcome;

    fn ctx(queueing: &[Cycle]) -> QuantumCtx<'_> {
        QuantumCtx {
            quantum: 100_000,
            epoch: 1_000,
            queueing_cycles: queueing,
        }
    }

    fn access(
        app: usize,
        hit: bool,
        owner: Option<usize>,
        ats_hit: Option<bool>,
        now: Cycle,
    ) -> AccessEvent {
        AccessEvent {
            now,
            app: AppId::new(app),
            llc_hit: hit,
            ats: ats_hit.map(|hit| AtsOutcome {
                hit,
                recency: hit.then_some(0),
            }),
            epoch_owner: owner.map(AppId::new),
        }
    }

    fn miss(app: usize, arrival: Cycle, finish: Cycle, owned: bool) -> MissEvent {
        MissEvent {
            app: AppId::new(app),
            arrival,
            finish,
            interference_cycles: 0,
            concurrent_misses: 1,
            epoch_owned_at_issue: owned,
            epoch_end: Cycle::MAX,
            was_ats_hit: None,
            pollution_hit: false,
        }
    }

    #[test]
    fn idle_app_estimates_unity() {
        let mut est = AsmEstimator::new(2, 20, None, true);
        let q = [0, 0];
        let s = est.on_quantum_end(&ctx(&q));
        assert_eq!(s, vec![1.0, 1.0]);
    }

    #[test]
    fn no_interference_yields_near_unity() {
        // App runs in every epoch, all hits, no contention: CAR_alone
        // should equal its access rate during epochs which matches the
        // whole-quantum rate.
        let mut est = AsmEstimator::new(1, 20, None, true);
        let mut now = 0;
        for e in 0..100 {
            est.on_epoch_start(Some(AppId::new(0)));
            for _ in 0..50 {
                est.on_access(&access(0, true, Some(0), Some(true), now));
                now += 20;
            }
            now = (e + 1) * 1_000;
        }
        let q = [0];
        let s = est.on_quantum_end(&ctx(&q));
        assert!((s[0] - 1.0).abs() < 0.2, "slowdown {}", s[0]);
    }

    #[test]
    fn contention_misses_raise_estimate() {
        // Same accesses, but most misses would have hit alone (ATS hits):
        // the excess-cycle subtraction should raise CAR_alone above
        // CAR_shared.
        let mut est = AsmEstimator::new(1, 20, None, true);
        let mut now = 0;
        for _ in 0..50 {
            est.on_epoch_start(Some(AppId::new(0)));
            for k in 0..10u64 {
                // ATS says hit, shared cache missed: contention miss.
                est.on_access(&access(0, false, Some(0), Some(true), now));
                est.on_miss_complete(&miss(0, now, now + 300, true));
                now += 300 + k;
            }
            now += 1_000 - (now % 1_000);
        }
        let q = [0];
        let s = est.on_quantum_end(&ctx(&q));
        assert!(s[0] > 1.5, "slowdown {}", s[0]);
    }

    #[test]
    fn epoch_metrics_only_counted_for_owner() {
        let mut est = AsmEstimator::new(2, 20, None, true);
        est.on_epoch_start(Some(AppId::new(1)));
        // App 0 accesses while app 1 owns the epoch: only CAR_shared moves.
        est.on_access(&access(0, true, Some(1), Some(true), 10));
        assert_eq!(est.apps[0].accesses, 1);
        assert_eq!(est.apps[0].epoch_hits, 0);
        assert_eq!(est.apps[0].ats_hits_sampled, 0);
    }

    #[test]
    fn quantum_end_resets_state() {
        let mut est = AsmEstimator::new(1, 20, None, true);
        est.on_epoch_start(Some(AppId::new(0)));
        est.on_access(&access(0, true, Some(0), Some(true), 10));
        let q = [0];
        est.on_quantum_end(&ctx(&q));
        assert_eq!(est.apps[0].accesses, 0);
        assert_eq!(est.apps[0].epoch_count, 0);
    }

    #[test]
    fn car_alone_exposed_after_quantum() {
        let mut est = AsmEstimator::new(1, 20, None, true);
        est.on_epoch_start(Some(AppId::new(0)));
        for k in 0..100 {
            est.on_access(&access(0, true, Some(0), Some(true), k * 20));
        }
        let q = [0];
        est.on_quantum_end(&ctx(&q));
        let car = est.car_alone();
        assert!(car[0] > 0.0);
    }

    #[test]
    fn ats_sample_counts_survive_the_quantum_reset() {
        let mut est = AsmEstimator::new(1, 20, None, true);
        est.on_epoch_start(Some(AppId::new(0)));
        est.on_access(&access(0, true, Some(0), Some(true), 10));
        est.on_access(&access(0, false, Some(0), Some(false), 30));
        let q = [0];
        est.on_quantum_end(&ctx(&q));
        assert_eq!(est.ats_sample_counts(), &[(1, 1)][..]);
        assert_eq!(est.apps[0].ats_hits_sampled, 0, "live counters reset");
    }

    #[test]
    fn histogram_collects_epoch_miss_latencies() {
        let mut est = AsmEstimator::new(1, 20, Some((50.0, 10)), true);
        est.on_miss_complete(&miss(0, 0, 120, true));
        est.on_miss_complete(&miss(0, 0, 480, true));
        est.on_miss_complete(&miss(0, 0, 480, false)); // not epoch-owned
        let h = est.miss_latency_histogram().unwrap();
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn queueing_correction_reduces_estimate() {
        // With heavy residual queueing reported, the denominator shrinks
        // less aggressively... i.e. the correction removes queueing cycles
        // and *raises* CAR_alone, raising slowdown.
        let run = |queueing: Cycle| {
            let mut est = AsmEstimator::new(1, 20, None, true);
            let mut now = 0;
            for _ in 0..50 {
                est.on_epoch_start(Some(AppId::new(0)));
                for _ in 0..5 {
                    est.on_access(&access(0, false, Some(0), Some(false), now));
                    est.on_miss_complete(&miss(0, now, now + 200, true));
                    now += 200;
                }
                now += 1_000 - (now % 1_000);
            }
            let q = [queueing];
            est.on_quantum_end(&ctx(&q))[0]
        };
        let without = run(0);
        let with = run(10_000);
        assert!(
            with > without,
            "queueing correction should raise the estimate: {with} vs {without}"
        );
    }
}
