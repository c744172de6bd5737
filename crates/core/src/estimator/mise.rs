//! MISE: Memory-interference-induced Slowdown Estimation [Subramanian+,
//! HPCA 2013] (§2.1, §6.4).
//!
//! MISE is ASM's direct ancestor: it observes that a *memory-bound*
//! application's performance is proportional to the rate at which its
//! *main-memory* requests are served, and estimates slowdown as the ratio
//! of alone to shared request service rates, measuring the alone rate with
//! the same epoch-prioritisation trick ASM uses. Its weakness — the reason
//! §6.4 exists — is that it is blind to shared-cache interference: the
//! miss *stream* itself changes when the cache is shared, which MISE
//! cannot see. The full MISE model is implemented, including the
//! non-memory-bound α correction: `slowdown = 1 − α + α · rate_ratio`,
//! where α is the fraction of time the application stalls on memory
//! (measured as the union of its outstanding-miss intervals).

use asm_simcore::AppId;

use super::{AccessEvent, MissEvent, QuantumCtx, UnionTime};

#[derive(Debug, Clone, Copy, Default)]
struct AppState {
    /// Main-memory requests (LLC misses) over the whole quantum.
    misses: u64,
    /// Requests issued during this application's epochs.
    epoch_misses: u64,
    /// Epochs assigned.
    epoch_count: u64,
    /// Union of outstanding-miss intervals: memory stall time, the basis
    /// of MISE's α (memory-boundedness) estimate.
    stall_time: UnionTime,
}

/// The MISE slowdown estimator.
#[derive(Debug)]
pub struct MiseEstimator {
    apps: Vec<AppState>,
}

impl MiseEstimator {
    /// Creates the estimator for `app_count` applications.
    #[must_use]
    pub fn new(app_count: usize) -> Self {
        MiseEstimator {
            apps: vec![AppState::default(); app_count],
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
        if !ev.llc_hit {
            let st = &mut self.apps[ev.app.index()];
            st.misses += 1;
            if ev.epoch_owner == Some(ev.app) {
                st.epoch_misses += 1;
            }
        }
    }

    /// Observes a completed demand miss.
    pub fn on_miss_complete(&mut self, ev: &MissEvent) {
        self.apps[ev.app.index()]
            .stall_time
            .add(ev.arrival, ev.finish);
    }

    /// Produces per-application slowdown estimates for the finished
    /// quantum and resets quantum state.
    pub fn on_quantum_end(&mut self, ctx: &QuantumCtx<'_>) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.apps.len());
        for (i, st) in self.apps.iter_mut().enumerate() {
            // Like ASM, MISE needs enough epoch samples before its
            // extrapolation is trustworthy.
            let slowdown = if st.misses == 0 || st.epoch_misses < 16 || st.epoch_count == 0 {
                1.0
            } else {
                let shared_rate = st.misses as f64 / ctx.quantum as f64;
                // Alone rate during prioritised epochs, with the §4.3
                // queueing-cycle correction (MISE introduced it).
                let queueing = ctx.queueing_cycles.get(i).copied().unwrap_or(0) as f64;
                let epoch_cycles = (st.epoch_count * ctx.epoch) as f64;
                let denom = (epoch_cycles - queueing).max(epoch_cycles * 0.05);
                let alone_rate = st.epoch_misses as f64 / denom;
                let rate_ratio = (alone_rate / shared_rate).clamp(1.0, 50.0);
                // α correction: only the memory-stalled fraction of time
                // scales with the request service rate.
                let alpha = (st.stall_time.total as f64 / ctx.quantum as f64).clamp(0.0, 1.0);
                (1.0 - alpha + alpha * rate_ratio).max(1.0)
            };
            out.push(slowdown);
            let mut stall_time = st.stall_time;
            stall_time.reset();
            *st = AppState {
                stall_time,
                ..AppState::default()
            };
        }
        out
    }
}

asm_simcore::persist_fields!(AppState { misses, epoch_misses, epoch_count, stall_time });
asm_simcore::persist_fields!(MiseEstimator { [apps] });

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::Cycle;

    fn access(app: usize, hit: bool, owner: Option<usize>, now: Cycle) -> AccessEvent {
        AccessEvent {
            now,
            app: AppId::new(app),
            llc_hit: hit,
            ats: None,
            epoch_owner: owner.map(AppId::new),
        }
    }

    fn ctx(queueing: &[Cycle]) -> QuantumCtx<'_> {
        QuantumCtx {
            quantum: 100_000,
            epoch: 1_000,
            queueing_cycles: queueing,
        }
    }

    #[test]
    fn cache_hits_are_invisible_to_mise() {
        let mut est = MiseEstimator::new(1);
        est.on_epoch_start(Some(AppId::new(0)));
        for k in 0..100 {
            est.on_access(&access(0, true, Some(0), k));
        }
        let q = [0];
        assert_eq!(est.on_quantum_end(&ctx(&q))[0], 1.0);
    }

    fn miss(arrival: Cycle, finish: Cycle) -> super::MissEvent {
        super::MissEvent {
            app: AppId::new(0),
            arrival,
            finish,
            interference_cycles: 0,
            concurrent_misses: 1,
            epoch_owned_at_issue: false,
            epoch_end: Cycle::MAX,
            was_ats_hit: None,
            pollution_hit: false,
        }
    }

    #[test]
    fn higher_epoch_rate_means_higher_slowdown() {
        // 10 epochs owned (10k cycles) with 100 misses -> alone rate 0.01.
        // Whole quantum: 200 misses / 100k -> shared rate 0.002; rate
        // ratio 5. The app stalls half the quantum -> alpha 0.5, so the
        // full MISE model predicts 1 - 0.5 + 0.5 * 5 = 3.
        let mut est = MiseEstimator::new(1);
        for e in 0..10 {
            est.on_epoch_start(Some(AppId::new(0)));
            for k in 0..10 {
                est.on_access(&access(0, false, Some(0), e * 1_000 + k));
            }
        }
        for k in 0..100 {
            est.on_access(&access(0, false, None, 50_000 + k));
        }
        est.on_miss_complete(&miss(0, 50_000));
        let q = [0];
        let s = est.on_quantum_end(&ctx(&q))[0];
        assert!((s - 3.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn fully_memory_bound_app_uses_raw_rate_ratio() {
        let mut est = MiseEstimator::new(1);
        for e in 0..10 {
            est.on_epoch_start(Some(AppId::new(0)));
            for k in 0..10 {
                est.on_access(&access(0, false, Some(0), e * 1_000 + k));
            }
        }
        for k in 0..100 {
            est.on_access(&access(0, false, None, 50_000 + k));
        }
        est.on_miss_complete(&miss(0, 100_000)); // stalled the whole quantum
        let q = [0];
        let s = est.on_quantum_end(&ctx(&q))[0];
        assert!((s - 5.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn state_resets() {
        let mut est = MiseEstimator::new(1);
        est.on_epoch_start(Some(AppId::new(0)));
        est.on_access(&access(0, false, Some(0), 1));
        let q = [0];
        est.on_quantum_end(&ctx(&q));
        assert_eq!(est.on_quantum_end(&ctx(&q))[0], 1.0);
    }
}
