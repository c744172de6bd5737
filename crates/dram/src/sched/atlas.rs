//! ATLAS: adaptive per-thread least-attained-service memory scheduling
//! [Kim+, HPCA 2010].
//!
//! ATLAS ranks applications by *attained service* — the memory service
//! time they have received over a long quantum — and prioritises the
//! application with the least. This favours light applications (which
//! finish their bursts quickly) and bounds the damage heavy streamers can
//! do, at some cost in fairness for the heaviest applications (the
//! motivation for TCM, its successor). Attained service decays
//! geometrically across quanta.

use asm_simcore::{AppId, Cycle};

/// Length of the attained-service quantum, in cycles (the ATLAS paper uses
/// ~10M memory cycles; scaled here to simulation defaults).
pub(crate) const ATLAS_QUANTUM: Cycle = 1_000_000;
/// Exponential decay applied to attained service at quantum boundaries
/// (the paper's α = 0.875).
pub(crate) const ATLAS_DECAY: f64 = 0.875;
/// Service credited per completed request, in cycles (approximates the
/// bank service time).
pub(crate) const ATLAS_SERVICE_PER_REQUEST: f64 = 200.0;

/// ATLAS's per-channel state: attained service leads the pick.
#[derive(Debug, Clone)]
pub(crate) struct Atlas {
    /// Decayed cycles of memory service per application. Always finite and
    /// non-negative (`+0.0` included, `-0.0` not): it starts at `0.0` and
    /// only grows by the credit or shrinks by the decay.
    attained: Vec<f64>,
    next_quantum_at: Cycle,
}

impl Atlas {
    /// Creates the state for `app_count` applications.
    pub(crate) fn new(app_count: usize) -> Self {
        Atlas {
            attained: vec![0.0; app_count],
            next_quantum_at: ATLAS_QUANTUM,
        }
    }

    /// Attained service of `app` as an integer that orders as the value
    /// does under `f64::total_cmp`. For a non-negative `f64` the bit
    /// pattern does, which is why restore rejects any other value.
    pub(crate) fn service_rank(&self, app: AppId) -> u64 {
        self.attained.get(app.index()).map_or(0, |a| a.to_bits())
    }

    /// Attained service of `app` (decayed cycles of memory service).
    #[cfg(test)]
    pub(crate) fn attained_service(&self, app: AppId) -> f64 {
        self.attained.get(app.index()).copied().unwrap_or(0.0)
    }

    /// Decays attained service at each quantum boundary.
    pub(crate) fn maintain(&mut self, now: Cycle) {
        if now >= self.next_quantum_at {
            for a in &mut self.attained {
                *a *= ATLAS_DECAY;
            }
            self.next_quantum_at = now + ATLAS_QUANTUM;
        }
    }

    /// Credits a completed read to `app`.
    pub(crate) fn on_completion(&mut self, app: AppId) {
        if let Some(a) = self.attained.get_mut(app.index()) {
            *a += ATLAS_SERVICE_PER_REQUEST;
        }
    }
}

// `service_rank` orders by bit pattern, which matches the values' order
// only while none is negative (`-0.0` included) or NaN.
asm_simcore::persist_fields!(Atlas { [attained], next_quantum_at } => |p: &Atlas| {
    asm_simcore::persist::ensure(
        p.attained.iter().all(|a| a.is_finite() && a.is_sign_positive()),
        "attained service negative or not finite",
    )
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};
    use crate::sched::Scheduler;

    #[test]
    fn least_attained_service_wins() {
        let mut p = Atlas::new(2);
        for _ in 0..10 {
            p.on_completion(AppId::new(0));
        }
        let queue = vec![
            queued(0, 0, 1, 0, 1), // heavy app, row hit, older
            queued(1, 1, 9, 1, 1), // light app, row miss, newer
        ];
        let cands = all_candidates(&[true, false]);
        assert_eq!(Scheduler::Atlas(p).pick(&queue, &cands, None), Some(1));
    }

    #[test]
    fn ties_fall_back_to_frfcfs() {
        let s = Scheduler::Atlas(Atlas::new(2));
        let queue = vec![queued(0, 0, 9, 0, 1), queued(1, 1, 1, 1, 1)];
        let cands = all_candidates(&[true, false]);
        // Equal attained service: row hit wins.
        assert_eq!(s.pick(&queue, &cands, None), Some(0));
    }

    #[test]
    fn attained_service_decays_at_quantum() {
        let mut p = Atlas::new(1);
        p.on_completion(AppId::new(0));
        // Bitwise: the decay is one exact multiplication.
        let bits = |p: &Atlas| p.attained_service(AppId::new(0)).to_bits();
        assert_eq!(bits(&p), ATLAS_SERVICE_PER_REQUEST.to_bits());
        p.maintain(ATLAS_QUANTUM - 1);
        assert_eq!(bits(&p), ATLAS_SERVICE_PER_REQUEST.to_bits());
        p.maintain(ATLAS_QUANTUM);
        assert_eq!(bits(&p), (ATLAS_SERVICE_PER_REQUEST * ATLAS_DECAY).to_bits());
    }

    #[test]
    fn restore_rejects_what_service_rank_cannot_order() {
        use asm_simcore::persist::{Persist, StateReader, StateWriter};
        for bad in [-0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut forged = Atlas::new(2);
            forged.attained[1] = bad;
            let mut w = StateWriter::new("test-atlas", 1);
            forged.save(&mut w);
            let bytes = w.finish();
            let mut r = StateReader::new(&bytes, "test-atlas", 1).expect("header valid");
            let err = Atlas::new(2).restore(&mut r).expect_err("refused");
            assert!(err.to_string().contains("attained service"), "{bad}: {err}");
        }
    }
}
