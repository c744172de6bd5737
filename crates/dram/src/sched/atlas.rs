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

use super::{Candidate, QueuedRequest, SchedulerPolicy};

/// ATLAS tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtlasConfig {
    /// Length of the attained-service quantum, in cycles (the ATLAS paper
    /// uses ~10M memory cycles; scaled here to simulation defaults).
    pub quantum: Cycle,
    /// Exponential decay applied to attained service at quantum
    /// boundaries (the paper's α = 0.875).
    pub decay: f64,
    /// Service credited per completed request, in cycles (approximates the
    /// bank service time).
    pub service_per_request: u64,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            quantum: 1_000_000,
            decay: 0.875,
            service_per_request: 200,
        }
    }
}

/// The ATLAS scheduling policy (per channel).
///
/// # Examples
///
/// ```
/// use asm_dram::sched::{Atlas, AtlasConfig};
/// let p = Atlas::new(AtlasConfig::default(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Atlas {
    config: AtlasConfig,
    attained: Vec<f64>,
    next_quantum_at: Cycle,
}

impl Atlas {
    /// Creates the policy for `app_count` applications.
    #[must_use]
    pub fn new(config: AtlasConfig, app_count: usize) -> Self {
        Atlas {
            config,
            attained: vec![0.0; app_count],
            next_quantum_at: config.quantum,
        }
    }

    /// Attained service of `app` (decayed cycles of memory service).
    #[must_use]
    pub fn attained_service(&self, app: AppId) -> f64 {
        self.attained.get(app.index()).copied().unwrap_or(0.0)
    }
}

impl SchedulerPolicy for Atlas {
    fn maintain(&mut self, now: Cycle, _queue: &mut [QueuedRequest]) {
        if now >= self.next_quantum_at {
            for a in &mut self.attained {
                *a *= self.config.decay;
            }
            self.next_quantum_at = now + self.config.quantum;
        }
    }

    fn pick(
        &mut self,
        _now: Cycle,
        queue: &[QueuedRequest],
        candidates: &[Candidate],
    ) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let qa = &queue[a.queue_idx];
                let qb = &queue[b.queue_idx];
                // Least attained service first; then FR-FCFS.
                self.attained_service(qa.req.app)
                    .total_cmp(&self.attained_service(qb.req.app))
                    .then_with(|| (!a.row_hit).cmp(&!b.row_hit))
                    .then_with(|| qa.req.arrival.cmp(&qb.req.arrival))
            })
            .map(|(i, _)| i)
    }

    fn on_completion(&mut self, app: AppId) {
        if let Some(a) = self.attained.get_mut(app.index()) {
            *a += self.config.service_per_request as f64;
        }
    }
}

asm_simcore::persist_fields!(Atlas { [attained], next_quantum_at });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};

    #[test]
    fn least_attained_service_wins() {
        let mut p = Atlas::new(AtlasConfig::default(), 2);
        for _ in 0..10 {
            p.on_completion(AppId::new(0));
        }
        let queue = vec![
            queued(0, 0, 1, 0, 1), // heavy app, row hit, older
            queued(1, 1, 9, 1, 1), // light app, row miss, newer
        ];
        let cands = all_candidates(&[true, false]);
        let pick = p.pick(0, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 1);
    }

    #[test]
    fn ties_fall_back_to_frfcfs() {
        let mut p = Atlas::new(AtlasConfig::default(), 2);
        let queue = vec![queued(0, 0, 9, 0, 1), queued(1, 1, 1, 1, 1)];
        let cands = all_candidates(&[true, false]);
        // Equal attained service: row hit wins.
        let pick = p.pick(0, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 0);
    }

    #[test]
    fn attained_service_decays_at_quantum() {
        let mut p = Atlas::new(
            AtlasConfig {
                quantum: 100,
                decay: 0.5,
                service_per_request: 100,
            },
            1,
        );
        p.on_completion(AppId::new(0));
        assert_eq!(p.attained_service(AppId::new(0)), 100.0);
        p.maintain(100, &mut []);
        assert_eq!(p.attained_service(AppId::new(0)), 50.0);
    }
}
