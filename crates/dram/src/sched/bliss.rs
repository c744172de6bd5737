//! BLISS: the blacklisting memory scheduler [Subramanian+, ICCD 2014].
//!
//! BLISS observes that most of the benefit of application-aware scheduling
//! comes from separating *interference-causing* applications from the
//! rest, which needs only a single bit per application: an application
//! that gets `threshold` consecutive requests served is temporarily
//! *blacklisted* (deprioritised); the blacklist is cleared periodically.
//! Compared to PARBS/TCM it needs no per-application ranking, making it
//! much cheaper — the paper cites it (§8) among the schedulers ASM-Mem is
//! orthogonal to.

use asm_simcore::{AppId, Cycle};

use super::{Candidate, QueuedRequest, SchedulerPolicy};

/// BLISS tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlissConfig {
    /// Consecutive served requests after which an application is
    /// blacklisted (the BLISS paper uses 4).
    pub blacklist_threshold: u32,
    /// How often (cycles) the blacklist is cleared (the BLISS paper uses
    /// 10,000).
    pub clear_interval: Cycle,
}

impl Default for BlissConfig {
    fn default() -> Self {
        BlissConfig {
            blacklist_threshold: 4,
            clear_interval: 10_000,
        }
    }
}

/// The BLISS scheduling policy (per channel).
///
/// # Examples
///
/// ```
/// use asm_dram::sched::{Bliss, BlissConfig};
/// let p = Bliss::new(BlissConfig::default(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Bliss {
    config: BlissConfig,
    blacklisted: Vec<bool>,
    last_served: Option<AppId>,
    streak: u32,
    next_clear_at: Cycle,
}

impl Bliss {
    /// Creates the policy for `app_count` applications.
    #[must_use]
    pub fn new(config: BlissConfig, app_count: usize) -> Self {
        Bliss {
            config,
            blacklisted: vec![false; app_count],
            last_served: None,
            streak: 0,
            next_clear_at: config.clear_interval,
        }
    }

    /// Whether `app` is currently blacklisted.
    #[must_use]
    pub fn is_blacklisted(&self, app: AppId) -> bool {
        self.blacklisted.get(app.index()).copied().unwrap_or(false)
    }
}

impl SchedulerPolicy for Bliss {
    fn maintain(&mut self, now: Cycle, _queue: &mut [QueuedRequest]) {
        if now >= self.next_clear_at {
            self.blacklisted.fill(false);
            self.next_clear_at = now + self.config.clear_interval;
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
            .min_by_key(|(_, c)| {
                let q = &queue[c.queue_idx];
                (self.is_blacklisted(q.req.app), !c.row_hit, q.req.arrival)
            })
            .map(|(i, _)| i)
    }

    fn on_completion(&mut self, app: AppId) {
        if self.last_served == Some(app) {
            self.streak += 1;
            if self.streak >= self.config.blacklist_threshold {
                if let Some(b) = self.blacklisted.get_mut(app.index()) {
                    *b = true;
                }
            }
        } else {
            self.last_served = Some(app);
            self.streak = 1;
        }
    }
}

asm_simcore::persist_fields!(Bliss {
    [blacklisted],
    last_served,
    streak,
    next_clear_at,
} => |b: &Bliss| {
    asm_simcore::persist::ensure(
        b.last_served.is_none_or(|a| a.index() < b.blacklisted.len()),
        "last-served index out of range",
    )
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};

    #[test]
    fn streak_triggers_blacklist() {
        let mut p = Bliss::new(BlissConfig::default(), 2);
        for _ in 0..4 {
            p.on_completion(AppId::new(0));
        }
        assert!(p.is_blacklisted(AppId::new(0)));
        assert!(!p.is_blacklisted(AppId::new(1)));
    }

    #[test]
    fn interleaved_service_avoids_blacklist() {
        let mut p = Bliss::new(BlissConfig::default(), 2);
        for _ in 0..10 {
            p.on_completion(AppId::new(0));
            p.on_completion(AppId::new(1));
        }
        assert!(!p.is_blacklisted(AppId::new(0)));
        assert!(!p.is_blacklisted(AppId::new(1)));
    }

    #[test]
    fn blacklisted_app_loses_to_row_misses() {
        let mut p = Bliss::new(BlissConfig::default(), 2);
        for _ in 0..4 {
            p.on_completion(AppId::new(0));
        }
        let queue = vec![
            queued(0, 0, 1, 0, 1), // blacklisted, row hit, older
            queued(1, 1, 9, 1, 1), // clean, row miss, newer
        ];
        let cands = all_candidates(&[true, false]);
        let pick = p.pick(0, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 1);
    }

    #[test]
    fn blacklist_clears_periodically() {
        let mut p = Bliss::new(
            BlissConfig {
                blacklist_threshold: 2,
                clear_interval: 100,
            },
            1,
        );
        p.on_completion(AppId::new(0));
        p.on_completion(AppId::new(0));
        assert!(p.is_blacklisted(AppId::new(0)));
        p.maintain(100, &mut []);
        assert!(!p.is_blacklisted(AppId::new(0)));
    }
}
