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

/// Consecutive served requests after which an application is blacklisted
/// (the BLISS paper uses 4).
pub(crate) const BLISS_BLACKLIST_THRESHOLD: u32 = 4;
/// How often (cycles) the blacklist is cleared (the BLISS paper uses
/// 10,000).
pub(crate) const BLISS_CLEAR_INTERVAL: Cycle = 10_000;

/// BLISS's per-channel state: the blacklist bit leads the pick.
#[derive(Debug, Clone)]
pub(crate) struct Bliss {
    blacklisted: Vec<bool>,
    last_served: Option<AppId>,
    streak: u32,
    next_clear_at: Cycle,
}

impl Bliss {
    /// Creates the state for `app_count` applications.
    pub(crate) fn new(app_count: usize) -> Self {
        Bliss {
            blacklisted: vec![false; app_count],
            last_served: None,
            streak: 0,
            next_clear_at: BLISS_CLEAR_INTERVAL,
        }
    }

    /// Whether `app` is currently blacklisted.
    pub(crate) fn is_blacklisted(&self, app: AppId) -> bool {
        self.blacklisted.get(app.index()).copied().unwrap_or(false)
    }

    /// Clears the blacklist at each clearing interval.
    pub(crate) fn maintain(&mut self, now: Cycle) {
        if now >= self.next_clear_at {
            self.blacklisted.fill(false);
            self.next_clear_at = now + BLISS_CLEAR_INTERVAL;
        }
    }

    /// Extends or restarts the serving streak; a long one blacklists.
    pub(crate) fn on_completion(&mut self, app: AppId) {
        if self.last_served == Some(app) {
            self.streak += 1;
            if self.streak >= BLISS_BLACKLIST_THRESHOLD {
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
    use crate::sched::Scheduler;

    fn serve(p: &mut Bliss, app: usize, times: u32) {
        for _ in 0..times {
            p.on_completion(AppId::new(app));
        }
    }

    #[test]
    fn streak_triggers_blacklist() {
        let mut p = Bliss::new(2);
        serve(&mut p, 0, BLISS_BLACKLIST_THRESHOLD - 1);
        assert!(!p.is_blacklisted(AppId::new(0)));
        serve(&mut p, 0, 1);
        assert!(p.is_blacklisted(AppId::new(0)));
        assert!(!p.is_blacklisted(AppId::new(1)));
    }

    #[test]
    fn interleaved_service_avoids_blacklist() {
        let mut p = Bliss::new(2);
        for _ in 0..10 {
            p.on_completion(AppId::new(0));
            p.on_completion(AppId::new(1));
        }
        assert!(!p.is_blacklisted(AppId::new(0)));
        assert!(!p.is_blacklisted(AppId::new(1)));
    }

    #[test]
    fn blacklisted_app_loses_to_row_misses() {
        let mut p = Bliss::new(2);
        serve(&mut p, 0, BLISS_BLACKLIST_THRESHOLD);
        let queue = vec![
            queued(0, 0, 1, 0, 1), // blacklisted, row hit, older
            queued(1, 1, 9, 1, 1), // clean, row miss, newer
        ];
        let cands = all_candidates(&[true, false]);
        assert_eq!(Scheduler::Bliss(p).pick(&queue, &cands, None), Some(1));
    }

    #[test]
    fn blacklist_clears_periodically() {
        let mut p = Bliss::new(1);
        serve(&mut p, 0, BLISS_BLACKLIST_THRESHOLD);
        assert!(p.is_blacklisted(AppId::new(0)));
        p.maintain(BLISS_CLEAR_INTERVAL - 1);
        assert!(p.is_blacklisted(AppId::new(0)));
        p.maintain(BLISS_CLEAR_INTERVAL);
        assert!(!p.is_blacklisted(AppId::new(0)));
    }
}
