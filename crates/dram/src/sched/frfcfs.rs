//! FR-FCFS: first-ready, first-come-first-served [Rixner+, ISCA 2000].
//!
//! Prioritises (1) requests that hit the open row — maximising bandwidth
//! utilisation — and (2) older requests — guaranteeing forward progress.
//! Application-unaware: as the paper notes (§7.2.2), it tends to unfairly
//! slow down applications with low row-buffer locality and low memory
//! intensity, which is what the application-aware schedulers and ASM-Mem
//! improve upon.

use asm_simcore::Cycle;

use super::{Candidate, QueuedRequest, SchedulerPolicy};

/// The FR-FCFS scheduling policy.
///
/// # Examples
///
/// ```
/// use asm_dram::sched::{FrFcfs, SchedulerPolicy};
/// let p = FrFcfs::new();
/// assert_eq!(p.name(), "FRFCFS");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        FrFcfs
    }
}

impl SchedulerPolicy for FrFcfs {
    fn name(&self) -> &'static str {
        "FRFCFS"
    }

    fn maintain(&mut self, _now: Cycle, _queue: &mut [QueuedRequest]) {}

    fn pick(
        &mut self,
        _now: Cycle,
        queue: &[QueuedRequest],
        candidates: &[Candidate],
    ) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (!c.row_hit, queue[c.queue_idx].req.arrival))
            .map(|(i, _)| i)
    }
}

// Stateless: every decision derives from the queue contents.
asm_simcore::persist_fields!(FrFcfs {});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};

    #[test]
    fn prefers_row_hit_over_older() {
        let mut p = FrFcfs::new();
        let queue = vec![
            queued(0, 0, 10, 0, 1), // older, row miss
            queued(1, 1, 20, 1, 2), // newer, row hit
        ];
        let cands = all_candidates(&[false, true]);
        let pick = p.pick(100, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 1);
    }

    #[test]
    fn falls_back_to_oldest() {
        let mut p = FrFcfs::new();
        let queue = vec![
            queued(0, 0, 30, 0, 1),
            queued(1, 1, 10, 1, 2),
            queued(2, 0, 20, 2, 3),
        ];
        let cands = all_candidates(&[false, false, false]);
        let pick = p.pick(100, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 1);
    }

    #[test]
    fn among_row_hits_picks_oldest() {
        let mut p = FrFcfs::new();
        let queue = vec![queued(0, 0, 30, 0, 1), queued(1, 1, 10, 1, 2)];
        let cands = all_candidates(&[true, true]);
        let pick = p.pick(100, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 1);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut p = FrFcfs::new();
        assert_eq!(p.pick(0, &[], &[]), None);
    }
}
