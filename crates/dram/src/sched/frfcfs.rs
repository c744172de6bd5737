//! FR-FCFS: first-ready, first-come-first-served [Rixner+, ISCA 2000].
//!
//! Prioritises (1) requests that hit the open row — maximising bandwidth
//! utilisation — and (2) older requests — guaranteeing forward progress.
//! Application-unaware: as the paper notes (§7.2.2), it tends to unfairly
//! slow down applications with low row-buffer locality and low memory
//! intensity, which is what the application-aware schedulers and ASM-Mem
//! improve upon. It has no state and no rank of its own: `(!row_hit,
//! arrival)` is the tail of every scheduler's key, so this module holds
//! only the tests of that tail.

#[cfg(test)]
mod tests {
    use crate::sched::testutil::{all_candidates, queued};
    use crate::sched::Scheduler;

    #[test]
    fn prefers_row_hit_over_older() {
        let queue = vec![
            queued(0, 0, 10, 0, 1), // older, row miss
            queued(1, 1, 20, 1, 2), // newer, row hit
        ];
        let cands = all_candidates(&[false, true]);
        assert_eq!(Scheduler::FrFcfs.pick(&queue, &cands, None), Some(1));
    }

    #[test]
    fn falls_back_to_oldest() {
        let queue = vec![
            queued(0, 0, 30, 0, 1),
            queued(1, 1, 10, 1, 2),
            queued(2, 0, 20, 2, 3),
        ];
        let cands = all_candidates(&[false, false, false]);
        assert_eq!(Scheduler::FrFcfs.pick(&queue, &cands, None), Some(1));
    }

    #[test]
    fn among_row_hits_picks_oldest() {
        let queue = vec![queued(0, 0, 30, 0, 1), queued(1, 1, 10, 1, 2)];
        let cands = all_candidates(&[true, true]);
        assert_eq!(Scheduler::FrFcfs.pick(&queue, &cands, None), Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(Scheduler::FrFcfs.pick(&[], &[], None), None);
    }
}
