//! PARBS: parallelism-aware batch scheduling [Mutlu & Moscibroda, ISCA 2008].
//!
//! PARBS groups outstanding requests into *batches* and services a whole
//! batch before starting the next, which bounds how long any application
//! can be starved. Within a batch, applications are *ranked*
//! shortest-job-first (fewest marked requests first), preserving each
//! application's bank-level parallelism. Within the same rank, FR-FCFS
//! tie-breaking applies.

use asm_simcore::AppId;

use super::QueuedRequest;

/// Maximum requests marked per application per bank when a batch forms
/// (the "marking cap"; the PARBS paper uses 5).
pub(crate) const PARBS_MARKING_CAP: usize = 5;

/// PARBS's per-channel state: its rank `(!marked, rank)` leads the pick.
#[derive(Debug, Clone)]
pub(crate) struct Parbs {
    /// `rank[app]`: lower is higher priority. Recomputed at batch formation.
    rank: Vec<usize>,
    banks: usize,
    // Batch-formation scratch, sized at construction so a batch allocates
    // nothing; not persisted (each batch overwrites it).
    /// Marks per (app, bank) pair, `app * banks + bank`.
    marked_per: Vec<usize>,
    /// Marks per app.
    total_marked: Vec<usize>,
    /// Queue indices oldest first, then apps by load.
    order: Vec<usize>,
}

impl Parbs {
    /// Creates the state for `app_count` applications on a channel of
    /// `banks` banks whose read queue holds `queue_capacity` requests.
    pub(crate) fn new(app_count: usize, banks: usize, queue_capacity: usize) -> Self {
        Parbs {
            rank: (0..app_count).collect(),
            banks,
            marked_per: vec![0; app_count * banks],
            total_marked: vec![0; app_count],
            order: Vec::with_capacity(queue_capacity.max(app_count)),
        }
    }

    pub(crate) fn rank_of(&self, app: AppId) -> usize {
        self.rank.get(app.index()).copied().unwrap_or(usize::MAX)
    }

    /// Forms a new batch once every marked request has drained.
    pub(crate) fn maintain(&mut self, queue: &mut [QueuedRequest]) {
        if !queue.is_empty() && queue.iter().all(|q| !q.marked) {
            self.form_batch(queue);
        }
    }

    /// Marks a new batch and recomputes application ranks
    /// (shortest-job-first by marked-request count, ties by app index).
    fn form_batch(&mut self, queue: &mut [QueuedRequest]) {
        let apps = self.rank.len();
        self.marked_per.fill(0);
        self.total_marked.fill(0);
        // Mark oldest-first; the index makes every key unique, so the
        // unstable sort orders exactly as a stable sort by arrival.
        self.order.clear();
        self.order.extend(0..queue.len());
        self.order.sort_unstable_by_key(|&i| (queue[i].req.arrival, i));
        for &i in &self.order {
            let q = &mut queue[i];
            let a = q.req.app.index();
            if a >= apps {
                continue;
            }
            let slot = a * self.banks + q.loc.bank;
            if self.marked_per[slot] < PARBS_MARKING_CAP {
                self.marked_per[slot] += 1;
                self.total_marked[a] += 1;
                q.marked = true;
            } else {
                q.marked = false;
            }
        }
        // Shortest job first: fewest marked requests -> best (lowest) rank.
        self.order.clear();
        self.order.extend(0..apps);
        self.order.sort_unstable_by_key(|&a| (self.total_marked[a], a));
        for (r, &a) in self.order.iter().enumerate() {
            self.rank[a] = r;
        }
    }
}

asm_simcore::persist_fields!(Parbs { [rank] } => |p: &Parbs| super::check_ranks(&p.rank));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};
    use crate::sched::Scheduler;

    fn parbs(apps: usize) -> Parbs {
        Parbs::new(apps, 8, 32)
    }

    #[test]
    fn batch_forms_when_no_marks_remain() {
        let mut p = parbs(2);
        let mut queue = vec![queued(0, 0, 1, 0, 1), queued(1, 1, 2, 1, 2)];
        p.maintain(&mut queue);
        assert!(queue.iter().all(|q| q.marked));
    }

    #[test]
    fn marking_cap_limits_per_app_per_bank() {
        let mut p = parbs(1);
        let n = PARBS_MARKING_CAP as u64 + 2;
        // Newest first in the queue: marking goes by arrival, not position.
        let mut queue: Vec<_> = (0..n).map(|i| queued(i, 0, n - i, 0, 1)).collect();
        p.maintain(&mut queue);
        let marked = queue.iter().filter(|q| q.marked).count();
        assert_eq!(marked, PARBS_MARKING_CAP);
        // The two newest are the unmarked ones.
        assert!(!queue[0].marked && !queue[1].marked);
    }

    #[test]
    fn marked_requests_beat_unmarked_row_hits() {
        // One request per bank over the cap: the newest stays unmarked.
        let cap = PARBS_MARKING_CAP as u64;
        let mut queue: Vec<_> = (0..=cap).map(|i| queued(i, 0, i, 0, i)).collect();
        let mut s = Scheduler::Parbs(parbs(2));
        s.maintain(0, &mut queue);
        assert!(!queue[PARBS_MARKING_CAP].marked);
        assert!(queue[..PARBS_MARKING_CAP].iter().all(|q| q.marked));
        // Even if the unmarked one is the only row hit, a marked one wins.
        let mut row_hits = vec![false; PARBS_MARKING_CAP + 1];
        row_hits[PARBS_MARKING_CAP] = true;
        let cands = all_candidates(&row_hits);
        assert_eq!(s.pick(&queue, &cands, None), Some(0));
    }

    #[test]
    fn shortest_job_ranked_first() {
        // app0 has 3 requests, app1 has 1: app1 should get rank 0.
        let mut queue = vec![
            queued(0, 0, 1, 0, 1),
            queued(1, 0, 2, 1, 1),
            queued(2, 0, 3, 2, 1),
            queued(3, 1, 4, 3, 1),
        ];
        let mut s = Scheduler::Parbs(parbs(2));
        s.maintain(0, &mut queue);
        let Scheduler::Parbs(p) = &s else { unreachable!() };
        assert!(p.rank_of(AppId::new(1)) < p.rank_of(AppId::new(0)));
        // Among marked candidates with equal row-hit status, app1 wins
        // despite arriving last.
        let cands = all_candidates(&[false, false, false, false]);
        assert_eq!(s.pick(&queue, &cands, None), Some(3));
    }

    #[test]
    fn no_rebatch_while_marks_outstanding() {
        let mut p = parbs(2);
        let mut queue = vec![queued(0, 0, 1, 0, 1)];
        p.maintain(&mut queue);
        assert!(queue[0].marked);
        // A newer request arriving mid-batch stays unmarked.
        queue.push(queued(1, 1, 5, 1, 1));
        p.maintain(&mut queue);
        assert!(!queue[1].marked);
    }
}
