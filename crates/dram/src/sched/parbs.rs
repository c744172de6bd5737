//! PARBS: parallelism-aware batch scheduling [Mutlu & Moscibroda, ISCA 2008].
//!
//! PARBS groups outstanding requests into *batches* and services a whole
//! batch before starting the next, which bounds how long any application
//! can be starved. Within a batch, applications are *ranked*
//! shortest-job-first (fewest marked requests first), preserving each
//! application's bank-level parallelism. Within the same rank, FR-FCFS
//! tie-breaking applies.

use asm_simcore::{AppId, Cycle};

use super::{Candidate, QueuedRequest, SchedulerPolicy};

/// PARBS tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParbsConfig {
    /// Maximum requests marked per application per bank when a batch forms
    /// (the "marking cap"; the PARBS paper uses 5).
    pub marking_cap: usize,
}

impl Default for ParbsConfig {
    fn default() -> Self {
        ParbsConfig { marking_cap: 5 }
    }
}

/// The PARBS scheduling policy (per channel).
///
/// # Examples
///
/// ```
/// use asm_dram::sched::{Parbs, ParbsConfig};
/// let p = Parbs::new(ParbsConfig::default(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Parbs {
    config: ParbsConfig,
    /// `rank[app]`: lower is higher priority. Recomputed at batch formation.
    rank: Vec<usize>,
}

impl Parbs {
    /// Creates the policy for `app_count` applications.
    #[must_use]
    pub fn new(config: ParbsConfig, app_count: usize) -> Self {
        Parbs {
            config,
            rank: (0..app_count).collect(),
        }
    }

    fn rank_of(&self, app: AppId) -> usize {
        self.rank.get(app.index()).copied().unwrap_or(usize::MAX)
    }

    /// Marks a new batch and recomputes application ranks
    /// (shortest-job-first by marked-request count, ties by app index).
    // asm-lint: allow(R9): batch boundary — runs once per batch (when
    // every marked request has drained), not per cycle; scratch vectors
    // are proportional to apps×banks
    fn form_batch(&mut self, queue: &mut [QueuedRequest]) {
        let apps = self.rank.len();
        let banks = queue.iter().map(|q| q.loc.bank).max().map_or(1, |b| b + 1);
        // Count how many requests each (app, bank) pair has marked so far.
        let mut marked_per = vec![0usize; apps * banks];
        // Mark oldest-first.
        let mut order: Vec<usize> = (0..queue.len()).collect();
        order.sort_by_key(|&i| queue[i].req.arrival);
        let mut total_marked = vec![0usize; apps];
        for i in order {
            let q = &mut queue[i];
            let a = q.req.app.index();
            if a >= apps {
                continue;
            }
            let slot = a * banks + q.loc.bank;
            if marked_per[slot] < self.config.marking_cap {
                marked_per[slot] += 1;
                total_marked[a] += 1;
                q.marked = true;
            } else {
                q.marked = false;
            }
        }
        // Shortest job first: fewest marked requests -> best (lowest) rank.
        let mut by_load: Vec<usize> = (0..apps).collect();
        by_load.sort_by_key(|&a| (total_marked[a], a));
        for (r, &a) in by_load.iter().enumerate() {
            self.rank[a] = r;
        }
    }
}

impl SchedulerPolicy for Parbs {
    fn maintain(&mut self, _now: Cycle, queue: &mut [QueuedRequest]) {
        if !queue.is_empty() && queue.iter().all(|q| !q.marked) {
            self.form_batch(queue);
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
                (
                    !q.marked,
                    self.rank_of(q.req.app),
                    !c.row_hit,
                    q.req.arrival,
                )
            })
            .map(|(i, _)| i)
    }
}

asm_simcore::persist_fields!(Parbs { [rank] } => |p: &Parbs| super::check_ranks(&p.rank));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};

    #[test]
    fn batch_forms_when_no_marks_remain() {
        let mut p = Parbs::new(ParbsConfig::default(), 2);
        let mut queue = vec![queued(0, 0, 1, 0, 1), queued(1, 1, 2, 1, 2)];
        p.maintain(0, &mut queue);
        assert!(queue.iter().all(|q| q.marked));
    }

    #[test]
    fn marking_cap_limits_per_app_per_bank() {
        let cfg = ParbsConfig { marking_cap: 2 };
        let mut p = Parbs::new(cfg, 1);
        let mut queue: Vec<_> = (0..5).map(|i| queued(i, 0, i, 0, 1)).collect();
        p.maintain(0, &mut queue);
        let marked = queue.iter().filter(|q| q.marked).count();
        assert_eq!(marked, 2);
        // The oldest two are the marked ones.
        assert!(queue[0].marked && queue[1].marked);
    }

    #[test]
    fn marked_requests_beat_unmarked_row_hits() {
        let mut p = Parbs::new(ParbsConfig { marking_cap: 1 }, 2);
        let mut queue = vec![
            queued(0, 0, 1, 0, 1), // will be marked
            queued(1, 0, 2, 0, 2), // over cap: unmarked
        ];
        p.maintain(0, &mut queue);
        assert!(queue[0].marked && !queue[1].marked);
        // Even if the unmarked one is a row hit, the marked one wins.
        let cands = all_candidates(&[false, true]);
        let pick = p.pick(0, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 0);
    }

    #[test]
    fn shortest_job_ranked_first() {
        let mut p = Parbs::new(ParbsConfig::default(), 2);
        // app0 has 3 requests, app1 has 1: app1 should get rank 0.
        let mut queue = vec![
            queued(0, 0, 1, 0, 1),
            queued(1, 0, 2, 1, 1),
            queued(2, 0, 3, 2, 1),
            queued(3, 1, 4, 3, 1),
        ];
        p.maintain(0, &mut queue);
        assert!(p.rank_of(AppId::new(1)) < p.rank_of(AppId::new(0)));
        // Among marked candidates with equal row-hit status, app1 wins
        // despite arriving last.
        let cands = all_candidates(&[false, false, false, false]);
        let pick = p.pick(0, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 3);
    }

    #[test]
    fn no_rebatch_while_marks_outstanding() {
        let mut p = Parbs::new(ParbsConfig::default(), 2);
        let mut queue = vec![queued(0, 0, 1, 0, 1)];
        p.maintain(0, &mut queue);
        assert!(queue[0].marked);
        // A newer request arriving mid-batch stays unmarked.
        queue.push(queued(1, 1, 5, 1, 1));
        p.maintain(1, &mut queue);
        assert!(!queue[1].marked);
    }
}
