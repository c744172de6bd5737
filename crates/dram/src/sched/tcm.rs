//! TCM: thread cluster memory scheduling [Kim+, MICRO 2010].
//!
//! TCM periodically divides applications into a *latency-sensitive* cluster
//! (low memory intensity — always prioritised, since their requests are
//! rare but stall-critical) and a *bandwidth-sensitive* cluster (the rest).
//! Within the bandwidth cluster, ranks are *shuffled* periodically so that
//! no application is persistently deprioritised.

use asm_simcore::{AppId, Cycle, SimRng};

/// How often clusters are recomputed, in cycles (TCM's "quantum").
pub(crate) const TCM_CLUSTER_INTERVAL: Cycle = 1_000_000;
/// How often bandwidth-cluster ranks are shuffled, in cycles.
pub(crate) const TCM_SHUFFLE_INTERVAL: Cycle = 8_000;
/// Fraction of total observed bandwidth the latency-sensitive cluster may
/// consume (TCM's ClusterThresh).
pub(crate) const TCM_CLUSTER_THRESHOLD: f64 = 0.10;

/// TCM's per-channel state: its rank `(!latency_sensitive, rank)` leads
/// the pick.
#[derive(Debug, Clone)]
pub(crate) struct Tcm {
    rng: SimRng,
    /// Requests completed per application in the current clustering window.
    window_served: Vec<u64>,
    /// Whether each application is in the latency-sensitive cluster.
    latency_sensitive: Vec<bool>,
    /// `rank[app]`: lower is higher priority within the bandwidth cluster.
    rank: Vec<usize>,
    next_cluster_at: Cycle,
    next_shuffle_at: Cycle,
    /// Apps-sized scratch for reclustering and shuffling, so neither
    /// allocates; not persisted (each use overwrites it).
    scratch: Vec<usize>,
}

impl Tcm {
    /// Creates the state for `app_count` applications; `seed` drives the
    /// shuffling.
    pub(crate) fn new(app_count: usize, seed: u64) -> Self {
        Tcm {
            rng: SimRng::seed_from(seed),
            window_served: vec![0; app_count],
            // Until the first clustering everyone is bandwidth-sensitive.
            latency_sensitive: vec![false; app_count],
            rank: (0..app_count).collect(),
            next_cluster_at: TCM_CLUSTER_INTERVAL,
            next_shuffle_at: TCM_SHUFFLE_INTERVAL,
            scratch: Vec::with_capacity(app_count),
        }
    }

    /// Whether `app` is currently classified latency-sensitive.
    pub(crate) fn is_latency_sensitive(&self, app: AppId) -> bool {
        self.latency_sensitive
            .get(app.index())
            .copied()
            .unwrap_or(false)
    }

    pub(crate) fn rank_of(&self, app: AppId) -> usize {
        self.rank.get(app.index()).copied().unwrap_or(usize::MAX)
    }

    /// Re-clusters at each TCM quantum and shuffles at each shuffle
    /// interval.
    pub(crate) fn maintain(&mut self, now: Cycle) {
        if now >= self.next_cluster_at {
            self.recluster();
            self.next_cluster_at = now + TCM_CLUSTER_INTERVAL;
        }
        if now >= self.next_shuffle_at {
            self.shuffle_ranks();
            self.next_shuffle_at = now + TCM_SHUFFLE_INTERVAL;
        }
    }

    /// Counts a completed read of `app` towards its clustering window.
    pub(crate) fn on_completion(&mut self, app: AppId) {
        if let Some(s) = self.window_served.get_mut(app.index()) {
            *s += 1;
        }
    }

    fn recluster(&mut self) {
        let total: u64 = self.window_served.iter().sum();
        let budget = (total as f64 * TCM_CLUSTER_THRESHOLD) as u64;
        // Take applications in increasing bandwidth order into the latency
        // cluster while their combined demand fits the budget. The app
        // index makes every key unique, so the unstable sort is stable.
        self.scratch.clear();
        self.scratch.extend(0..self.window_served.len());
        self.scratch.sort_unstable_by_key(|&a| (self.window_served[a], a));
        let mut used = 0u64;
        self.latency_sensitive.fill(false);
        for &a in &self.scratch {
            if used + self.window_served[a] <= budget {
                used += self.window_served[a];
                self.latency_sensitive[a] = true;
            } else {
                break;
            }
        }
        self.window_served.fill(0);
    }

    fn shuffle_ranks(&mut self) {
        // Shuffle only the bandwidth-cluster applications' relative order.
        self.scratch.clear();
        self.scratch
            .extend((0..self.rank.len()).filter(|&a| !self.latency_sensitive[a]));
        self.rng.shuffle(&mut self.scratch);
        for (r, &a) in self.scratch.iter().enumerate() {
            self.rank[a] = r;
        }
    }
}

asm_simcore::persist_fields!(Tcm {
    rng,
    [window_served],
    [latency_sensitive],
    [rank],
    next_cluster_at,
    next_shuffle_at,
} => |p: &Tcm| super::check_ranks(&p.rank));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{all_candidates, queued};
    use crate::sched::Scheduler;

    fn clustered_tcm() -> Tcm {
        let mut p = Tcm::new(2, 7);
        // app0 light (5 requests), app1 heavy (95): 0.10 * 100 = 10 budget
        // admits app0 only.
        for _ in 0..5 {
            p.on_completion(AppId::new(0));
        }
        for _ in 0..95 {
            p.on_completion(AppId::new(1));
        }
        p.maintain(TCM_CLUSTER_INTERVAL);
        p
    }

    #[test]
    fn light_app_becomes_latency_sensitive() {
        let p = clustered_tcm();
        assert!(p.is_latency_sensitive(AppId::new(0)));
        assert!(!p.is_latency_sensitive(AppId::new(1)));
    }

    #[test]
    fn latency_cluster_beats_row_hits() {
        let s = Scheduler::Tcm(clustered_tcm());
        let queue = vec![
            queued(0, 1, 1, 0, 1), // heavy app, row hit, older
            queued(1, 0, 9, 1, 1), // light app, row miss, newer
        ];
        let cands = all_candidates(&[true, false]);
        assert_eq!(s.pick(&queue, &cands, None), Some(1));
    }

    #[test]
    fn shuffle_changes_bandwidth_ranks_eventually() {
        let mut p = Tcm::new(4, 3);
        let initial = p.rank.clone();
        let mut changed = false;
        // Every shuffle before the first clustering permutes all four.
        for t in 1..32 {
            p.maintain(t * TCM_SHUFFLE_INTERVAL);
            if p.rank != initial {
                changed = true;
                break;
            }
        }
        assert!(changed, "shuffling should eventually permute ranks");
    }

    #[test]
    fn window_counts_reset_after_clustering() {
        let mut p = clustered_tcm();
        assert!(p.window_served.iter().all(|&s| s == 0));
        p.on_completion(AppId::new(1));
        assert_eq!(p.window_served[1], 1);
    }
}
