//! TCM: thread cluster memory scheduling [Kim+, MICRO 2010].
//!
//! TCM periodically divides applications into a *latency-sensitive* cluster
//! (low memory intensity — always prioritised, since their requests are
//! rare but stall-critical) and a *bandwidth-sensitive* cluster (the rest).
//! Within the bandwidth cluster, ranks are *shuffled* periodically so that
//! no application is persistently deprioritised.

use asm_simcore::{AppId, Cycle, SimRng};

use super::{Candidate, QueuedRequest, SchedulerPolicy};

/// TCM tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcmConfig {
    /// How often clusters are recomputed, in cycles (TCM's "quantum").
    pub cluster_interval: Cycle,
    /// How often bandwidth-cluster ranks are shuffled, in cycles.
    pub shuffle_interval: Cycle,
    /// Fraction of total observed bandwidth the latency-sensitive cluster
    /// may consume (TCM's ClusterThresh).
    pub cluster_threshold: f64,
}

impl Default for TcmConfig {
    fn default() -> Self {
        TcmConfig {
            cluster_interval: 1_000_000,
            shuffle_interval: 8_000,
            cluster_threshold: 0.10,
        }
    }
}

/// The TCM scheduling policy (per channel).
///
/// # Examples
///
/// ```
/// use asm_dram::sched::{SchedulerPolicy, Tcm, TcmConfig};
/// let p = Tcm::new(TcmConfig::default(), 4, 42);
/// assert_eq!(p.name(), "TCM");
/// ```
#[derive(Debug, Clone)]
pub struct Tcm {
    config: TcmConfig,
    rng: SimRng,
    /// Requests completed per application in the current clustering window.
    window_served: Vec<u64>,
    /// Whether each application is in the latency-sensitive cluster.
    latency_sensitive: Vec<bool>,
    /// `rank[app]`: lower is higher priority within the bandwidth cluster.
    rank: Vec<usize>,
    next_cluster_at: Cycle,
    next_shuffle_at: Cycle,
}

impl Tcm {
    /// Creates the policy for `app_count` applications; `seed` drives the
    /// shuffling.
    #[must_use]
    pub fn new(config: TcmConfig, app_count: usize, seed: u64) -> Self {
        Tcm {
            config,
            rng: SimRng::seed_from(seed),
            window_served: vec![0; app_count],
            // Until the first clustering everyone is bandwidth-sensitive.
            latency_sensitive: vec![false; app_count],
            rank: (0..app_count).collect(),
            next_cluster_at: config.cluster_interval,
            next_shuffle_at: config.shuffle_interval,
        }
    }

    /// Whether `app` is currently classified latency-sensitive.
    #[must_use]
    pub fn is_latency_sensitive(&self, app: AppId) -> bool {
        self.latency_sensitive
            .get(app.index())
            .copied()
            .unwrap_or(false)
    }

    // asm-lint: allow(R9): quantum boundary — reclustering runs once per
    // TCM quantum, not per cycle; the order scratch is apps-sized
    fn recluster(&mut self) {
        let total: u64 = self.window_served.iter().sum();
        let budget = (total as f64 * self.config.cluster_threshold) as u64;
        // Take applications in increasing bandwidth order into the latency
        // cluster while their combined demand fits the budget.
        let mut order: Vec<usize> = (0..self.window_served.len()).collect();
        order.sort_by_key(|&a| (self.window_served[a], a));
        let mut used = 0u64;
        self.latency_sensitive.fill(false);
        for &a in &order {
            if used + self.window_served[a] <= budget {
                used += self.window_served[a];
                self.latency_sensitive[a] = true;
            } else {
                break;
            }
        }
        self.window_served.fill(0);
    }

    // asm-lint: allow(R9): shuffle boundary — runs once per shuffle
    // interval, not per cycle; the candidate list is apps-sized
    fn shuffle_ranks(&mut self) {
        // Shuffle only the bandwidth-cluster applications' relative order.
        let mut bw_apps: Vec<usize> = (0..self.rank.len())
            .filter(|&a| !self.latency_sensitive[a])
            .collect();
        self.rng.shuffle(&mut bw_apps);
        for (r, &a) in bw_apps.iter().enumerate() {
            self.rank[a] = r;
        }
    }

    fn rank_of(&self, app: AppId) -> usize {
        self.rank.get(app.index()).copied().unwrap_or(usize::MAX)
    }
}

impl SchedulerPolicy for Tcm {
    fn name(&self) -> &'static str {
        "TCM"
    }

    fn maintain(&mut self, now: Cycle, _queue: &mut [QueuedRequest]) {
        if now >= self.next_cluster_at {
            self.recluster();
            self.next_cluster_at = now + self.config.cluster_interval;
        }
        if now >= self.next_shuffle_at {
            self.shuffle_ranks();
            self.next_shuffle_at = now + self.config.shuffle_interval;
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
                    !self.is_latency_sensitive(q.req.app),
                    self.rank_of(q.req.app),
                    !c.row_hit,
                    q.req.arrival,
                )
            })
            .map(|(i, _)| i)
    }

    fn on_completion(&mut self, app: AppId) {
        if let Some(s) = self.window_served.get_mut(app.index()) {
            *s += 1;
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

    fn clustered_tcm() -> Tcm {
        let mut p = Tcm::new(
            TcmConfig {
                cluster_interval: 100,
                shuffle_interval: 50,
                cluster_threshold: 0.2,
            },
            2,
            7,
        );
        // app0 light (5 requests), app1 heavy (95): 0.2 * 100 = 20 budget
        // admits app0 only.
        for _ in 0..5 {
            p.on_completion(AppId::new(0));
        }
        for _ in 0..95 {
            p.on_completion(AppId::new(1));
        }
        p.maintain(100, &mut []);
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
        let mut p = clustered_tcm();
        let queue = vec![
            queued(0, 1, 1, 0, 1), // heavy app, row hit, older
            queued(1, 0, 9, 1, 1), // light app, row miss, newer
        ];
        let cands = all_candidates(&[true, false]);
        let pick = p.pick(200, &queue, &cands).unwrap();
        assert_eq!(cands[pick].queue_idx, 1);
    }

    #[test]
    fn shuffle_changes_bandwidth_ranks_eventually() {
        let mut p = Tcm::new(
            TcmConfig {
                cluster_interval: 1_000_000,
                shuffle_interval: 1,
                cluster_threshold: 0.0,
            },
            4,
            3,
        );
        let initial = p.rank.clone();
        let mut changed = false;
        for t in 0..32 {
            p.maintain(t, &mut []);
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
