//! Memory-scheduling policies.
//!
//! The controller separates *mechanism* (bank timing, bus serialisation,
//! request buffering — [`crate::controller`]) from *policy* (which ready
//! request to service next — this module). Every policy is one idea: rank
//! the ready requests by an application-aware key, service the least, and
//! break ties FR-FCFS — row hits first, then oldest. The five schedulers
//! differ only in the rank. The whole key, outermost first:
//!
//! 1. **ASM's epoch priority**: the epoch owner's requests before all
//!    others (§3.2 step 1). ASM-Mem is not a policy: it is FR-FCFS under
//!    this key, with epochs assigned to applications with probability
//!    proportional to slowdown (§7.2).
//! 2. **The scheduler's rank**, lower first:
//!
//!    | scheduler | rank |
//!    |---|---|
//!    | FR-FCFS [Rixner+, ISCA 2000] | none |
//!    | PARBS [Mutlu & Moscibroda, ISCA 2008] | `(!marked, rank)`: the batch, then shortest job |
//!    | TCM [Kim+, MICRO 2010] | `(!latency_sensitive, rank)`: the cluster, then shuffled rank |
//!    | ATLAS [Kim+, HPCA 2010] | attained service, ordered as `f64::total_cmp` |
//!    | BLISS [Subramanian+, ICCD 2014] | `blacklisted` |
//!
//! 3. **FR-FCFS**: `!row_hit`, then `arrival`.
//!
//! Among equal keys the first candidate in the controller's order wins.
//! The set is closed: [`SchedulerKind::ALL`] lists it, and a scheduler is
//! state plus a rank, not an open trait.

mod atlas;
mod bliss;
mod frfcfs;
mod parbs;
mod tcm;

use atlas::Atlas;
use bliss::Bliss;
use parbs::Parbs;
use tcm::Tcm;

use asm_simcore::persist::{Persist, PersistError, StateReader, StateWriter};
use asm_simcore::{AppId, Cycle};

use crate::accounting::InterferenceSnapshot;
use crate::controller::DramConfig;
use crate::mapping::Loc;
use crate::request::MemRequest;

/// A request waiting in a channel's read queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueuedRequest {
    /// The underlying request.
    pub(crate) req: MemRequest,
    /// Its decoded DRAM location.
    pub(crate) loc: Loc,
    /// PARBS batch flag: whether this request belongs to the current batch.
    pub(crate) marked: bool,
    /// Interference-counter snapshot taken at enqueue; the controller
    /// materialises the cycles this request spent waiting behind other
    /// applications at issue time (see
    /// [`ChannelAccounting`](crate::accounting::ChannelAccounting)).
    pub(crate) interference_snap: InterferenceSnapshot,
}

asm_simcore::persist_fields!(QueuedRequest { req, loc, marked, interference_snap });

/// A schedulable request this cycle: its queue position plus precomputed
/// row-buffer information.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Index into the channel's read queue.
    pub(crate) queue_idx: usize,
    /// Whether the request would hit the currently open row.
    pub(crate) row_hit: bool,
}

/// One channel's scheduler: a variant per [`SchedulerKind`], holding that
/// policy's state (PARBS batches, TCM clusters, ATLAS service, BLISS's
/// blacklist).
#[derive(Debug, Clone)]
pub(crate) enum Scheduler {
    FrFcfs,
    Parbs(Parbs),
    Tcm(Tcm),
    Atlas(Atlas),
    Bliss(Bliss),
}

impl Scheduler {
    /// Builds a `kind` scheduler for one channel of `config` serving
    /// `app_count` applications; `seed` drives TCM's shuffling.
    pub(crate) fn new(
        kind: SchedulerKind,
        config: &DramConfig,
        app_count: usize,
        seed: u64,
    ) -> Self {
        match kind {
            SchedulerKind::FrFcfs => Scheduler::FrFcfs,
            SchedulerKind::Parbs => Scheduler::Parbs(Parbs::new(
                app_count,
                config.banks,
                config.read_queue_capacity,
            )),
            SchedulerKind::Tcm => Scheduler::Tcm(Tcm::new(app_count, seed)),
            SchedulerKind::Atlas => Scheduler::Atlas(Atlas::new(app_count)),
            SchedulerKind::Bliss => Scheduler::Bliss(Bliss::new(app_count)),
        }
    }

    /// Updates policy state before each scheduling attempt: forms a PARBS
    /// batch, re-clusters and shuffles TCM, decays ATLAS's service, clears
    /// BLISS's blacklist. Only PARBS touches the queue, and only its marks.
    pub(crate) fn maintain(&mut self, now: Cycle, queue: &mut [QueuedRequest]) {
        match self {
            Scheduler::FrFcfs => {}
            Scheduler::Parbs(p) => p.maintain(queue),
            Scheduler::Tcm(t) => t.maintain(now),
            Scheduler::Atlas(a) => a.maintain(now),
            Scheduler::Bliss(b) => b.maintain(now),
        }
    }

    /// Notes that a read of `app` finished.
    pub(crate) fn on_completion(&mut self, app: AppId) {
        match self {
            Scheduler::FrFcfs | Scheduler::Parbs(_) => {}
            Scheduler::Tcm(t) => t.on_completion(app),
            Scheduler::Atlas(a) => a.on_completion(app),
            Scheduler::Bliss(b) => b.on_completion(app),
        }
    }

    /// The queue index of the candidate to service next: the least by
    /// `(not the priority app, rank, !row_hit, arrival)`, the first of
    /// equals. `None` only when `candidates` is empty.
    pub(crate) fn pick(
        &self,
        queue: &[QueuedRequest],
        candidates: &[Candidate],
        priority: Option<AppId>,
    ) -> Option<usize> {
        match self {
            Scheduler::FrFcfs => least(queue, candidates, priority, |_| ()),
            Scheduler::Parbs(p) => least(queue, candidates, priority, |q| {
                (!q.marked, p.rank_of(q.req.app))
            }),
            Scheduler::Tcm(t) => least(queue, candidates, priority, |q| {
                (!t.is_latency_sensitive(q.req.app), t.rank_of(q.req.app))
            }),
            Scheduler::Atlas(a) => {
                least(queue, candidates, priority, |q| a.service_rank(q.req.app))
            }
            Scheduler::Bliss(b) => {
                least(queue, candidates, priority, |q| b.is_blacklisted(q.req.app))
            }
        }
    }
}

/// The one FR-FCFS pick under a scheduler's `rank`, with the epoch
/// priority outermost. The controller's write drain calls it too, with no
/// owner and the unit rank.
pub(crate) fn least<K: Ord>(
    queue: &[QueuedRequest],
    candidates: &[Candidate],
    priority: Option<AppId>,
    rank: impl Fn(&QueuedRequest) -> K,
) -> Option<usize> {
    candidates
        .iter()
        .min_by_key(|c| {
            let q = &queue[c.queue_idx];
            (Some(q.req.app) != priority, rank(q), !c.row_hit, q.req.arrival)
        })
        .map(|c| c.queue_idx)
}

// A scheduler's state is its variant's, with no tag: the restore target is
// built with the same kind, configuration and application count. This is
// the wire format the boxed policies wrote (FR-FCFS writes nothing).
impl Persist for Scheduler {
    fn save(&self, w: &mut StateWriter) {
        match self {
            Scheduler::FrFcfs => {}
            Scheduler::Parbs(p) => p.save(w),
            Scheduler::Tcm(t) => t.save(w),
            Scheduler::Atlas(a) => a.save(w),
            Scheduler::Bliss(b) => b.save(w),
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        match self {
            Scheduler::FrFcfs => Ok(()),
            Scheduler::Parbs(p) => p.restore(r),
            Scheduler::Tcm(t) => t.restore(r),
            Scheduler::Atlas(a) => a.restore(r),
            Scheduler::Bliss(b) => b.restore(r),
        }
    }
}

/// A restored per-application rank table may only hold ranks `0..apps`.
fn check_ranks(rank: &[usize]) -> Result<(), PersistError> {
    asm_simcore::persist::ensure(rank.iter().all(|&v| v < rank.len()), "rank value out of range")
}

/// Which scheduling policy a [`crate::MemorySystem`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Application-unaware row-hit-first (baseline, and the substrate for
    /// ASM's epoch prioritisation / ASM-Mem).
    FrFcfs,
    /// Parallelism-aware batch scheduling.
    Parbs,
    /// Thread cluster memory scheduling.
    Tcm,
    /// Adaptive least-attained-service scheduling.
    Atlas,
    /// The blacklisting memory scheduler.
    Bliss,
}

impl SchedulerKind {
    /// Every scheduler, in declaration order: the one list a test or a
    /// sweep over all of them reads.
    pub const ALL: [SchedulerKind; 5] = {
        let all = [Self::FrFcfs, Self::Parbs, Self::Tcm, Self::Atlas, Self::Bliss];
        // Each entry's place, by an exhaustive match: a sixth variant is a
        // compile error here until it is given one (the next) and appended.
        let mut i = 0;
        while i < all.len() {
            let place = match all[i] {
                Self::FrFcfs => 0,
                Self::Parbs => 1,
                Self::Tcm => 2,
                Self::Atlas => 3,
                Self::Bliss => 4,
            };
            assert!(place == i, "ALL lists each kind once, in declaration order");
            i += 1;
        }
        all
    };
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerKind::FrFcfs => "FRFCFS",
            SchedulerKind::Parbs => "PARBS",
            SchedulerKind::Tcm => "TCM",
            SchedulerKind::Atlas => "ATLAS",
            SchedulerKind::Bliss => "BLISS",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use asm_simcore::LineAddr;

    /// Builds a queued read for tests.
    pub fn queued(id: u64, app: usize, arrival: Cycle, bank: usize, row: u64) -> QueuedRequest {
        QueuedRequest {
            req: MemRequest::read(id, LineAddr::new(id), AppId::new(app), arrival),
            loc: Loc {
                channel: 0,
                bank,
                row,
                col: 0,
            },
            marked: false,
            interference_snap: InterferenceSnapshot::default(),
        }
    }

    /// Candidates covering every queue entry, with the given row-hit flags.
    pub fn all_candidates(row_hits: &[bool]) -> Vec<Candidate> {
        row_hits
            .iter()
            .enumerate()
            .map(|(i, &row_hit)| Candidate {
                queue_idx: i,
                row_hit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::queued;
    use super::*;
    use asm_simcore::SimRng;
    use proptest::prelude::*;

    const BANKS: usize = 8;

    /// The pick as it was before the policies shared one: the epoch owner's
    /// candidates form a pool of their own when it has any, and each policy
    /// takes the least of the pool by its own tuple (ATLAS by `min_by` over
    /// `f64::total_cmp`).
    fn longhand(
        s: &Scheduler,
        queue: &[QueuedRequest],
        candidates: &[Candidate],
        priority: Option<AppId>,
    ) -> Option<usize> {
        let owned: Vec<Candidate> = candidates
            .iter()
            .filter(|c| priority == Some(queue[c.queue_idx].req.app))
            .copied()
            .collect();
        let pool = if owned.is_empty() { candidates } else { &owned };
        let of = |c: &Candidate| &queue[c.queue_idx];
        let picked = match s {
            Scheduler::FrFcfs => pool.iter().min_by_key(|c| (!c.row_hit, of(c).req.arrival)),
            Scheduler::Parbs(p) => pool.iter().min_by_key(|c| {
                let q = of(c);
                (!q.marked, p.rank_of(q.req.app), !c.row_hit, q.req.arrival)
            }),
            Scheduler::Tcm(t) => pool.iter().min_by_key(|c| {
                let q = of(c);
                let app = q.req.app;
                (!t.is_latency_sensitive(app), t.rank_of(app), !c.row_hit, q.req.arrival)
            }),
            Scheduler::Atlas(a) => pool.iter().min_by(|x, y| {
                let (qx, qy) = (of(x), of(y));
                a.attained_service(qx.req.app)
                    .total_cmp(&a.attained_service(qy.req.app))
                    .then_with(|| (!x.row_hit).cmp(&!y.row_hit))
                    .then_with(|| qx.req.arrival.cmp(&qy.req.arrival))
            }),
            Scheduler::Bliss(b) => pool.iter().min_by_key(|c| {
                let q = of(c);
                (b.is_blacklisted(q.req.app), !c.row_hit, q.req.arrival)
            }),
        };
        picked.map(|c| c.queue_idx)
    }

    /// A queue of up to `max` reads: few banks, rows and arrival times, so
    /// ties are common; random PARBS marks.
    fn random_queue(rng: &mut SimRng, apps: usize, max: u64) -> Vec<QueuedRequest> {
        (0..rng.gen_range(max + 1))
            .map(|id| {
                let mut q = queued(
                    id,
                    rng.gen_range(apps as u64) as usize,
                    rng.gen_range(6),
                    rng.gen_range(BANKS as u64) as usize,
                    rng.gen_range(4),
                );
                q.marked = rng.gen_bool(0.5);
                q
            })
            .collect()
    }

    /// Drives `s` into a random state: completions in streaks (BLISS's
    /// blacklist) between `maintain` calls at short and long strides
    /// (TCM's shuffles and clusters, ATLAS's decay, PARBS's batches over
    /// random queues whose marks have drained).
    fn drive(s: &mut Scheduler, rng: &mut SimRng, apps: usize) {
        let mut now = 0;
        let mut app = 0;
        for _ in 0..rng.gen_range(300) {
            if rng.gen_bool(0.7) {
                if rng.gen_bool(0.3) {
                    app = rng.gen_range(apps as u64) as usize;
                }
                s.on_completion(AppId::new(app));
            } else {
                let stride = if rng.gen_bool(0.8) { 12_000 } else { 1_500_000 };
                now += rng.gen_range(stride);
                let mut queue = random_queue(rng, apps, 24);
                queue.iter_mut().for_each(|q| q.marked = false);
                s.maintain(now, &mut queue);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn one_pick_equals_each_policys_own_pick(seed in 0u64..u64::MAX) {
            let mut rng = SimRng::seed_from(seed);
            let apps = 1 + rng.gen_range(4) as usize;
            let config =
                DramConfig { banks: BANKS, read_queue_capacity: 24, ..DramConfig::default() };
            for kind in SchedulerKind::ALL {
                let mut s = Scheduler::new(kind, &config, apps, seed);
                drive(&mut s, &mut rng, apps);
                for _ in 0..8 {
                    let queue = random_queue(&mut rng, apps, 16);
                    let mut candidates = Vec::new();
                    for queue_idx in 0..queue.len() {
                        if rng.gen_bool(0.6) {
                            candidates.push(Candidate { queue_idx, row_hit: rng.gen_bool(0.4) });
                        }
                    }
                    rng.shuffle(&mut candidates);
                    // An owner with no candidates, or none at all, included.
                    let priority = (!rng.gen_bool(0.25))
                        .then(|| AppId::new(rng.gen_range(apps as u64 + 1) as usize));
                    prop_assert_eq!(
                        s.pick(&queue, &candidates, priority),
                        longhand(&s, &queue, &candidates, priority),
                        "{} (seed {}, priority {:?})", kind, seed, priority
                    );
                }
            }
        }
    }

    #[test]
    fn priority_app_outranks_every_policy_key() {
        // app1's request is older and a row hit; app0 owns the epoch.
        let queue = vec![queued(0, 1, 1, 0, 1), queued(1, 0, 9, 1, 1)];
        let cands = super::testutil::all_candidates(&[true, false]);
        let config = DramConfig::default();
        for kind in SchedulerKind::ALL {
            let s = Scheduler::new(kind, &config, 2, 1);
            assert_eq!(s.pick(&queue, &cands, Some(AppId::new(0))), Some(1), "{kind}");
        }
    }
}
