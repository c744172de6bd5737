//! Memory-scheduling policies.
//!
//! The controller separates *mechanism* (bank timing, bus serialisation,
//! request buffering — [`crate::controller`]) from *policy* (which ready
//! request to service next — this module). Three policies from the paper's
//! evaluation are provided:
//!
//! - [`FrFcfs`]: row-hits first, then oldest first [Rixner+, ISCA 2000] —
//!   the baseline of Table 2 and the substrate under ASM's epoch
//!   prioritisation.
//! - [`Parbs`]: parallelism-aware batch scheduling [Mutlu & Moscibroda,
//!   ISCA 2008].
//! - [`Tcm`]: thread cluster memory scheduling [Kim+, MICRO 2010].
//!
//! ASM-Mem is *not* a policy here: it reuses FR-FCFS plus the epoch
//! priority hook, assigning epochs to applications with probability
//! proportional to slowdown (§7.2).

mod atlas;
mod bliss;
mod frfcfs;
mod parbs;
mod tcm;

pub use atlas::{Atlas, AtlasConfig};
pub use bliss::{Bliss, BlissConfig};
pub use frfcfs::FrFcfs;
pub use parbs::{Parbs, ParbsConfig};
pub use tcm::{Tcm, TcmConfig};

use asm_simcore::{AppId, Cycle};

use crate::accounting::InterferenceSnapshot;
use crate::mapping::Loc;
use crate::request::MemRequest;

/// A request waiting in a channel's read queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueuedRequest {
    /// The underlying request.
    pub req: MemRequest,
    /// Its decoded DRAM location.
    pub loc: Loc,
    /// PARBS batch flag: whether this request belongs to the current batch.
    pub marked: bool,
    /// Interference-counter snapshot taken at enqueue; the controller
    /// materialises the cycles this request spent waiting behind other
    /// applications at issue time (see
    /// [`ChannelAccounting`](crate::accounting::ChannelAccounting)).
    pub interference_snap: InterferenceSnapshot,
}

asm_simcore::persist_fields!(QueuedRequest { req, loc, marked, interference_snap });

/// A schedulable request this cycle: its queue position plus precomputed
/// row-buffer information.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Index into the channel's read queue.
    pub queue_idx: usize,
    /// Whether the request would hit the currently open row.
    pub row_hit: bool,
}

/// A policy deciding which ready request a channel services next.
///
/// Implementations are per-channel and stateful (PARBS batches, TCM
/// clusters). The controller calls [`maintain`](SchedulerPolicy::maintain)
/// before each scheduling attempt and
/// [`on_completion`](SchedulerPolicy::on_completion) when a read finishes,
/// giving policies the bookkeeping hooks they need.
///
/// A policy's [`Persist`](asm_simcore::persist::Persist) state is its
/// dynamic state only (batch marks live on the queue entries and travel
/// with them); it restores into a policy built with the same
/// configuration and application count.
pub trait SchedulerPolicy: std::fmt::Debug + Send + asm_simcore::persist::Persist {
    /// A short human-readable policy name ("FRFCFS", "PARBS", "TCM").
    fn name(&self) -> &'static str;

    /// Updates policy state (e.g. forms a new PARBS batch, re-clusters and
    /// shuffles TCM ranks). Called before each scheduling attempt.
    fn maintain(&mut self, now: Cycle, queue: &mut [QueuedRequest]);

    /// Picks one of `candidates` (all bank-ready this cycle) to service.
    /// Returns an index into `candidates`, or `None` to idle.
    fn pick(
        &mut self,
        now: Cycle,
        queue: &[QueuedRequest],
        candidates: &[Candidate],
    ) -> Option<usize>;

    /// Notifies the policy that a read for `app` finished (used for
    /// bandwidth bookkeeping).
    fn on_completion(&mut self, app: AppId) {
        let _ = app;
    }
}

/// A restored per-application rank table may only hold ranks `0..apps`.
fn check_ranks(rank: &[usize]) -> Result<(), asm_simcore::persist::PersistError> {
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
    /// Instantiates one per-channel policy object.
    #[must_use]
    pub fn build(self, app_count: usize, seed: u64) -> Box<dyn SchedulerPolicy> {
        match self {
            SchedulerKind::FrFcfs => Box::new(FrFcfs::new()),
            SchedulerKind::Parbs => Box::new(Parbs::new(ParbsConfig::default(), app_count)),
            SchedulerKind::Tcm => Box::new(Tcm::new(TcmConfig::default(), app_count, seed)),
            SchedulerKind::Atlas => Box::new(Atlas::new(AtlasConfig::default(), app_count)),
            SchedulerKind::Bliss => Box::new(Bliss::new(BlissConfig::default(), app_count)),
        }
    }
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
