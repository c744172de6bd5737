//! The cores and their lazy-advance bookkeeping: a core falls behind
//! while nothing it does can touch the hierarchy, and is caught up
//! (`Core::advance`) before anything reads or changes it.

use asm_attrib::RunAttrib;
use asm_cpu::{AdvanceObserver, Core, MemIssueResult, ProgressLog};
use asm_simcore::{AppId, Cycle, HeadStall};

use super::hierarchy::Hierarchy;

/// Sentinel wake-up/deadline: not before an external event. As a `wake`
/// entry, the core is blocked on a completion; as a `synced` entry, the
/// core never falls behind; as the epoch deadline, epochs are off.
pub(super) const NEVER: Cycle = Cycle::MAX;

/// The cores, how far each has been simulated, and the alone-run
/// progress logs their ticks feed.
#[derive(Debug)]
pub(super) struct LazyCores {
    pub(super) cores: Vec<Core>,
    /// Per core: the first cycle whose tick has not been applied to the
    /// core yet. A core is caught up to `now` before anything reads or
    /// touches it: its real tick, a completion delivery, a quantum
    /// boundary, and the return of every public entry point — so callers
    /// never see a stale core. [`NEVER`] for cores that never fall
    /// behind: those an alone run leaves idle and, with `skip_mode` off,
    /// all of them (the per-tick bookkeeping is measurable on `--no-skip`
    /// runs). Not checkpointed: snapshots are taken between public calls,
    /// where it equals `now` (`System::check_restored` rebuilds it).
    pub(super) synced: Vec<Cycle>,
    /// Per core: `Core::next_issue` as of its last real tick — a lower
    /// bound on the next cycle it can call `issue` (stall retries aside,
    /// which `System::stall_memo` covers). [`NEVER`] means not before an
    /// external completion. Every cycle before it is core-private and is
    /// replayed lazily. Refreshed after every real tick, reset to "tick
    /// now" on completion delivery and at quantum boundaries (throttling
    /// can change the MLP cap). Skip mode only.
    pub(super) wake: Vec<Cycle>,
    pub(super) progress: Vec<ProgressLog>,
    /// Whether core ticks are recorded in `progress` (alone runs).
    pub(super) record_progress: bool,
}

asm_simcore::persist_fields!(LazyCores { [cores], [wake], [progress] });

impl LazyCores {
    /// Brings core `idx` up to `upto` if it has fallen behind.
    #[inline]
    pub(super) fn catch_up(&mut self, idx: usize, upto: Cycle, attrib: Option<&mut RunAttrib>) {
        if self.synced[idx] < upto {
            self.replay(idx, upto, attrib);
        }
    }

    /// Replays core `idx`'s private cycles `synced[idx]..upto`, feeding
    /// the progress log and the attribution ledger what those ticks
    /// would have fed them.
    fn replay(&mut self, idx: usize, upto: Cycle, attrib: Option<&mut RunAttrib>) {
        let from = self.synced[idx];
        let core = &mut self.cores[idx];
        let progress = self.record_progress.then(|| &mut self.progress[idx]);
        if progress.is_none() && attrib.is_none() {
            core.advance(from, upto, &mut ());
        } else {
            let mut obs = CoreObserver {
                app: idx,
                progress,
                attrib,
            };
            core.advance(from, upto, &mut obs);
        }
        self.synced[idx] = upto;
    }

    /// Executes core `idx`'s tick at `now` against `hier` and reports it
    /// to the same observer a replayed tick reaches. Returns the
    /// hierarchy version at which an issue attempt stalled, if one did.
    // One call site, on the per-cycle path: left to the inliner's
    // judgement, the call boundary cost ~5% on the no-skip mcf mix.
    #[inline(always)]
    pub(super) fn tick(&mut self, idx: usize, now: Cycle, hier: &mut Hierarchy) -> Option<u64> {
        let core = &mut self.cores[idx];
        let app = AppId::new(idx);
        let retired_before = core.retired();
        let mut stalled_at = None;
        core.tick(now, &mut |line, is_write| {
            let r = hier.issue(now, app, line, is_write);
            if matches!(r, MemIssueResult::Stall) {
                stalled_at = Some(hier.stall_version());
            }
            r
        });
        let mut obs = CoreObserver {
            app: idx,
            progress: self.record_progress.then(|| &mut self.progress[idx]),
            attrib: hier.probes.ledger(),
        };
        // The head state is only worth computing for a listener.
        if obs.progress.is_some() || obs.attrib.is_some() {
            let retired = core.retired();
            obs.on_tick(now, retired, retired > retired_before, core.head_stall(now));
        }
        stalled_at
    }
}

/// Feeds one core's ticks to whichever per-tick consumers are switched
/// on.
struct CoreObserver<'a> {
    app: usize,
    progress: Option<&'a mut ProgressLog>,
    attrib: Option<&'a mut RunAttrib>,
}

impl AdvanceObserver for CoreObserver<'_> {
    #[inline]
    fn on_tick(&mut self, now: Cycle, retired: u64, progressed: bool, head: HeadStall) {
        if let Some(p) = self.progress.as_deref_mut() {
            p.record(retired, now);
        }
        if let Some(a) = self.attrib.as_deref_mut() {
            a.on_tick(self.app, now, progressed, head);
        }
    }

    fn on_progress_span(
        &mut self,
        start: Cycle,
        ticks: u64,
        retired_before: u64,
        per_tick: u64,
        head: HeadStall,
    ) {
        if let Some(p) = self.progress.as_deref_mut() {
            p.record_ramp(retired_before, start, ticks, per_tick);
        }
        if let Some(a) = self.attrib.as_deref_mut() {
            a.on_progress_span(self.app, start, ticks, head);
        }
    }
}
