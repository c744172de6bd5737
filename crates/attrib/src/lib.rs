#![warn(missing_docs)]
//! Ground-truth cycle attribution for the ASM reproduction.
//!
//! ASM *estimates* slowdown from cache-access rates; this crate provides the
//! exact accounting that estimate should be judged against. Every core cycle
//! of every quantum is classified into an exhaustive, integer-exact ledger
//! ([`Component`]), and every interference cycle is blamed on the specific
//! co-runner that caused it, yielding a per-quantum app×app blame matrix
//! whose rows sum *exactly* to the quantum length.
//!
//! The crate is deliberately free of simulator dependencies beyond
//! `asm-simcore`: it consumes small, already-decided facts (per-tick head
//! state from `asm-cpu`, per-request cause splits from `asm-dram`, eviction
//! owner pairs from the LLC) and does pure ledger arithmetic. All hooks are
//! driven by `asm-core::System`, which calls them only when attribution is
//! enabled — the ledger itself never branches on an "enabled" flag.
//!
//! # Conservation invariant
//!
//! For every app `a` and every finalized quantum `[start, end)`:
//!
//! ```text
//! sum_k ledger[a][k] == end - start          (integer equality)
//! sum_o blame[a][o]  == end - start          (integer equality)
//! ```
//!
//! Both are `debug_assert`ed at quantum finalization and pinned by property
//! tests here and by a randomized-`SystemConfig` proptest in `asm-core`.

use asm_simcore::persist::PersistError;
use asm_simcore::{Cycle, HeadStall};

/// Number of ledger components ([`Component`] variants).
pub const COMPONENTS: usize = 11;

/// Exhaustive classification of a core cycle.
///
/// The first three components are decided purely from the core's
/// reorder-buffer head; the DRAM components split a memory-stall episode
/// using the completed request's cause accounting; `Unresolved` absorbs
/// stalls truncated by a quantum boundary (their episode has not completed,
/// so their cause is not yet known — they are *not* silently reclassified).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Component {
    /// The core retired work this cycle (or was fetching/issuing normally).
    Compute = 0,
    /// Head is an LLC/L1 hit still in flight: pure hit latency, no DRAM.
    HitWait = 1,
    /// Head could not issue to memory (MSHR/queue backpressure).
    Backpressure = 2,
    /// DRAM service time of the blocking request (own bank/bus occupancy).
    DramService = 3,
    /// Queueing delay not caused by any co-runner (own earlier requests,
    /// refresh, bus serialization of the app's own stream).
    DramQueueSelf = 4,
    /// Queueing behind a co-runner's *row-miss* access occupying the bank.
    DramBankConflict = 5,
    /// Queueing behind a co-runner's *row-hit* stream the FR-FCFS scheduler
    /// kept prioritizing (the starvation-cliff component).
    DramFrfcfs = 6,
    /// Queueing behind a write-drain burst triggered by co-runner writes.
    DramWriteDrain = 7,
    /// Extra activate+precharge the blocking request paid because a
    /// co-runner closed/replaced the row this app had open.
    RowMissInduced = 8,
    /// The blocking miss itself was manufactured by co-runner cache
    /// pollution (ATS-sampled): the whole DRAM trip is interference.
    CachePollution = 9,
    /// Stall cycles cut off by the quantum boundary before their episode
    /// completed; resolved (as fresh cycles) in the next quantum.
    Unresolved = 10,
}

impl Component {
    /// All components, in ledger order.
    pub const ALL: [Component; COMPONENTS] = [
        Component::Compute,
        Component::HitWait,
        Component::Backpressure,
        Component::DramService,
        Component::DramQueueSelf,
        Component::DramBankConflict,
        Component::DramFrfcfs,
        Component::DramWriteDrain,
        Component::RowMissInduced,
        Component::CachePollution,
        Component::Unresolved,
    ];

    /// Stable snake_case name used in CSV headers and telemetry counters.
    pub fn name(self) -> &'static str {
        match self {
            Component::Compute => "compute",
            Component::HitWait => "llc_hit_wait",
            Component::Backpressure => "backpressure",
            Component::DramService => "dram_service",
            Component::DramQueueSelf => "dram_queue_self",
            Component::DramBankConflict => "dram_bank_conflict",
            Component::DramFrfcfs => "dram_frfcfs",
            Component::DramWriteDrain => "dram_write_drain",
            Component::RowMissInduced => "row_miss_induced",
            Component::CachePollution => "cache_pollution",
            Component::Unresolved => "unresolved",
        }
    }

    /// Ledger row index of this component.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Does this component blame a co-runner (off-diagonal in the blame
    /// matrix)? `DramQueueSelf` and `DramService` are the app's own cost.
    pub fn is_interference(self) -> bool {
        matches!(
            self,
            Component::DramBankConflict
                | Component::DramFrfcfs
                | Component::DramWriteDrain
                | Component::RowMissInduced
                | Component::CachePollution
        )
    }
}

/// Ledger component for gap/tick cycles of this head state (memory stalls
/// are deferred to episode completion and have no immediate component).
fn immediate_component(head: HeadStall) -> Option<Component> {
    match head {
        HeadStall::Progress => Some(Component::Compute),
        HeadStall::HitWait => Some(Component::HitWait),
        HeadStall::Backpressure => Some(Component::Backpressure),
        HeadStall::MemStall => None,
    }
}

/// Cause accounting of one completed blocking memory request, as
/// materialized by `asm-dram` at issue time.
///
/// `cause` is indexed by the DRAM busy-kind taxonomy: `[0]` the bank was
/// busy with a write (write drain), `[1]` with a co-runner row *hit*
/// (FR-FCFS prioritization), `[2]` with a co-runner row *miss* (bank
/// conflict).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemEpisode {
    /// Bank + bus service latency of the request itself.
    pub service: Cycle,
    /// Co-runner-caused queueing, split by what occupied the bank.
    pub cause: [Cycle; 3],
    /// Extra activate+precharge paid because a co-runner replaced the row.
    pub induced: Cycle,
    /// The co-runner that replaced the row, if any.
    pub induced_by: Option<usize>,
    /// The miss only happened because co-runner insertions evicted the
    /// line (ATS-sampled pollution verdict).
    pub pollution: bool,
}

/// Split a memory-stall episode of `n` core cycles into ledger components.
///
/// The split is integer-exact: the returned components always sum to `n`.
/// Components are carved off in priority order (service first, then the
/// co-runner-caused queueing causes, then self queueing as the remainder),
/// each clipped to what is still unassigned — the DRAM-side cause counters
/// are measured in controller time and can overlap or exceed the core-side
/// stall, so clipping (not scaling) keeps the ledger exact.
///
/// Blame rule for pollution (documented in DESIGN.md §13): a polluted miss
/// converts the *self* components (service + self-queueing) to
/// `CachePollution`, while queueing caused by specific DRAM offenders keeps
/// its DRAM component — those cycles have a more precise culprit.
pub fn split_stall(n: Cycle, ep: &MemEpisode) -> [Cycle; COMPONENTS] {
    let mut out = [0; COMPONENTS];
    let s_part = ep.service.min(n);
    let induced_part = ep.induced.min(s_part);
    let service_rest = s_part - induced_part;
    let r1 = n - s_part;
    let wd = ep.cause[0].min(r1);
    let fr = ep.cause[1].min(r1 - wd);
    let bc = ep.cause[2].min(r1 - wd - fr);
    let queue_self = r1 - wd - fr - bc;
    out[Component::DramService.index()] = service_rest;
    out[Component::RowMissInduced.index()] = induced_part;
    out[Component::DramWriteDrain.index()] = wd;
    out[Component::DramFrfcfs.index()] = fr;
    out[Component::DramBankConflict.index()] = bc;
    out[Component::DramQueueSelf.index()] = queue_self;
    if ep.pollution {
        out[Component::CachePollution.index()] = service_rest + queue_self;
        out[Component::DramService.index()] = 0;
        out[Component::DramQueueSelf.index()] = 0;
    }
    out
}

/// Largest-remainder apportionment of `total` cycles over integer
/// `weights`, added into `out` (same length). Exact: the added shares sum
/// to `total`. Remainder ties go to the lowest index, and all arithmetic is
/// in `u128`, so the result is deterministic and overflow-free for any
/// realistic cycle counts. A zero weight vector puts everything on index 0
/// (callers substitute a fallback weight vector before that matters).
///
/// Runs once per quantum close (its only caller is the `allow(R9)`
/// boundary `end_quantum`), never per cycle, so the short-lived
/// remainder vector is off the hot path.
pub fn apportion(total: Cycle, weights: &[u64], out: &mut [Cycle]) {
    debug_assert_eq!(weights.len(), out.len());
    if total == 0 || out.is_empty() {
        return;
    }
    let wsum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if wsum == 0 {
        out[0] += total;
        return;
    }
    let t = u128::from(total);
    let mut assigned: Cycle = 0;
    // (remainder, index) pairs for the leftover distribution; quantum-
    // boundary path, so a short-lived allocation is acceptable here.
    let mut rems: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        let prod = t * u128::from(w);
        let share = (prod / wsum) as Cycle;
        out[i] += share;
        assigned += share;
        rems.push((prod % wsum, i));
    }
    // Largest remainder first; ties to the lowest index.
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let leftover = (total - assigned) as usize;
    for &(_, i) in rems.iter().take(leftover) {
        out[i] += 1;
    }
}

/// One finalized quantum's ground truth: the per-app component ledger and
/// the app×app blame matrix. Both flattened row-major.
#[derive(Clone, Debug, Default)]
pub struct QuantumLedger {
    /// First cycle of the quantum (inclusive).
    pub start: Cycle,
    /// One past the last cycle of the quantum.
    pub end: Cycle,
    /// `app_count × COMPONENTS` cycles; row `a` sums to `end - start`.
    pub ledger: Vec<Cycle>,
    /// `app_count × app_count` cycles, victim-major; `blame[v][o]` is how
    /// many of victim `v`'s cycles offender `o` is responsible for, with
    /// the diagonal holding the app's own (non-interference) cycles. Row
    /// `v` sums to `end - start`.
    pub blame: Vec<Cycle>,
}

impl QuantumLedger {
    /// Cycles of `app`'s quantum attributed to `comp`.
    pub fn component(&self, app: usize, comp: Component) -> Cycle {
        self.ledger[app * COMPONENTS + comp.index()]
    }

    /// Cycles of victim `v`'s quantum blamed on offender `o`.
    pub fn blamed(&self, v: usize, o: usize) -> Cycle {
        let n = self.ledger.len() / COMPONENTS;
        self.blame[v * n + o]
    }

    /// Quantum length in cycles.
    pub fn len(&self) -> Cycle {
        self.end - self.start
    }

    /// True when the quantum spans zero cycles.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Check the conservation invariant: every ledger row and every blame
    /// row sums exactly to the quantum length.
    pub fn conserved(&self) -> bool {
        let n = self.ledger.len() / COMPONENTS;
        let q = self.len();
        (0..n).all(|a| {
            let lsum: Cycle = self.ledger[a * COMPONENTS..(a + 1) * COMPONENTS].iter().sum();
            let bsum: Cycle = self.blame[a * n..(a + 1) * n].iter().sum();
            lsum == q && bsum == q
        })
    }
}

/// Per-core incremental classifier state.
#[derive(Clone, Debug)]
struct CoreTracker {
    /// First cycle not yet accounted for.
    last_acct: Cycle,
    /// Classification of cycles between the last tick and the next event
    /// (skipped fast-forward cycles inherit the post-tick head state).
    gap: HeadStall,
    /// Memory-stall cycles awaiting their episode's completion.
    pending_mem: Cycle,
    /// Cycle the pending memory stall began (for starvation trace spans).
    episode_start: Cycle,
}

/// Per-run attribution state: incremental per-core trackers, the current
/// quantum's accumulators, and every finalized [`QuantumLedger`].
#[derive(Clone, Debug)]
pub struct RunAttrib {
    app_count: usize,
    trackers: Vec<CoreTracker>,
    /// Current quantum, `app_count × COMPONENTS`.
    ledger: Vec<Cycle>,
    /// Current quantum's row-miss-induced penalty cycles, victim-major
    /// `app_count × app_count` (exact per-offender, no apportionment).
    induced_blame: Vec<Cycle>,
    /// Current quantum's cross-app LLC evictions, victim-major
    /// `app_count × app_count` (weights for CachePollution blame).
    evictions: Vec<u64>,
    /// Cumulative DRAM blame counters `victim × offender × busy-kind` as of
    /// the last quantum close (to difference the controller's running
    /// totals into per-quantum weights).
    prev_dram_blame: Vec<Cycle>,
    quantum_start: Cycle,
    quanta: Vec<QuantumLedger>,
}

impl RunAttrib {
    /// Fresh state for `app_count` cores, starting at cycle 0.
    pub fn new(app_count: usize) -> RunAttrib {
        RunAttrib {
            app_count,
            trackers: vec![
                CoreTracker {
                    last_acct: 0,
                    gap: HeadStall::Progress,
                    pending_mem: 0,
                    episode_start: 0,
                };
                app_count
            ],
            ledger: vec![0; app_count * COMPONENTS],
            induced_blame: vec![0; app_count * app_count],
            evictions: vec![0; app_count * app_count],
            prev_dram_blame: vec![0; app_count * app_count * 3],
            quantum_start: 0,
            quanta: Vec::new(),
        }
    }

    /// Number of apps/cores tracked.
    pub fn app_count(&self) -> usize {
        self.app_count
    }

    fn close_gap(
        tracker: &mut CoreTracker,
        ledger: &mut [Cycle],
        app: usize,
        now: Cycle,
    ) {
        let span = now.saturating_sub(tracker.last_acct);
        if span > 0 {
            match immediate_component(tracker.gap) {
                Some(c) => ledger[app * COMPONENTS + c.index()] += span,
                None => {
                    if tracker.pending_mem == 0 {
                        tracker.episode_start = tracker.last_acct;
                    }
                    tracker.pending_mem += span;
                }
            }
        }
        tracker.last_acct = now;
    }

    /// Account one executed core tick at `now`. `progressed` is whether the
    /// core retired at least one instruction this tick; `head` is the
    /// post-tick head state, which also classifies any fast-forwarded
    /// cycles until the core's next tick.
    pub fn on_tick(&mut self, app: usize, now: Cycle, progressed: bool, head: HeadStall) {
        let t = &mut self.trackers[app];
        Self::close_gap(t, &mut self.ledger, app, now);
        let class = if progressed { HeadStall::Progress } else { head };
        match immediate_component(class) {
            Some(c) => self.ledger[app * COMPONENTS + c.index()] += 1,
            None => {
                if t.pending_mem == 0 {
                    t.episode_start = now;
                }
                t.pending_mem += 1;
            }
        }
        t.gap = head;
        t.last_acct = now + 1;
    }

    /// Account `ticks` consecutive executed core ticks starting at
    /// `start`, each of which retired something; `head` is the head state
    /// after the last. Exactly `ticks` calls of
    /// [`on_tick`](Self::on_tick) with `progressed = true` (the head
    /// states in between classify nothing: no cycle separates those
    /// ticks).
    pub fn on_progress_span(&mut self, app: usize, start: Cycle, ticks: Cycle, head: HeadStall) {
        if ticks == 0 {
            return;
        }
        let t = &mut self.trackers[app];
        Self::close_gap(t, &mut self.ledger, app, start);
        self.ledger[app * COMPONENTS + Component::Compute.index()] += ticks;
        t.gap = head;
        t.last_acct = start + ticks;
    }

    /// The completion unblocking `app`'s reorder-buffer head arrived at
    /// `now`: split the pending stall cycles by the episode's cause
    /// accounting. Returns the `(start, length)` of the resolved stall for
    /// starvation trace spans (None when no cycles were pending).
    pub fn on_blocking_completion(
        &mut self,
        app: usize,
        now: Cycle,
        ep: &MemEpisode,
    ) -> Option<(Cycle, Cycle)> {
        let t = &mut self.trackers[app];
        Self::close_gap(t, &mut self.ledger, app, now);
        let stalled = t.pending_mem;
        if stalled == 0 {
            return None;
        }
        t.pending_mem = 0;
        let start = t.episode_start;
        let parts = split_stall(stalled, ep);
        let row = &mut self.ledger[app * COMPONENTS..(app + 1) * COMPONENTS];
        for (slot, part) in row.iter_mut().zip(parts.iter()) {
            *slot += part;
        }
        // Induced-row-miss cycles have an exact offender; remember it so
        // the blame matrix does not need to apportion this component.
        let induced_part = parts[Component::RowMissInduced.index()];
        if induced_part > 0 {
            if let Some(o) = ep.induced_by {
                if o != app && o < self.app_count {
                    self.induced_blame[app * self.app_count + o] += induced_part;
                }
            }
        }
        Some((start, now - start))
    }

    /// A co-runner (`evicter`) evicted a line owned by `victim` from the
    /// LLC; eviction counts weight the CachePollution blame split.
    pub fn on_eviction(&mut self, victim: usize, evicter: usize) {
        self.evictions[victim * self.app_count + evicter] += 1;
    }

    /// Close the quantum ending at `now`. `dram_blame_cum` is the
    /// controller's *cumulative* per-victim/per-offender/per-busy-kind
    /// blame counters (`app × app × 3`, victim-major); this function
    /// differences them against the previous quantum close to weight the
    /// queueing components. Returns the finalized ledger.
    // asm-lint: allow(R9): quantum-boundary finalization — allocates the
    // outgoing ledger/blame rows once per quantum close, never per cycle
    pub fn end_quantum(&mut self, now: Cycle, dram_blame_cum: &[Cycle]) -> &QuantumLedger {
        let n = self.app_count;
        debug_assert_eq!(dram_blame_cum.len(), n * n * 3);
        for app in 0..n {
            let t = &mut self.trackers[app];
            Self::close_gap(t, &mut self.ledger, app, now);
            // Stalls cut off by the boundary have no completed episode yet.
            self.ledger[app * COMPONENTS + Component::Unresolved.index()] += t.pending_mem;
            t.pending_mem = 0;
        }
        let q = now - self.quantum_start;
        let mut blame = vec![0; n * n];
        // (queueing component, busy-kind index) pairs sharing the DRAM
        // blame-counter weights.
        const QUEUE_COMPONENTS: [(Component, usize); 3] = [
            (Component::DramWriteDrain, 0),
            (Component::DramFrfcfs, 1),
            (Component::DramBankConflict, 2),
        ];
        let mut weights = vec![0u64; n];
        for v in 0..n {
            if n > 1 {
                let fallback = (0..n).position(|o| o != v).unwrap_or(0);
                for &(comp, k) in QUEUE_COMPONENTS.iter() {
                    let total = self.ledger[v * COMPONENTS + comp.index()];
                    if total == 0 {
                        continue;
                    }
                    let mut wsum = 0u64;
                    for (o, w) in weights.iter_mut().enumerate() {
                        let idx = (v * n + o) * 3 + k;
                        *w = dram_blame_cum[idx] - self.prev_dram_blame[idx];
                        wsum += *w;
                    }
                    if wsum == 0 {
                        // No accrual this quantum (clipping smear from an
                        // earlier quantum): weight by the run totals, else
                        // by the lowest-index co-runner.
                        for (o, w) in weights.iter_mut().enumerate() {
                            *w = dram_blame_cum[(v * n + o) * 3 + k];
                            wsum += *w;
                        }
                    }
                    if wsum == 0 {
                        weights.fill(0);
                        weights[fallback] = 1;
                    }
                    apportion(total, &weights, &mut blame[v * n..(v + 1) * n]);
                }
                // Induced row misses carry their exact offender.
                let induced_total = self.ledger[v * COMPONENTS + Component::RowMissInduced.index()];
                if induced_total > 0 {
                    weights.copy_from_slice(&self.induced_blame[v * n..(v + 1) * n]);
                    if weights.iter().all(|&w| w == 0) {
                        weights[fallback] = 1;
                    }
                    apportion(induced_total, &weights, &mut blame[v * n..(v + 1) * n]);
                }
                // Pollution stalls: weight by who evicted this app's lines.
                let poll_total = self.ledger[v * COMPONENTS + Component::CachePollution.index()];
                if poll_total > 0 {
                    let mut wsum = 0u64;
                    for (o, w) in weights.iter_mut().enumerate() {
                        *w = if o == v { 0 } else { self.evictions[v * n + o] };
                        wsum += *w;
                    }
                    if wsum == 0 {
                        weights.fill(0);
                        weights[fallback] = 1;
                    }
                    apportion(poll_total, &weights, &mut blame[v * n..(v + 1) * n]);
                }
            }
            // Everything not blamed on a co-runner is the app's own cost.
            let off_diag: Cycle = blame[v * n..(v + 1) * n].iter().sum();
            debug_assert!(off_diag <= q, "blame overflow: {off_diag} > quantum {q}");
            blame[v * n + v] = q - off_diag + blame[v * n + v];
        }
        let ledger = std::mem::replace(&mut self.ledger, vec![0; n * COMPONENTS]);
        let finalized = QuantumLedger {
            start: self.quantum_start,
            end: now,
            ledger,
            blame,
        };
        debug_assert!(finalized.conserved(), "cycle-attribution conservation violated");
        self.induced_blame.fill(0);
        self.evictions.fill(0);
        self.prev_dram_blame.copy_from_slice(dram_blame_cum);
        self.quantum_start = now;
        self.quanta.push(finalized);
        self.quanta.last().expect("just pushed")
    }

    /// All finalized quanta, oldest first.
    pub fn quanta(&self) -> &[QuantumLedger] {
        &self.quanta
    }

    /// Whole-run component totals (`app_count × COMPONENTS`), summed over
    /// finalized quanta.
    pub fn totals(&self) -> Vec<Cycle> {
        let mut out = vec![0; self.app_count * COMPONENTS];
        for q in &self.quanta {
            for (slot, v) in out.iter_mut().zip(q.ledger.iter()) {
                *slot += v;
            }
        }
        out
    }

    /// Whole-run blame totals (`app_count × app_count`, victim-major),
    /// summed over finalized quanta.
    pub fn blame_totals(&self) -> Vec<Cycle> {
        let mut out = vec![0; self.app_count * self.app_count];
        for q in &self.quanta {
            for (slot, v) in out.iter_mut().zip(q.blame.iter()) {
                *slot += v;
            }
        }
        out
    }
}

impl RunAttrib {
    fn check_restored(&self) -> Result<(), PersistError> {
        let n = self.app_count;
        let fits = self.quanta.iter().all(|q| {
            q.ledger.len() == n * COMPONENTS && q.blame.len() == n * n && q.end >= q.start
        });
        asm_simcore::persist::ensure(fits, "quantum shape")
    }
}

asm_simcore::persist_fields!(CoreTracker { last_acct, gap, pending_mem, episode_start });
asm_simcore::persist_fields!(QuantumLedger { start, end, ledger, blame });
asm_simcore::persist_fields!(RunAttrib {
    (= app_count),
    [trackers],
    [ledger],
    [induced_blame],
    [evictions],
    [prev_dram_blame],
    quantum_start,
    quanta,
} => RunAttrib::check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::persist::{Persist as _, StateReader, StateWriter};
    use proptest::prelude::*;

    #[test]
    fn component_names_unique_and_stable() {
        let mut seen: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), COMPONENTS);
        assert_eq!(Component::ALL[0].index(), 0);
        assert_eq!(Component::Unresolved.index(), COMPONENTS - 1);
    }

    #[test]
    fn split_prioritizes_service_then_causes() {
        let ep = MemEpisode {
            service: 40,
            cause: [10, 20, 30],
            induced: 15,
            induced_by: Some(1),
            pollution: false,
        };
        let parts = split_stall(100, &ep);
        assert_eq!(parts[Component::DramService.index()], 25);
        assert_eq!(parts[Component::RowMissInduced.index()], 15);
        assert_eq!(parts[Component::DramWriteDrain.index()], 10);
        assert_eq!(parts[Component::DramFrfcfs.index()], 20);
        assert_eq!(parts[Component::DramBankConflict.index()], 30);
        assert_eq!(parts[Component::DramQueueSelf.index()], 0);
        assert_eq!(parts.iter().sum::<Cycle>(), 100);
    }

    #[test]
    fn split_clips_to_stall_length() {
        // Short core-side stall: service swallows everything.
        let ep = MemEpisode {
            service: 500,
            cause: [100, 100, 100],
            induced: 0,
            induced_by: None,
            pollution: false,
        };
        let parts = split_stall(7, &ep);
        assert_eq!(parts[Component::DramService.index()], 7);
        assert_eq!(parts.iter().sum::<Cycle>(), 7);
    }

    #[test]
    fn split_pollution_converts_self_components_only() {
        let ep = MemEpisode {
            service: 30,
            cause: [0, 25, 0],
            induced: 0,
            induced_by: None,
            pollution: true,
        };
        let parts = split_stall(100, &ep);
        assert_eq!(parts[Component::DramService.index()], 0);
        assert_eq!(parts[Component::DramQueueSelf.index()], 0);
        assert_eq!(parts[Component::DramFrfcfs.index()], 25);
        assert_eq!(parts[Component::CachePollution.index()], 75);
        assert_eq!(parts.iter().sum::<Cycle>(), 100);
    }

    #[test]
    fn apportion_is_exact_with_ties_to_lowest_index() {
        let mut out = [0; 3];
        apportion(10, &[1, 1, 1], &mut out);
        assert_eq!(out, [4, 3, 3]);
        let mut out = [0; 3];
        apportion(2, &[0, 5, 5], &mut out);
        assert_eq!(out, [0, 1, 1]);
        let mut out = [0; 2];
        apportion(9, &[0, 0], &mut out);
        assert_eq!(out, [9, 0]);
    }

    /// Drive a tiny two-core scenario end to end and check conservation.
    #[test]
    fn tracker_scenario_conserves_and_blames() {
        let mut run = RunAttrib::new(2);
        // Core 0: compute 0..10, mem stall 10..60 resolved by a completion
        // whose episode is all FR-FCFS interference from core 1.
        for now in 0..10 {
            run.on_tick(0, now, true, HeadStall::Progress);
        }
        run.on_tick(0, 10, false, HeadStall::MemStall);
        let span = run.on_blocking_completion(
            0,
            60,
            &MemEpisode {
                service: 20,
                cause: [0, 100, 0],
                induced: 0,
                induced_by: None,
                pollution: false,
            },
        );
        assert_eq!(span, Some((10, 50)));
        run.on_tick(0, 60, true, HeadStall::Progress);
        // Core 1 computes the whole quantum (gap classification).
        run.on_tick(1, 0, true, HeadStall::Progress);
        let mut blame = vec![0; 2 * 2 * 3];
        blame[(0 * 2 + 1) * 3 + 1] = 999; // victim 0, offender 1, row-hit kind
        let q = run.end_quantum(100, &blame);
        assert!(q.conserved());
        assert_eq!(q.len(), 100);
        assert_eq!(q.component(0, Component::DramService), 20);
        assert_eq!(q.component(0, Component::DramFrfcfs), 30);
        assert_eq!(q.component(0, Component::Compute), 50);
        assert_eq!(q.component(1, Component::Compute), 100);
        assert_eq!(q.blamed(0, 1), 30);
        assert_eq!(q.blamed(0, 0), 70);
        assert_eq!(q.blamed(1, 1), 100);
    }

    #[test]
    fn boundary_truncation_lands_in_unresolved() {
        let mut run = RunAttrib::new(1);
        run.on_tick(0, 0, false, HeadStall::MemStall);
        let q = run.end_quantum(50, &[0, 0, 0]);
        assert_eq!(q.component(0, Component::Unresolved), 50);
        assert!(q.conserved());
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut run = RunAttrib::new(2);
        run.on_tick(0, 0, true, HeadStall::Progress);
        run.on_tick(1, 0, false, HeadStall::MemStall);
        run.on_eviction(0, 1);
        run.end_quantum(10, &vec![0; 12]);
        run.on_tick(0, 10, false, HeadStall::HitWait);
        let mut w = StateWriter::new("attrib-test", 1);
        run.save(&mut w);
        let bytes = w.finish();
        let mut restored = RunAttrib::new(2);
        let mut r = StateReader::new(&bytes, "attrib-test", 1).expect("header");
        restored.restore(&mut r).expect("restore");
        r.finish().expect("drained");
        let mut w1 = StateWriter::new("attrib-test", 1);
        run.save(&mut w1);
        let mut w2 = StateWriter::new("attrib-test", 1);
        restored.save(&mut w2);
        assert_eq!(w1.finish(), w2.finish());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `on_progress_span` is `ticks` progressing `on_tick`s ending on
        /// the real head class, whatever gap precedes and follows it.
        #[test]
        fn progress_span_equals_per_tick_accounting(
            lead_gap in 0u64..50,
            lead_head in 0u8..4,
            ticks in 0u64..80,
            head in 0u8..4,
            mid_head in 0u8..4,
            tail_gap in 1u64..50,
        ) {
            const KINDS: [HeadStall; 4] = [
                HeadStall::Progress,
                HeadStall::HitWait,
                HeadStall::Backpressure,
                HeadStall::MemStall,
            ];
            let kind = |b: u8| KINDS[usize::from(b)];
            let mut span = RunAttrib::new(1);
            span.on_tick(0, 0, false, kind(lead_head));
            let mut each = span.clone();
            let start = 1 + lead_gap;
            span.on_progress_span(0, start, ticks, kind(head));
            for j in 0..ticks {
                let h = if j + 1 == ticks { head } else { mid_head };
                each.on_tick(0, start + j, true, kind(h));
            }
            let end = start + ticks + tail_gap;
            let ep = MemEpisode { service: 7, ..MemEpisode::default() };
            prop_assert_eq!(
                span.on_blocking_completion(0, end, &ep),
                each.on_blocking_completion(0, end, &ep)
            );
            let (a, b) = (span.end_quantum(end, &[0; 3]).clone(), each.end_quantum(end, &[0; 3]).clone());
            prop_assert_eq!(a.ledger, b.ledger);
            prop_assert_eq!(a.blame, b.blame);
        }

        #[test]
        fn split_always_sums_to_n(
            n in 0u64..100_000,
            service in 0u64..200_000,
            c0 in 0u64..100_000,
            c1 in 0u64..100_000,
            c2 in 0u64..100_000,
            induced in 0u64..100_000,
            pollution_bit in 0u64..2,
        ) {
            let ep = MemEpisode {
                service,
                cause: [c0, c1, c2],
                induced,
                induced_by: Some(0),
                pollution: pollution_bit == 1,
            };
            let parts = split_stall(n, &ep);
            prop_assert_eq!(parts.iter().sum::<Cycle>(), n);
        }

        #[test]
        fn apportion_always_exact(
            total in 0u64..1_000_000,
            weights in prop::collection::vec(0u64..1_000_000_000, 1..9),
        ) {
            let mut out = vec![0; weights.len()];
            apportion(total, &weights, &mut out);
            prop_assert_eq!(out.iter().sum::<Cycle>(), total);
        }
    }
}
