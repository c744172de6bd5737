//! The out-of-order core model.
//!
//! A 128-entry instruction window with 3-wide fetch and in-order 3-wide
//! retirement (Table 2). Non-memory instructions complete in one cycle;
//! memory instructions resolve through the cache hierarchy via a callback
//! supplied by the system simulator. Independent misses overlap up to the
//! application's MLP cap and the window size — reproducing the
//! memory-level parallelism that makes per-request interference accounting
//! inaccurate (§2.2).
//!
//! Stores are modelled as non-blocking (retired through a store buffer):
//! they generate cache/memory traffic but never stall retirement, matching
//! the common simplification that load latency dominates stalls.
//!
//! # The implicit reorder buffer
//!
//! The window is the id range `[first_id, next_id)`; only its *memory
//! operations* are stored (`mem`, in program order, each with its
//! instruction id and a `WaitIssue`/`Outstanding`/`Done(c)` state).
//! Non-memory instructions are the id gaps between them: one fetched at
//! tick `t` completes at `t + 1`, so from the tick after its fetch it is
//! always retire-ready and needs no slot. The single exception — "fetched
//! this very tick", which [`Core::head_stall`] and the wake-up bound must
//! see as not-yet-complete — is the `(fresh_from, fresh_cycle)` marker.
//!
//! Issue is in program order, so the un-issued memory operations are
//! always the tail of `mem` and the issue queue is a count (`waiting`).
//! Memory operations are addressed by fetch *sequence number*: the op
//! with sequence `s` sits at deque index `s − mem_retired`, which is what
//! outstanding tokens store — an O(1) lookup on completion with no search
//! by id. A tick therefore costs O(memory operations touched), not
//! O(instructions).
//!
//! # Private advance
//!
//! A core touches shared state only by calling `issue` (out) and being
//! handed [`Core::complete`] (in); its address stream and its
//! instruction-type RNG are its own. So over any span of cycles in which
//! it cannot issue, *when* its ticks are replayed is unobservable:
//! [`Core::advance`] replays such a span in one call, with an O(1) closed
//! form for the steady run "retire `width`, fetch `width`" and a jump over
//! ticks that provably change nothing. [`Core::next_issue`] is the bound a
//! driver needs to know how far that is safe (DESIGN.md §8, "Core-private
//! advance").

use std::collections::VecDeque;

use asm_simcore::persist::{ensure, Persist, PersistError, StateReader, StateWriter};
use asm_simcore::{AppId, Cycle, HeadStall, LineAddr};

use crate::appmodel::AppProfile;
use crate::source::AccessSource;
use crate::stream::{AddressStream, MemOp};

/// What the memory hierarchy did with an issued access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssueResult {
    /// The access hit in a cache; data arrives at the given cycle.
    Completed(Cycle),
    /// The access misses to main memory; the token will be passed to
    /// [`Core::complete`] when data returns.
    Pending(u64),
    /// The memory system cannot accept the access now; the core retries
    /// next cycle.
    Stall,
}

/// Receives what [`Core::advance`] replays, so per-tick consumers (the
/// alone-run progress log, the cycle-attribution ledger) see exactly what
/// they would have seen had every tick been executed — per span instead
/// of per tick. Ticks that change nothing are not reported: the head state
/// of the last reported tick holds until the next one. `()` observes
/// nothing and monomorphises away.
pub trait AdvanceObserver {
    /// One replayed tick at `now`: `retired` is the lifetime retired count
    /// after it, `progressed` whether it retired anything, `head` the
    /// post-tick [`Core::head_stall`].
    fn on_tick(&mut self, now: Cycle, retired: u64, progressed: bool, head: HeadStall);

    /// `ticks` consecutive replayed ticks starting at `start`, each of
    /// which retired exactly `per_tick` instructions on top of the
    /// `retired_before` retired when the span began; `head` is the
    /// [`Core::head_stall`] after the last of them.
    fn on_progress_span(
        &mut self,
        start: Cycle,
        ticks: u64,
        retired_before: u64,
        per_tick: u64,
        head: HeadStall,
    );
}

impl AdvanceObserver for () {
    #[inline]
    fn on_tick(&mut self, _: Cycle, _: u64, _: bool, _: HeadStall) {}
    #[inline]
    fn on_progress_span(&mut self, _: Cycle, _: u64, _: u64, _: u64, _: HeadStall) {}
}

#[derive(Debug, Clone, Copy, Default)]
enum MemState {
    /// Waiting to be issued to the hierarchy.
    WaitIssue(MemOp),
    /// Outstanding in the memory system.
    #[default]
    Outstanding,
    /// Data arrives (and the op may retire) at the given cycle.
    Done(Cycle),
}

/// One in-window memory operation.
#[derive(Debug, Clone, Copy, Default)]
struct MemSlot {
    /// Program-order instruction id.
    id: u64,
    state: MemState,
}

/// The out-of-order core for one application.
///
/// Drive it by calling [`tick`](Self::tick) once per cycle with a callback
/// that performs the cache access, and [`complete`](Self::complete) when a
/// pending access's data returns.
///
/// # Examples
///
/// ```
/// use asm_cpu::{AppProfile, Core, MemIssueResult};
/// use asm_simcore::AppId;
///
/// let p = AppProfile::builder("t").mem_per_kilo(0).build();
/// let mut core = Core::new(AppId::new(0), &p, 42);
/// for now in 0..100 {
///     core.tick(now, &mut |_, _| MemIssueResult::Stall);
/// }
/// // With no memory operations the core retires at full width.
/// assert!(core.retired() >= 3 * 98);
/// ```
#[derive(Debug)]
pub struct Core {
    app: AppId,
    source: Box<dyn AccessSource>,
    typ_rng: asm_simcore::SimRng,
    mem_prob: f64,
    /// Precomputed `ln(1 - mem_prob)` — the geometric-sampling
    /// denominator is constant per core, and `ln` shows up in profiles
    /// when recomputed on every fetch.
    gap_log1mp: f64,
    window: u64,
    width: u64,
    mlp_cap: u32,

    mlp_throttle: Option<u32>,
    /// Id of the oldest in-window instruction (the head).
    first_id: u64,
    /// Id the next fetched instruction gets; the window holds
    /// `[first_id, next_id)`.
    next_id: u64,
    /// The in-window memory operations, in program order.
    mem: VecDeque<MemSlot>,
    /// Memory operations retired so far: the op with fetch sequence
    /// number `s` is `mem[s - mem_retired]`.
    mem_retired: u64,
    /// How many ops at the tail of `mem` are still `WaitIssue`.
    waiting: usize,
    /// Outstanding (token, memory-op sequence number) pairs. At most
    /// `mlp` entries (single digits), so a linear vector beats any map.
    tokens: Vec<(u64, u64)>,
    /// Non-memory instructions still to fetch before the next memory op.
    gap_left: u64,
    /// Instructions with id `>= fresh_from` were fetched at tick
    /// `fresh_cycle`, so non-memory ones among them complete at
    /// `fresh_cycle + 1`. Transient (not checkpointed): it only matters
    /// to queries made right after that tick.
    fresh_from: u64,
    fresh_cycle: Cycle,

    retired: u64,
    mem_ops_issued: u64,
    /// Distinct program-order ops whose first issue attempt stalled (each
    /// op counted once, however many retries it takes). Counting episodes
    /// rather than stalled cycles keeps the number invariant under
    /// event-driven skipping: elided ticks only ever re-attempt the *same*
    /// stalled head op, and an op's first stall always happens on an
    /// executed tick.
    stall_episodes: u64,
    /// Id of the last op whose stall was counted, so retries don't
    /// re-count it.
    last_stall_id: Option<u64>,
}

/// The paper's window size (Table 2).
pub const DEFAULT_WINDOW: usize = 128;
/// The paper's issue/retire width (Table 2).
pub const DEFAULT_WIDTH: usize = 3;

impl Core {
    /// Creates a core running `profile` as application `app`, with
    /// deterministic behaviour derived from `seed`.
    #[must_use]
    pub fn new(app: AppId, profile: &AppProfile, seed: u64) -> Self {
        Self::with_window(app, profile, seed, DEFAULT_WINDOW, DEFAULT_WIDTH)
    }

    /// Like [`new`](Self::new) with explicit window size and width.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `width` is zero.
    #[must_use]
    pub fn with_window(
        app: AppId,
        profile: &AppProfile,
        seed: u64,
        window: usize,
        width: usize,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(width > 0, "width must be positive");
        let source = Box::new(AddressStream::new(profile, app.index(), seed));
        Self::from_source(
            app,
            source,
            profile.mem_probability(),
            profile.mlp(),
            seed,
            window,
            width,
        )
    }

    /// Builds a core around an arbitrary access source (e.g. a
    /// [`crate::source::TraceSource`] replaying a recorded trace).
    ///
    /// `mem_probability` is the chance any instruction is a memory
    /// operation; `mlp` caps outstanding misses.
    ///
    /// # Panics
    ///
    /// Panics if `window`, `width` or `mlp` is zero, or `mem_probability`
    /// is outside `[0, 1]`.
    #[must_use]
    pub fn from_source(
        app: AppId,
        source: Box<dyn AccessSource>,
        mem_probability: f64,
        mlp: u32,
        seed: u64,
        window: usize,
        width: usize,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(width > 0, "width must be positive");
        assert!(mlp > 0, "mlp must be positive");
        assert!(
            (0.0..=1.0).contains(&mem_probability),
            "mem_probability must be in [0, 1]"
        );
        let mut typ_rng = asm_simcore::SimRng::seed_from(
            seed ^ 0xC0DE ^ (app.index() as u64).wrapping_mul(0x1234_5678_9ABC_DEF1),
        );
        let mem_prob = mem_probability;
        let gap_log1mp = (1.0 - mem_prob).ln();
        let gap_left = Self::sample_gap(&mut typ_rng, mem_prob, gap_log1mp);
        Core {
            app,
            source,
            typ_rng,
            mem_prob,
            gap_log1mp,
            window: window as u64,
            width: width as u64,
            mlp_cap: mlp,
            mlp_throttle: None,
            first_id: 0,
            next_id: 0,
            mem: VecDeque::new(),
            mem_retired: 0,
            waiting: 0,
            tokens: Vec::new(),
            gap_left,
            fresh_from: 0,
            fresh_cycle: 0,
            retired: 0,
            mem_ops_issued: 0,
            stall_episodes: 0,
            last_stall_id: None,
        }
    }

    /// The application this core runs.
    #[must_use]
    pub fn app(&self) -> AppId {
        self.app
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Memory operations issued to the hierarchy so far.
    #[must_use]
    pub fn mem_ops_issued(&self) -> u64 {
        self.mem_ops_issued
    }

    /// Memory ops that stalled at least once at issue (MSHR/queue
    /// back-pressure episodes, not stalled cycles).
    #[must_use]
    pub fn stall_episodes(&self) -> u64 {
        self.stall_episodes
    }

    /// Memory accesses currently outstanding in the memory system.
    #[must_use]
    pub fn outstanding(&self) -> u32 {
        self.tokens.len() as u32
    }

    /// The application's intrinsic MLP cap (ignoring any throttle).
    #[must_use]
    pub fn base_mlp(&self) -> u32 {
        self.mlp_cap
    }

    /// Applies (or clears) a source-throttling cap on outstanding misses;
    /// the effective cap is the minimum of the intrinsic MLP and the
    /// throttle. Used by FST-style source throttling.
    pub fn set_mlp_throttle(&mut self, throttle: Option<u32>) {
        self.mlp_throttle = throttle.map(|t| t.max(1));
    }

    fn effective_mlp(&self) -> u32 {
        self.mlp_throttle
            .map_or(self.mlp_cap, |t| t.min(self.mlp_cap))
    }

    /// Instructions currently in the window.
    fn occupancy(&self) -> u64 {
        self.next_id - self.first_id
    }

    /// The head instruction's slot when the head is a memory operation.
    fn head_mem(&self) -> Option<&MemSlot> {
        self.mem.front().filter(|m| m.id == self.first_id)
    }

    /// Geometric inter-memory-op gap (number of non-memory instructions
    /// before the next memory op).
    fn sample_gap(rng: &mut asm_simcore::SimRng, p: f64, log1mp: f64) -> u64 {
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        let u = rng.gen_f64().max(1e-18);
        (u.ln() / log1mp) as u64
    }

    /// Advances the core one cycle. `issue` is called for each memory
    /// operation ready to access the hierarchy this cycle.
    pub fn tick(&mut self, now: Cycle, issue: &mut dyn FnMut(LineAddr, bool) -> MemIssueResult) {
        self.retire_and_fetch(now);

        // Issue waiting memory operations (program order) while under the
        // (possibly throttled) MLP cap.
        let cap = self.effective_mlp() as usize;
        while self.waiting > 0 && self.tokens.len() < cap {
            let idx = self.mem.len() - self.waiting;
            let slot = &mut self.mem[idx];
            let MemState::WaitIssue(op) = slot.state else {
                unreachable!("the un-issued tail holds a non-waiting op");
            };
            match issue(op.line, op.is_write) {
                MemIssueResult::Completed(c) => {
                    slot.state = MemState::Done(c);
                    self.waiting -= 1;
                    self.mem_ops_issued += 1;
                }
                MemIssueResult::Pending(token) => {
                    slot.state = MemState::Outstanding;
                    self.tokens.push((token, self.mem_retired + idx as u64));
                    self.waiting -= 1;
                    self.mem_ops_issued += 1;
                }
                MemIssueResult::Stall => {
                    if self.last_stall_id != Some(slot.id) {
                        self.last_stall_id = Some(slot.id);
                        self.stall_episodes += 1;
                    }
                    break;
                }
            }
        }
    }

    /// The core-private half of a tick: in-order retirement of up to
    /// `width` completed instructions, then fetch of up to `width` new
    /// ones into the window. Touches nothing outside the core.
    #[inline]
    fn retire_and_fetch(&mut self, now: Cycle) {
        let mut budget = self.width;
        while budget > 0 {
            match self.mem.front() {
                Some(m) if m.id == self.first_id => match m.state {
                    MemState::Done(c) if c <= now => {
                        self.mem.pop_front();
                        self.mem_retired += 1;
                        self.first_id += 1;
                        budget -= 1;
                    }
                    _ => break,
                },
                front => {
                    // A run of non-memory instructions, up to the next
                    // memory op or the fetch frontier; all complete
                    // except those fetched on this very cycle.
                    let mut run_end = front.map_or(self.next_id, |m| m.id);
                    if now <= self.fresh_cycle {
                        run_end = run_end.min(self.fresh_from);
                    }
                    let take = (run_end - self.first_id).min(budget);
                    if take == 0 {
                        break;
                    }
                    self.first_id += take;
                    budget -= take;
                }
            }
        }
        self.retired += self.width - budget;

        let mut room = self.width.min(self.window - self.occupancy());
        if room > 0 {
            self.fresh_from = self.next_id;
            self.fresh_cycle = now;
        }
        while room > 0 {
            if self.gap_left == 0 {
                let op = self.source.next_op();
                self.mem.push_back(MemSlot {
                    id: self.next_id,
                    state: MemState::WaitIssue(op),
                });
                self.waiting += 1;
                self.gap_left = Self::sample_gap(&mut self.typ_rng, self.mem_prob, self.gap_log1mp);
                self.next_id += 1;
                room -= 1;
            } else {
                let take = self.gap_left.min(room);
                self.gap_left -= take;
                self.next_id += take;
                room -= take;
            }
        }
    }

    /// Replays the ticks `from..upto` without a memory hierarchy: exactly
    /// what [`tick`](Self::tick) would have done on each of those cycles,
    /// reported to `obs` per span.
    ///
    /// The caller guarantees that on none of those ticks the issue stage
    /// could have changed anything — nothing waits to issue, or the MLP
    /// cap is reached, or the only candidate would stall exactly as its
    /// last attempt did. [`next_issue`](Self::next_issue) bounds that
    /// span; a [`complete`](Self::complete) or
    /// [`set_mlp_throttle`](Self::set_mlp_throttle) ends it. `from` must
    /// be later than every cycle already ticked.
    pub fn advance<O: AdvanceObserver>(&mut self, from: Cycle, upto: Cycle, obs: &mut O) {
        debug_assert!(self.next_id == 0 || from > self.fresh_cycle);
        let w = self.width;
        let mut s = from;
        while s < upto {
            // A full window behind a memory-op head that has not
            // completed: nothing retires, nothing fits. Jump to the head's
            // completion (or to the end, when only `complete` can move it).
            if self.occupancy() == self.window {
                match self.head_mem().map(|m| m.state) {
                    Some(MemState::Done(c)) if c > s => {
                        s = c.min(upto);
                        continue;
                    }
                    Some(MemState::WaitIssue(_) | MemState::Outstanding) => return,
                    _ => {}
                }
            }
            // The steady run: every tick retires `w` completed non-memory
            // instructions off the head and fetches `w` more before the
            // next memory op is due. The head run lasts until the oldest
            // in-window memory op — or indefinitely when there is none,
            // as each tick's fetch replaces what it retired.
            let head_run = match self.mem.front() {
                Some(m) => (m.id - self.first_id) / w,
                None if self.occupancy() >= w => u64::MAX,
                None => 0,
            };
            let k = (upto - s).min(head_run).min(self.gap_left / w);
            if k > 0 {
                let n = k * w;
                let before = self.retired;
                self.first_id += n;
                self.next_id += n;
                self.retired += n;
                self.gap_left -= n;
                self.fresh_from = self.next_id - w;
                self.fresh_cycle = s + k - 1;
                obs.on_progress_span(s, k, before, w, self.head_stall(self.fresh_cycle));
                s += k;
                continue;
            }
            let before = self.retired;
            self.retire_and_fetch(s);
            obs.on_tick(s, self.retired, self.retired > before, self.head_stall(s));
            s += 1;
        }
    }

    /// A lower bound on the next cycle at which [`tick`](Self::tick) can
    /// call `issue`, assuming no [`complete`](Self::complete) or throttle
    /// change arrives first; `None` when only such an external event can
    /// get the core issuing again. Every tick before the bound is
    /// core-private and may be replayed later by
    /// [`advance`](Self::advance). A lower bound is enough: a driver that
    /// ticks the core for real at the bound and finds nothing to issue
    /// merely asks again.
    ///
    /// Must be called *after* `tick(now, ..)`; the answer relies on the
    /// post-tick invariant that a non-empty issue queue under the MLP cap
    /// means the last issue attempt stalled.
    #[must_use]
    #[inline]
    pub fn next_issue(&self, now: Cycle) -> Option<Cycle> {
        // At the MLP cap: fetched memory ops queue up privately until a
        // completion frees a slot.
        if self.tokens.len() >= self.effective_mlp() as usize {
            return None;
        }
        // The first tick that can fetch: the next one while the window
        // has room, else the one on which the head completes.
        let first_fetch = if self.occupancy() < self.window {
            now + 1
        } else {
            match self.head_mem().map(|m| m.state) {
                Some(MemState::Done(c)) => c.max(now + 1),
                Some(_) => return None,
                None => now + 1,
            }
        };
        if self.waiting > 0 {
            // The last attempt stalled. When the hierarchy will accept the
            // retry is not the core's to know; report the next cycle the
            // core itself changes and leave retries in between to the
            // driver (they are side-effect-free while they keep stalling).
            return Some(first_fetch);
        }
        // The next memory op is the `gap_left + 1`-th instruction still to
        // fetch, at most `width` per tick.
        Some(first_fetch.saturating_add(self.gap_left / self.width))
    }

    /// Delivers data for a pending access issued earlier; `finish` is the
    /// cycle the data arrived. Unknown tokens are ignored (e.g. prefetch
    /// fills the core never waited on).
    #[inline]
    pub fn complete(&mut self, token: u64, finish: Cycle) {
        if let Some(pos) = self.tokens.iter().position(|&(t, _)| t == token) {
            let (_, seq) = self.tokens.swap_remove(pos);
            self.mem[(seq - self.mem_retired) as usize].state = MemState::Done(finish);
        }
    }

    /// What the reorder-buffer head is blocked on at `now` (post-tick) —
    /// the per-cycle fact driving ground-truth cycle attribution. The
    /// mapping is exhaustive: a head that has completed (or an empty
    /// window) is progress; one completing in the future — a memory op
    /// with data on its way, or a non-memory instruction fetched on this
    /// very cycle — is hit latency; a `WaitIssue` head is memory
    /// backpressure (a head waiting to issue implies program-order issue
    /// already drained every older op, so the core has zero outstanding
    /// requests and the only obstacle is the memory system refusing the
    /// access); an `Outstanding` head is a memory stall whose component
    /// is decided when its data returns.
    #[must_use]
    #[inline]
    pub fn head_stall(&self, now: Cycle) -> HeadStall {
        match self.head_mem().map(|m| m.state) {
            Some(MemState::Done(c)) if c > now => HeadStall::HitWait,
            Some(MemState::Done(_)) => HeadStall::Progress,
            Some(MemState::WaitIssue(_)) => HeadStall::Backpressure,
            Some(MemState::Outstanding) => HeadStall::MemStall,
            None if self.first_id < self.next_id
                && self.first_id >= self.fresh_from
                && self.fresh_cycle >= now =>
            {
                HeadStall::HitWait
            }
            None => HeadStall::Progress,
        }
    }

    /// The memory-system token the reorder-buffer head is waiting on, when
    /// the head is an outstanding memory request (i.e. [`head_stall`]
    /// reports `MemStall`). This is the completion whose delivery ends the
    /// current stall episode.
    ///
    /// [`head_stall`]: Self::head_stall
    #[must_use]
    #[inline]
    pub fn blocking_token(&self) -> Option<u64> {
        if !matches!(self.head_mem()?.state, MemState::Outstanding) {
            return None;
        }
        self.tokens
            .iter()
            .find(|&&(_, seq)| seq == self.mem_retired)
            .map(|&(t, _)| t)
    }

    /// What the field list cannot see: that the restored window, memory
    /// operations, waiting tail and tokens describe one consistent
    /// reorder buffer that fits this core.
    fn check_restored(&mut self) -> Result<(), PersistError> {
        let occupancy = self.next_id.checked_sub(self.first_id);
        ensure(
            occupancy.is_some_and(|occ| occ <= self.window),
            "window bounds do not fit the window",
        )?;
        let mut min_id = self.first_id;
        for m in &self.mem {
            ensure(
                m.id >= min_id && m.id < self.next_id,
                "memory-op ids not increasing inside the window",
            )?;
            min_id = m.id + 1;
        }
        ensure(self.waiting <= self.mem.len(), "more waiting ops than memory ops")?;
        let issued = self.mem.len() - self.waiting;
        ensure(
            self.mem
                .iter()
                .enumerate()
                .all(|(i, m)| matches!(m.state, MemState::WaitIssue(_)) == (i >= issued)),
            "waiting ops are not exactly the un-issued tail",
        )?;
        let outstanding = |m: &&MemSlot| matches!(m.state, MemState::Outstanding);
        ensure(
            self.tokens.len() == self.mem.iter().filter(outstanding).count(),
            "token count does not match outstanding ops",
        )?;
        for (i, &(_, seq)) in self.tokens.iter().enumerate() {
            let slot = seq
                .checked_sub(self.mem_retired)
                .and_then(|idx| self.mem.get(usize::try_from(idx).ok()?));
            ensure(slot.is_some(), "token outside the window")?;
            ensure(slot.as_ref().is_some_and(outstanding), "token points at a non-outstanding op")?;
            ensure(
                self.tokens[..i].iter().all(|&(_, s)| s != seq),
                "two tokens for one op",
            )?;
        }
        // Nothing is fresh: the next tick is on a later cycle than the
        // one that fetched the window's youngest instructions.
        self.fresh_from = self.next_id;
        self.fresh_cycle = 0;
        Ok(())
    }
}

impl Persist for MemState {
    fn save(&self, w: &mut StateWriter) {
        match *self {
            MemState::Done(c) => {
                w.u8(0);
                w.u64(c);
            }
            MemState::WaitIssue(op) => {
                w.u8(1);
                w.u64(op.line.raw());
                w.bool(op.is_write);
            }
            MemState::Outstanding => w.u8(2),
        }
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        *self = match r.u8()? {
            0 => MemState::Done(r.u64()?),
            1 => MemState::WaitIssue(MemOp {
                line: LineAddr::new(r.u64()?),
                is_write: r.bool()?,
            }),
            2 => MemState::Outstanding,
            b => return Err(PersistError::Corrupt(format!("slot tag {b}"))),
        };
        Ok(())
    }
}

asm_simcore::persist_fields!(MemSlot { id, state });

// The core's dynamic state: window bounds, in-window memory operations,
// outstanding tokens, RNG position, fetch gap, throttle and lifetime
// counters. The profile-derived parameters (window, width, MLP, memory
// probability) and the access source's configuration are structural: the
// restore target is built from the same profile and seed.
asm_simcore::persist_fields!(Core {
    source,
    typ_rng,
    mlp_throttle,
    first_id,
    next_id,
    mem_retired,
    mem,
    waiting,
    tokens,
    gap_left,
    retired,
    mem_ops_issued,
    stall_episodes,
    last_stall_id,
} => Core::check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mpk: u32) -> AppProfile {
        AppProfile::builder("t").mem_per_kilo(mpk).mlp(4).build()
    }

    #[test]
    fn compute_bound_core_reaches_full_width_ipc() {
        let mut core = Core::new(AppId::new(0), &profile(0), 1);
        for now in 0..1_000 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        let ipc = core.retired() as f64 / 1_000.0;
        assert!(ipc > 2.9, "IPC {ipc}");
    }

    #[test]
    fn memory_latency_reduces_ipc() {
        let run = |latency: Cycle| {
            let mut core = Core::new(AppId::new(0), &profile(100), 1);
            for now in 0..20_000 {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + latency));
            }
            core.retired()
        };
        let fast = run(5);
        let slow = run(300);
        assert!(
            fast as f64 > slow as f64 * 1.5,
            "fast {fast} vs slow {slow}"
        );
    }

    #[test]
    fn pending_accesses_block_head_until_completed() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        // Every instruction is a memory op; never complete them.
        let mut token = 0u64;
        for now in 0..200 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
        }
        // mlp cap 4: at most 4 outstanding, nothing retires.
        assert_eq!(core.retired(), 0);
        assert_eq!(core.outstanding(), 4);
    }

    #[test]
    fn completion_unblocks_retirement() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        let mut tokens = Vec::new();
        for now in 0..10 {
            core.tick(now, &mut |_, _| {
                let t = 1000 + tokens.len() as u64;
                tokens.push(t);
                MemIssueResult::Pending(t)
            });
        }
        let before = core.retired();
        for &t in &tokens {
            core.complete(t, 10);
        }
        for now in 11..40 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert!(core.retired() > before);
        assert_eq!(core.outstanding(), 0);
    }

    #[test]
    fn stall_retries_without_losing_ops() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        // Stall for a while, then accept everything.
        for now in 0..50 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(core.mem_ops_issued(), 0);
        for now in 50..200 {
            core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 1));
        }
        assert!(core.mem_ops_issued() > 0);
        assert!(core.retired() > 0);
    }

    #[test]
    fn stall_episodes_count_ops_not_cycles() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        // 50 cycles of stalling is a single episode: the same head op
        // retries every cycle.
        for now in 0..50 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(core.stall_episodes(), 1);
        // Let it through; the next op that stalls opens a new episode.
        core.tick(50, &mut |_, _| MemIssueResult::Completed(51));
        for now in 51..60 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(core.stall_episodes(), 2);
    }

    #[test]
    fn mlp_cap_limits_overlap() {
        let p = AppProfile::builder("t").mem_per_kilo(1000).mlp(2).build();
        let mut core = Core::new(AppId::new(0), &p, 1);
        let mut max_outstanding = 0;
        let mut token = 0u64;
        for now in 0..300 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
            max_outstanding = max_outstanding.max(core.outstanding());
        }
        assert_eq!(max_outstanding, 2);
    }

    #[test]
    fn unknown_token_completion_is_ignored() {
        let mut core = Core::new(AppId::new(0), &profile(10), 1);
        core.complete(9999, 5); // must not panic or underflow
        assert_eq!(core.outstanding(), 0);
    }

    #[test]
    fn window_bounds_rob_occupancy() {
        let mut core = Core::with_window(AppId::new(0), &profile(1000), 1, 16, 3);
        let mut token = 0u64;
        for now in 0..200 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
        }
        assert!(core.occupancy() <= 16);
    }

    /// A core mid-flight, holding at least one memory op in each state.
    fn busy_core() -> Core {
        let p = AppProfile::builder("t").mem_per_kilo(400).mlp(2).build();
        let mut core = Core::new(AppId::new(0), &p, 3);
        let mut calls = 0u64;
        for now in 0..12 {
            core.tick(now, &mut |_, _| {
                calls += 1;
                if calls.is_multiple_of(2) {
                    MemIssueResult::Pending(calls)
                } else {
                    MemIssueResult::Completed(now + 40)
                }
            });
        }
        let has = |want: fn(&MemState) -> bool| core.mem.iter().any(|m| want(&m.state));
        assert!(has(|s| matches!(s, MemState::Done(_))));
        assert!(has(|s| matches!(s, MemState::Outstanding)));
        assert!(has(|s| matches!(s, MemState::WaitIssue(_))));
        assert_eq!(core.tokens.len(), 2);
        core
    }

    /// Checkpoints `core` and restores the bytes into a fresh twin.
    fn restored(core: &Core) -> Result<Core, PersistError> {
        let mut w = StateWriter::new("core-test", 1);
        core.save(&mut w);
        let bytes = w.finish();
        let mut twin = busy_core();
        let mut r = StateReader::new(&bytes, "core-test", 1)?;
        twin.restore(&mut r)?;
        r.finish()?;
        Ok(twin)
    }

    fn assert_rejected(core: &Core, why: &str) {
        match restored(core) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains(why), "rejected for {msg:?}, expected {why:?}");
            }
            other => panic!("expected Corrupt({why}), got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn checkpoint_round_trips_and_continues_identically() {
        let mut a = busy_core();
        let mut b = restored(&a).expect("a consistent core restores");
        for now in 12..400 {
            a.tick(now, &mut |_, _| MemIssueResult::Completed(now + 9));
            b.tick(now, &mut |_, _| MemIssueResult::Completed(now + 9));
            assert_eq!(a.head_stall(now), b.head_stall(now));
        }
        assert_eq!(a.retired(), b.retired());
        assert_eq!(a.mem_ops_issued(), b.mem_ops_issued());
    }

    #[test]
    fn restore_rejects_window_larger_than_the_window() {
        let mut core = busy_core();
        core.next_id = core.first_id + DEFAULT_WINDOW as u64 + 1;
        assert_rejected(&core, "window bounds");
        core.next_id = core.first_id - 1;
        assert_rejected(&core, "window bounds");
    }

    #[test]
    fn restore_rejects_memory_op_ids_out_of_order() {
        let mut core = busy_core();
        core.mem[1].id = core.mem[0].id;
        assert_rejected(&core, "ids not increasing");
    }

    #[test]
    fn restore_rejects_memory_op_ids_outside_the_window() {
        let mut core = busy_core();
        let last = core.mem.len() - 1;
        core.mem[last].id = core.next_id;
        assert_rejected(&core, "ids not increasing inside the window");
        let mut core = busy_core();
        core.first_id = core.mem[0].id + 1;
        assert_rejected(&core, "ids not increasing inside the window");
    }

    #[test]
    fn restore_rejects_a_waiting_tail_that_is_not_all_waiting() {
        let mut core = busy_core();
        // One more op claimed un-issued than really is.
        core.waiting += 1;
        assert_rejected(&core, "un-issued tail");
        core.waiting = core.mem.len() + 1;
        assert_rejected(&core, "more waiting ops than memory ops");
    }

    #[test]
    fn restore_rejects_a_waiting_op_before_the_tail() {
        let mut core = busy_core();
        core.waiting -= 1;
        assert_rejected(&core, "un-issued tail");
    }

    #[test]
    fn restore_rejects_tokens_that_do_not_match_outstanding_ops() {
        let mut core = busy_core();
        core.tokens.pop();
        assert_rejected(&core, "token count");

        let mut core = busy_core();
        core.tokens[0].1 = core.mem_retired + core.mem.len() as u64;
        assert_rejected(&core, "token outside the window");

        let mut core = busy_core();
        let done = core
            .mem
            .iter()
            .position(|m| matches!(m.state, MemState::Done(_)))
            .expect("busy_core holds a completed op");
        core.tokens[0].1 = core.mem_retired + done as u64;
        assert_rejected(&core, "non-outstanding");

        let mut core = busy_core();
        core.tokens[1].1 = core.tokens[0].1;
        assert_rejected(&core, "two tokens for one op");
    }

    #[test]
    fn restore_rejects_an_unknown_slot_tag() {
        let core = busy_core();
        // The payload's prefix by hand, with an unknown slot tag.
        let mut bad = StateWriter::new("core-test", 1);
        core.source.save(&mut bad);
        core.typ_rng.save(&mut bad);
        bad.bool(false); // throttle: none
        bad.u64(0); // first_id
        bad.u64(1); // next_id
        bad.u64(0); // mem_retired
        bad.usize(1); // one memory op:
        bad.u64(0); //   id
        bad.u8(9); //   state tag
        let bytes = bad.finish();
        let mut twin = busy_core();
        let mut r = StateReader::new(&bytes, "core-test", 1).expect("valid envelope");
        let err = twin.restore(&mut r).expect_err("tag 9 is no slot state");
        assert_eq!(err.to_string(), "corrupt: Core.mem: MemSlot.state: slot tag 9");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = || {
            let mut core = Core::new(AppId::new(0), &profile(100), 77);
            for now in 0..5_000 {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 20));
            }
            core.retired()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A memory whose every answer is a pure function of (seed, cycle,
    /// call index within the cycle), so two equivalent cores driving one
    /// copy each see the same thing. A `Stall` sticks until a drawn
    /// cycle, like a full queue that drains later.
    struct RandomMemory {
        seed: u64,
        stall_until: Option<Cycle>,
        /// (token, finish cycle) of accesses in flight.
        pending: Vec<(u64, Cycle)>,
    }

    impl RandomMemory {
        fn draw(&self, now: Cycle, salt: u64) -> asm_simcore::SimRng {
            asm_simcore::SimRng::seed_from(
                self.seed ^ now.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD1B5),
            )
        }

        fn issue(&mut self, now: Cycle, nth: &mut u64) -> MemIssueResult {
            *nth += 1;
            if self.stall_until.is_some_and(|u| now < u) {
                return MemIssueResult::Stall;
            }
            self.stall_until = None;
            let mut rng = self.draw(now, *nth);
            match rng.gen_range(4) {
                0 | 1 => MemIssueResult::Completed(now + 1 + rng.gen_range(50)),
                2 => {
                    let token = now * 1024 + *nth;
                    self.pending.push((token, now + 1 + rng.gen_range(300)));
                    MemIssueResult::Pending(token)
                }
                _ => {
                    self.stall_until = Some(now + 1 + rng.gen_range(20));
                    MemIssueResult::Stall
                }
            }
        }

        /// Delivers every access that finishes at `now`; whether any did.
        fn deliver(&mut self, now: Cycle, core: &mut Core) -> bool {
            let before = self.pending.len();
            self.pending.retain(|&(token, finish)| {
                if finish == now {
                    core.complete(token, finish);
                }
                finish != now
            });
            self.pending.len() < before
        }

        /// The throttle to apply at `now`, on roughly one cycle in 150.
        fn throttle_change(&self, now: Cycle) -> Option<Option<u32>> {
            let mut rng = self.draw(now, 0x7407);
            (rng.gen_range(150) == 0).then(|| match rng.gen_range(3) {
                0 => None,
                _ => Some(1 + rng.gen_range(6) as u32),
            })
        }
    }

    /// What the per-tick consumers would have recorded: the progress log
    /// and every cycle's stall class (a tick that retired is `Progress`,
    /// otherwise its head state; unreported cycles inherit the last
    /// reported head, as the attribution ledger's gap rule does).
    struct Recorder {
        log: crate::ProgressLog,
        classes: Vec<HeadStall>,
        gap: HeadStall,
    }

    impl Recorder {
        fn fill_to(&mut self, upto: Cycle) {
            while (self.classes.len() as u64) < upto {
                self.classes.push(self.gap);
            }
        }
    }

    impl AdvanceObserver for Recorder {
        fn on_tick(&mut self, now: Cycle, retired: u64, progressed: bool, head: HeadStall) {
            self.fill_to(now);
            self.classes
                .push(if progressed { HeadStall::Progress } else { head });
            self.gap = head;
            self.log.record(retired, now);
        }

        fn on_progress_span(
            &mut self,
            start: Cycle,
            ticks: u64,
            retired_before: u64,
            per_tick: u64,
            head: HeadStall,
        ) {
            self.fill_to(start);
            self.classes
                .extend((0..ticks).map(|_| HeadStall::Progress));
            self.gap = head;
            self.log.record_ramp(retired_before, start, ticks, per_tick);
        }
    }

    fn state_bytes(core: &Core) -> Vec<u8> {
        let mut w = StateWriter::new("core-test", 1);
        core.save(&mut w);
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The event-driven contract: a core ticked for real only when it
        /// may issue (its `next_issue` bound, a completion, a throttle
        /// change) and caught up with `advance` in between is
        /// indistinguishable from one ticked every cycle — checkpoint
        /// bytes, head state, progress log and per-cycle stall classes
        /// agree at every sync point.
        #[test]
        fn lazy_advance_equals_per_cycle_ticks(
            seed in 0u64..100_000,
            mpk in prop_oneof![0u32..40, 0u32..1000],
            mlp in 1u32..12,
            shape in 0usize..4,
            sync_gap in 1u64..400,
            interval in 1u64..50,
        ) {
            let (window, width) = [(128, 3), (32, 4), (8, 1), (128, 1)][shape];
            let profile = AppProfile::builder("prop").mem_per_kilo(mpk).mlp(mlp).build();
            let build = || Core::with_window(AppId::new(0), &profile, seed, window, width);
            let memory = || RandomMemory { seed, stall_until: None, pending: Vec::new() };
            let recorder = || Recorder {
                log: crate::ProgressLog::new(interval),
                classes: Vec::new(),
                gap: HeadStall::Progress,
            };
            let (mut eager, mut eager_mem, mut eager_rec) = (build(), memory(), recorder());
            let (mut lazy, mut lazy_mem, mut lazy_rec) = (build(), memory(), recorder());
            // The lazy driver's bookkeeping, as `System` keeps it.
            let (mut synced, mut wake) = (0u64, 0u64);

            for now in 0..4_000u64 {
                // Per-cycle reference.
                eager_mem.deliver(now, &mut eager);
                if let Some(t) = eager_mem.throttle_change(now) {
                    eager.set_mlp_throttle(t);
                }
                let before = eager.retired();
                let mut nth = 0;
                eager.tick(now, &mut |_, _| eager_mem.issue(now, &mut nth));
                eager_rec.on_tick(now, eager.retired(), eager.retired() > before, eager.head_stall(now));

                // Event-driven twin: external events first catch it up.
                let mut tick_now = wake <= now;
                if lazy_mem.pending.iter().any(|&(_, finish)| finish == now) {
                    lazy.advance(synced, now, &mut lazy_rec);
                    synced = now;
                    tick_now |= lazy_mem.deliver(now, &mut lazy);
                }
                if let Some(t) = lazy_mem.throttle_change(now) {
                    lazy.advance(synced, now, &mut lazy_rec);
                    synced = now;
                    lazy.set_mlp_throttle(t);
                    tick_now = true;
                }
                if tick_now {
                    lazy.advance(synced, now, &mut lazy_rec);
                    let before = lazy.retired();
                    let mut nth = 0;
                    lazy.tick(now, &mut |_, _| lazy_mem.issue(now, &mut nth));
                    lazy_rec.on_tick(now, lazy.retired(), lazy.retired() > before, lazy.head_stall(now));
                    synced = now + 1;
                    // A stalled retry must run again once the memory
                    // would answer differently.
                    wake = lazy.next_issue(now).unwrap_or(Cycle::MAX);
                    if let Some(u) = lazy_mem.stall_until {
                        wake = wake.min(u);
                    }
                }

                if now % sync_gap == sync_gap - 1 {
                    lazy.advance(synced, now + 1, &mut lazy_rec);
                    synced = now + 1;
                    lazy_rec.fill_to(now + 1);
                    prop_assert_eq!(state_bytes(&lazy), state_bytes(&eager), "state at {}", now);
                    prop_assert_eq!(lazy.head_stall(now), eager.head_stall(now), "head at {}", now);
                    prop_assert_eq!(&lazy_rec.log, &eager_rec.log, "progress at {}", now);
                    prop_assert_eq!(&lazy_rec.classes, &eager_rec.classes, "classes at {}", now);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the memory hierarchy does (random latencies, stalls,
        /// out-of-order completions), the core's structural invariants
        /// hold every cycle.
        #[test]
        fn core_invariants_under_random_memory(
            seed in 0u64..10_000,
            mpk in 0u32..1000,
            mlp in 1u32..16,
        ) {
            let profile = AppProfile::builder("prop")
                .mem_per_kilo(mpk)
                .mlp(mlp)
                .build();
            let mut core = Core::new(AppId::new(0), &profile, seed);
            let mut rng = asm_simcore::SimRng::seed_from(seed ^ 0xFEED);
            let mut pending: Vec<(u64, u64)> = Vec::new(); // (token, finish)
            let mut next_token = 0u64;
            let mut last_retired = 0;
            for now in 0..3_000u64 {
                // Randomly complete some pending accesses.
                pending.retain(|&(token, finish)| {
                    if finish <= now {
                        core.complete(token, finish);
                        false
                    } else {
                        true
                    }
                });
                core.tick(now, &mut |_, _| match rng.gen_range(3) {
                    0 => MemIssueResult::Completed(now + 1 + rng.gen_range(50)),
                    1 => {
                        next_token += 1;
                        pending.push((next_token, now + 1 + rng.gen_range(400)));
                        MemIssueResult::Pending(next_token)
                    }
                    _ => MemIssueResult::Stall,
                });
                prop_assert!(core.occupancy() <= DEFAULT_WINDOW as u64, "ROB overflow");
                prop_assert!(core.outstanding() <= mlp, "MLP cap violated");
                prop_assert!(core.retired() >= last_retired, "retirement regressed");
                prop_assert!(
                    core.retired() <= (now + 1) * DEFAULT_WIDTH as u64,
                    "retired more than width allows"
                );
                last_retired = core.retired();
            }
            // Everything still pending can complete and the core drains.
            for (token, _) in pending.drain(..) {
                core.complete(token, 3_000);
            }
            for now in 3_000..3_200 {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 1));
            }
            prop_assert!(core.retired() > last_retired || last_retired > 0);
        }
    }
}
