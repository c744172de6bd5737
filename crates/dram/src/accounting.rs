//! Interference and queueing-cycle accounting.
//!
//! Two counters feed the slowdown estimators:
//!
//! 1. **Per-request interference cycles** (for FST/PTCA): cycles a queued
//!    read spends waiting while its bank services *another* application's
//!    request. Reported in each [`crate::Completion`].
//! 2. **Queueing cycles** (§4.3, for ASM/MISE): "a cycle is deemed a
//!    queueing cycle if a request from the highest-priority application is
//!    outstanding and the previous command issued by the memory controller
//!    was from another application."
//!
//! Both conditions only change at controller *events* (enqueue, issue,
//! completion, priority change), so the accounting is lazy: state is
//! advanced over the interval since the previous event instead of every
//! cycle, keeping the per-cycle simulation cost near zero.
//!
//! Per-request interference is lazier still: within an event interval a
//! bank has one fixed owner, so every resident request of that bank with
//! a different application accrues the *same* charge. [`advance`] therefore
//! only bumps two cumulative counters per bank — total busy-owner cycles,
//! and the per-application share of them — in `O(banks)` instead of
//! walking the whole read queue. A request snapshots the counters at
//! enqueue ([`interference_snapshot`]) and the controller materialises its
//! interference at issue time ([`interference_since`]) as
//! `(total now - total at enqueue) - (own-app share now - at enqueue)`,
//! which equals the old per-request accrual cycle for cycle.
//!
//! [`advance`]: ChannelAccounting::advance
//! [`interference_snapshot`]: ChannelAccounting::interference_snapshot

// Billing/accounting arithmetic: every `as` cast is justified or replaced
// by a lossless conversion (DESIGN.md §8, policy R5).
#![deny(clippy::as_conversions)]
//! [`interference_since`]: ChannelAccounting::interference_since

use asm_simcore::{AppId, Cycle};

use crate::bank::Bank;

/// A request's view of the interference counters at enqueue time; handed
/// back to [`ChannelAccounting::interference_since`] at issue time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterferenceSnapshot {
    /// `bank_charge[bank]` at snapshot time.
    total: Cycle,
    /// The requesting application's share of it at snapshot time.
    own: Cycle,
    /// Busy-kind split of `total` at snapshot time (attribution only;
    /// zeros when attribution is off). Indexed by the bank busy-kind
    /// taxonomy: 0 = write, 1 = read row hit, 2 = read row miss.
    cause_total: [Cycle; 3],
    /// Busy-kind split of `own` at snapshot time (attribution only).
    cause_own: [Cycle; 3],
}

asm_simcore::persist_fields!(InterferenceSnapshot { total, own, cause_total, cause_own });

/// Lazy per-channel accounting state.
#[derive(Debug, Clone)]
pub struct ChannelAccounting {
    last_event: Cycle,
    app_count: usize,
    /// Cumulative cycles each bank spent busy on an owned request,
    /// indexed by bank. Sized lazily on the first [`advance`](Self::advance)
    /// (the channel's bank count is not known at construction).
    bank_charge: Vec<Cycle>,
    /// The per-application share of `bank_charge`, flattened as
    /// `bank * app_count + app`.
    bank_charge_by_app: Vec<Cycle>,
    /// Outstanding (queued or in-flight) reads per application.
    outstanding_reads: Vec<u64>,
    /// Reads waiting in the request buffer (not yet issued to a bank) per
    /// application — the "outstanding request" of the §4.3 queueing-cycle
    /// definition (a request already in service at its bank is not being
    /// queued behind anyone).
    waiting_reads: Vec<u64>,
    /// Accumulated §4.3 queueing cycles per application (fractional: a
    /// waiting cycle during which some of the application's own requests
    /// are still in service is only partially lost).
    queueing_cycles: Vec<f64>,
    priority_app: Option<AppId>,
    last_issued_app: Option<AppId>,
    /// Whether ground-truth attribution counters are maintained. Off by
    /// default; when off, none of the fields below are touched and the
    /// simulation trajectory is bit-identical to a build without them.
    attrib: bool,
    /// Busy-kind split of `bank_charge`, flattened as `bank * 3 + kind`
    /// (kind: 0 = write, 1 = read row hit, 2 = read row miss).
    cause_total: Vec<Cycle>,
    /// Busy-kind split of `bank_charge_by_app`, flattened as
    /// `(bank * app_count + app) * 3 + kind`.
    cause_own: Vec<Cycle>,
    /// Demand reads currently waiting (enqueued, not yet issued) per bank
    /// and application, flattened as `bank * app_count + app`.
    bank_waiting: Vec<u64>,
    /// Cumulative request-weighted blame: for each victim × offender ×
    /// busy-kind, the interference cycles the offender's bank occupancy
    /// cost the victim's waiting demand reads, flattened as
    /// `(victim * app_count + offender) * 3 + kind`. Reconciles exactly
    /// with the per-request snapshots (see `attrib_reconciles` test).
    blame: Vec<Cycle>,
    /// Per-victim demand-read interference materialized at issue time —
    /// the already-settled half of the reconciliation identity.
    materialized: Vec<Cycle>,
}

impl ChannelAccounting {
    /// Creates accounting state for `app_count` applications.
    #[must_use]
    pub fn new(app_count: usize) -> Self {
        ChannelAccounting {
            last_event: 0,
            app_count,
            bank_charge: Vec::new(),
            bank_charge_by_app: Vec::new(),
            outstanding_reads: vec![0; app_count],
            waiting_reads: vec![0; app_count],
            queueing_cycles: vec![0.0; app_count],
            priority_app: None,
            last_issued_app: None,
            attrib: false,
            cause_total: Vec::new(),
            cause_own: Vec::new(),
            bank_waiting: Vec::new(),
            blame: Vec::new(),
            materialized: Vec::new(),
        }
    }

    /// Turns on ground-truth attribution counters. Call once, before any
    /// simulation; the per-bank vectors grow lazily alongside
    /// `bank_charge`.
    pub fn enable_attrib(&mut self) {
        self.attrib = true;
        self.blame = vec![0; self.app_count * self.app_count * 3];
        self.materialized = vec![0; self.app_count];
    }

    /// Whether attribution counters are being maintained.
    #[must_use]
    pub fn attrib_enabled(&self) -> bool {
        self.attrib
    }

    fn ensure_bank_capacity(&mut self, banks: usize) {
        if self.bank_waiting.len() < banks * self.app_count {
            self.bank_waiting.resize(banks * self.app_count, 0);
            self.cause_total.resize(banks * 3, 0);
            self.cause_own.resize(banks * self.app_count * 3, 0);
        }
    }

    /// Advances accounting to `now`, accruing per-bank interference
    /// charges and queueing cycles for the priority application.
    ///
    /// Must be called *before* any state mutation at an event so the
    /// interval is charged under the pre-event state.
    pub fn advance(&mut self, now: Cycle, banks: &[Bank]) {
        if now <= self.last_event {
            return;
        }
        let span_start = self.last_event;

        // Per-bank interference charge: the bank's owner is fixed until its
        // ready_at, and issues (owner changes) are themselves events, so
        // within this interval each bank has at most one owner — every
        // resident request of another application accrues the same charge,
        // so it is recorded once per bank, not once per request.
        if self.bank_charge.len() < banks.len() {
            self.bank_charge.resize(banks.len(), 0);
            self.bank_charge_by_app.resize(banks.len() * self.app_count, 0);
        }
        if self.attrib {
            self.ensure_bank_capacity(banks.len());
        }
        for (b, bank) in banks.iter().enumerate() {
            if let Some(owner) = bank.busy_owner(span_start) {
                let busy_until = bank.ready_at().min(now);
                let charge = busy_until.saturating_sub(span_start);
                self.bank_charge[b] += charge;
                self.bank_charge_by_app[b * self.app_count + owner.index()] += charge;
                if self.attrib && charge > 0 {
                    // Cause split: the same charge, keyed by what the bank
                    // was busy with — and request-weighted central blame,
                    // mirroring the per-request snapshot accrual (each of a
                    // victim's waiting demand reads accrues this charge).
                    let o = owner.index();
                    let k = bank.busy_kind_index();
                    self.cause_total[b * 3 + k] += charge;
                    self.cause_own[(b * self.app_count + o) * 3 + k] += charge;
                    for v in 0..self.app_count {
                        if v != o {
                            let waiting = self.bank_waiting[b * self.app_count + v];
                            if waiting > 0 {
                                self.blame[(v * self.app_count + o) * 3 + k] +=
                                    charge * waiting;
                            }
                        }
                    }
                }
            }
        }

        // §4.3 queueing cycles for the priority application: it has a
        // request *waiting* and the previous command issued went to another
        // application. A cycle during which some of the application's own
        // requests are still in service is only partially lost (its
        // memory-level parallelism keeps making progress), so the cycle is
        // weighted by the stalled fraction of its outstanding requests.
        if let Some(p) = self.priority_app {
            let idx = p.index();
            if idx < self.waiting_reads.len()
                && self.waiting_reads[idx] > 0
                && self.last_issued_app != Some(p)
            {
                #[expect(
                    clippy::as_conversions,
                    reason = "request counts are bounded by the request-buffer size (tens), exactly representable in f64"
                )]
                let waiting = self.waiting_reads[idx] as f64;
                #[expect(clippy::as_conversions, reason = "same bound as `waiting` above")]
                let outstanding = self.outstanding_reads[idx].max(1) as f64;
                let stalled_fraction = (waiting / outstanding).min(1.0);
                // Squaring biases toward "mostly stalled" situations;
                // a single waiting request among many in flight is almost
                // free, while a fully stalled queue costs the whole cycle.
                let weight = stalled_fraction * stalled_fraction;
                #[expect(
                    clippy::as_conversions,
                    reason = "span lengths are far below 2^53, so the u64→f64 conversion is exact"
                )]
                let span = (now - span_start) as f64;
                self.queueing_cycles[idx] += weight * span;
            }
        }

        self.last_event = now;
    }

    /// Snapshots the interference counters for a request of `app` entering
    /// `bank`. Call after [`advance`](Self::advance) so the counters are
    /// current. The counters are sized lazily, so an unseen bank reads 0 —
    /// correct, since nothing has been charged to it yet.
    #[must_use]
    pub fn interference_snapshot(&self, bank: usize, app: AppId) -> InterferenceSnapshot {
        let mut snap = InterferenceSnapshot {
            total: self.bank_charge.get(bank).copied().unwrap_or(0),
            own: self
                .bank_charge_by_app
                .get(bank * self.app_count + app.index())
                .copied()
                .unwrap_or(0),
            cause_total: [0; 3],
            cause_own: [0; 3],
        };
        if self.attrib {
            for k in 0..3 {
                snap.cause_total[k] = self.cause_total.get(bank * 3 + k).copied().unwrap_or(0);
                snap.cause_own[k] = self
                    .cause_own
                    .get((bank * self.app_count + app.index()) * 3 + k)
                    .copied()
                    .unwrap_or(0);
            }
        }
        snap
    }

    /// Interference cycles a request of `app` in `bank` accrued since
    /// `snap` was taken: the bank's busy-owner cycles over the request's
    /// residency, minus the share during which the owner was the request's
    /// own application. Call after [`advance`](Self::advance).
    #[must_use]
    pub fn interference_since(&self, snap: InterferenceSnapshot, bank: usize, app: AppId) -> Cycle {
        let total = self.bank_charge.get(bank).copied().unwrap_or(0) - snap.total;
        let own = self
            .bank_charge_by_app
            .get(bank * self.app_count + app.index())
            .copied()
            .unwrap_or(0)
            - snap.own;
        total - own
    }

    /// Busy-kind split of [`interference_since`](Self::interference_since)
    /// for the same request: how much of the interference accrued while
    /// the bank was busy with a write / a foreign row hit / a foreign row
    /// miss. Zeros when attribution is off; the three parts sum to at most
    /// the undifferentiated interference (exactly, when both snapshots
    /// were taken with attribution on).
    #[must_use]
    pub fn interference_causes_since(
        &self,
        snap: InterferenceSnapshot,
        bank: usize,
        app: AppId,
    ) -> [Cycle; 3] {
        if !self.attrib {
            return [0; 3];
        }
        let mut out = [0; 3];
        for (k, slot) in out.iter_mut().enumerate() {
            let total = self.cause_total.get(bank * 3 + k).copied().unwrap_or(0)
                - snap.cause_total[k];
            let own = self
                .cause_own
                .get((bank * self.app_count + app.index()) * 3 + k)
                .copied()
                .unwrap_or(0)
                - snap.cause_own[k];
            *slot = total - own;
        }
        out
    }

    /// Records a demand read's interference being materialized at issue
    /// time (the settled half of the blame reconciliation identity).
    pub fn note_materialized(&mut self, app: AppId, cycles: Cycle) {
        if self.attrib {
            self.materialized[app.index()] += cycles;
        }
    }

    /// Records a read entering the request buffer of `bank`.
    pub fn on_read_enqueued(&mut self, app: AppId, bank: usize) {
        self.outstanding_reads[app.index()] += 1;
        self.waiting_reads[app.index()] += 1;
        if self.attrib {
            self.ensure_bank_capacity(bank + 1);
            self.bank_waiting[bank * self.app_count + app.index()] += 1;
        }
    }

    /// Records a command issue for `app` at `bank`; `is_read`
    /// distinguishes demand reads (which leave the waiting pool) from
    /// prefetches and writebacks.
    pub fn on_issue(&mut self, app: AppId, is_read: bool, bank: usize) {
        self.last_issued_app = Some(app);
        if is_read {
            let w = &mut self.waiting_reads[app.index()];
            debug_assert!(*w > 0, "read issue without waiting read");
            *w = w.saturating_sub(1);
            if self.attrib {
                self.ensure_bank_capacity(bank + 1);
                let bw = &mut self.bank_waiting[bank * self.app_count + app.index()];
                debug_assert!(*bw > 0, "bank issue without waiting read");
                *bw = bw.saturating_sub(1);
            }
        }
    }

    /// Records a read completion for `app`.
    pub fn on_read_completed(&mut self, app: AppId) {
        let c = &mut self.outstanding_reads[app.index()];
        debug_assert!(*c > 0, "completion without outstanding read");
        *c = c.saturating_sub(1);
    }

    /// Changes the highest-priority application. Call
    /// [`advance`](Self::advance) first.
    pub fn set_priority_app(&mut self, app: Option<AppId>) {
        self.priority_app = app;
    }

    /// The currently prioritised application.
    #[must_use]
    pub fn priority_app(&self) -> Option<AppId> {
        self.priority_app
    }

    /// Accumulated queueing cycles for `app` (rounded down).
    #[must_use]
    #[expect(
        clippy::as_conversions,
        reason = "rounding down to whole cycles is the documented contract of this accessor; values are non-negative"
    )]
    pub fn queueing_cycles(&self, app: AppId) -> Cycle {
        self.queueing_cycles
            .get(app.index())
            .copied()
            .unwrap_or(0.0) as Cycle
    }

    /// Clears all queueing-cycle counters (done at quantum boundaries).
    pub fn reset_queueing_cycles(&mut self) {
        self.queueing_cycles.fill(0.0);
    }

    /// Outstanding reads for `app` in this channel.
    #[must_use]
    pub fn outstanding_reads(&self, app: AppId) -> u64 {
        self.outstanding_reads
            .get(app.index())
            .copied()
            .unwrap_or(0)
    }

    /// Cumulative victim × offender × busy-kind blame counters (empty when
    /// attribution is off). Flattened `(victim * app_count + offender) * 3
    /// + kind`; the counters are lazily advanced, so a reader wanting
    /// totals up to `now` must have called [`advance`](Self::advance) —
    /// or, like the quantum finalizer, tolerate the (deterministic) smear
    /// of the not-yet-accrued tail into the next reading.
    #[must_use]
    pub fn blame(&self) -> &[Cycle] {
        &self.blame
    }

    /// Per-victim demand-read interference already materialized at issue.
    #[must_use]
    pub fn materialized(&self) -> &[Cycle] {
        &self.materialized
    }

    /// The application count this state was built for.
    pub(crate) fn app_count(&self) -> usize {
        self.app_count
    }

    /// What the field list cannot see: the lazily-sized per-bank vectors
    /// keep whatever length they have grown to, but their shapes must
    /// agree with one another and with the application count.
    fn check_restored(&self) -> Result<(), asm_simcore::persist::PersistError> {
        use asm_simcore::persist::ensure;
        let apps = self.app_count;
        ensure(
            self.bank_charge_by_app.len() == self.bank_charge.len() * apps,
            "bank-charge vector shape mismatch",
        )?;
        let named = [self.priority_app, self.last_issued_app];
        ensure(
            named.iter().flatten().all(|a| a.index() < apps),
            "application index out of range",
        )?;
        ensure(
            self.cause_total.len().is_multiple_of(3)
                && self.cause_own.len() == self.cause_total.len() * apps
                && self.bank_waiting.len() * 3 == self.cause_total.len() * apps
                && (self.blame.len() == apps * apps * 3 || self.blame.is_empty())
                && (self.materialized.len() == apps || self.materialized.is_empty()),
            "attribution counter shape mismatch",
        )
    }
}

asm_simcore::persist_fields!(ChannelAccounting {
    last_event,
    bank_charge,
    bank_charge_by_app,
    [outstanding_reads],
    [waiting_reads],
    [queueing_cycles],
    priority_app,
    last_issued_app,
    (= attrib),
    cause_total,
    cause_own,
    bank_waiting,
    blame,
    materialized,
} => ChannelAccounting::check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DramTiming;

    #[test]
    fn interference_accrues_only_against_other_apps() {
        let timing = DramTiming::ddr3_1333(1);
        let mut banks = vec![Bank::new(); 2];
        // Bank 0 busy with app1 from cycle 0.
        let (_, finish) = banks[0].schedule(&timing, 0, 5, AppId::new(1), false);
        let mut acct = ChannelAccounting::new(2);
        // Snapshots taken at cycle 0, before any charge.
        let victim = acct.interference_snapshot(0, AppId::new(0));
        let owner = acct.interference_snapshot(0, AppId::new(1));
        let idle = acct.interference_snapshot(1, AppId::new(0));
        acct.advance(10, &banks);
        // app0 waiting behind app1: interferes.
        assert_eq!(acct.interference_since(victim, 0, AppId::new(0)), 10.min(finish));
        // app1 waiting behind itself: no interference.
        assert_eq!(acct.interference_since(owner, 0, AppId::new(1)), 0);
        // Idle bank: no interference.
        assert_eq!(acct.interference_since(idle, 1, AppId::new(0)), 0);
    }

    #[test]
    fn interference_stops_when_bank_frees() {
        let timing = DramTiming::ddr3_1333(1);
        let mut banks = vec![Bank::new()];
        let (_, finish) = banks[0].schedule(&timing, 0, 5, AppId::new(1), false);
        let mut acct = ChannelAccounting::new(2);
        let snap = acct.interference_snapshot(0, AppId::new(0));
        acct.advance(finish + 100, &banks);
        assert_eq!(acct.interference_since(snap, 0, AppId::new(0)), finish);
    }

    #[test]
    fn late_snapshot_excludes_earlier_charges() {
        let timing = DramTiming::ddr3_1333(1);
        let mut banks = vec![Bank::new()];
        let (_, finish) = banks[0].schedule(&timing, 0, 5, AppId::new(1), false);
        let mut acct = ChannelAccounting::new(2);
        // A request arriving at cycle 10 must not be charged cycles 0-10.
        acct.advance(10, &banks);
        let snap = acct.interference_snapshot(0, AppId::new(0));
        acct.advance(finish + 100, &banks);
        assert_eq!(
            acct.interference_since(snap, 0, AppId::new(0)),
            finish - 10.min(finish)
        );
    }

    #[test]
    fn queueing_cycles_require_outstanding_and_foreign_last_issue() {
        let banks = vec![Bank::new()];
        let mut acct = ChannelAccounting::new(2);
        let p = AppId::new(0);
        acct.set_priority_app(Some(p));

        // No outstanding request: no queueing cycles.
        acct.advance(10, &banks);
        assert_eq!(acct.queueing_cycles(p), 0);

        // Outstanding, last issue by another app: accrues.
        acct.on_read_enqueued(p, 0);
        acct.on_issue(AppId::new(1), false, 0);
        acct.advance(30, &banks);
        assert_eq!(acct.queueing_cycles(p), 20);

        // Last issue by the priority app itself: stops accruing.
        acct.on_issue(p, true, 0);
        acct.advance(50, &banks);
        assert_eq!(acct.queueing_cycles(p), 20);
    }

    #[test]
    fn reset_clears_queueing() {
        let banks = vec![Bank::new()];
        let mut acct = ChannelAccounting::new(1);
        let p = AppId::new(0);
        acct.set_priority_app(Some(p));
        acct.on_read_enqueued(p, 0);
        acct.on_issue(AppId::new(0), true, 0);
        acct.set_priority_app(Some(p));
        acct.advance(10, &banks);
        acct.reset_queueing_cycles();
        assert_eq!(acct.queueing_cycles(p), 0);
    }

    #[test]
    fn advance_is_idempotent_at_same_cycle() {
        let banks = vec![Bank::new()];
        let mut acct = ChannelAccounting::new(1);
        acct.set_priority_app(Some(AppId::new(0)));
        acct.on_read_enqueued(AppId::new(0), 0);
        acct.on_issue(AppId::new(0), true, 0);
        acct.advance(10, &banks);
        let before = acct.queueing_cycles(AppId::new(0));
        acct.advance(10, &banks);
        assert_eq!(acct.queueing_cycles(AppId::new(0)), before);
    }
}
