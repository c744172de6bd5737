//! Per-bank state: open row, readiness, and current service owner.

use asm_simcore::{AppId, Cycle};

use crate::timing::DramTiming;

/// The row-buffer outcome of scheduling a request at a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The open row matched — column access only.
    Hit,
    /// The bank was precharged — activate then access.
    Closed,
    /// A different row was open — precharge, activate, access.
    Conflict,
}

/// One DRAM bank's timing state.
///
/// The model is request-granular: scheduling a request reserves the bank
/// until the request's data burst completes; the latency paid depends on the
/// row-buffer outcome. tRAS is satisfied structurally (the shortest
/// activate-to-completion path, tRCD + CL + burst = 24 bus cycles, equals
/// tRAS for DDR3-1333).
#[derive(Debug, Clone, Copy)]
pub struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
    /// Application whose request the bank is currently servicing (until
    /// `ready_at`).
    owner: Option<AppId>,
    /// What kind of access the current reservation is (attribution
    /// taxonomy: 0 = write, 1 = read row hit, 2 = read row miss). Never
    /// read by scheduling decisions — only by the interference cause
    /// accounting.
    busy_kind: u8,
    /// Application that (re)opened the currently open row, if any. Lets
    /// the attribution layer charge a row conflict to the co-runner that
    /// replaced the victim's row. Cleared on refresh.
    row_opener: Option<AppId>,
}

impl Bank {
    /// A precharged, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Bank {
            open_row: None,
            ready_at: 0,
            owner: None,
            busy_kind: 2,
            row_opener: None,
        }
    }

    /// Busy-kind index of the current reservation (0 = write, 1 = read row
    /// hit, 2 = read row miss) — the attribution taxonomy's cause axis.
    #[must_use]
    pub fn busy_kind_index(&self) -> usize {
        self.busy_kind as usize
    }

    /// Application that (re)opened the currently open row, if known.
    #[must_use]
    pub fn row_opener(&self) -> Option<AppId> {
        self.row_opener
    }

    /// The row currently open, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest cycle at which the bank can accept another request.
    #[must_use]
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Whether the bank is busy at `now`.
    #[must_use]
    pub fn busy(&self, now: Cycle) -> bool {
        self.ready_at > now
    }

    /// The application being serviced if the bank is busy at `now`.
    #[must_use]
    pub fn busy_owner(&self, now: Cycle) -> Option<AppId> {
        if self.busy(now) {
            self.owner
        } else {
            None
        }
    }

    /// Classifies the row-buffer outcome a request to `row` would see.
    #[must_use]
    pub fn classify(&self, row: u64) -> RowOutcome {
        match self.open_row {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        }
    }

    /// Whether a request to `row` needs an activate (closed or conflict).
    #[must_use]
    pub fn needs_activate(&self, row: u64) -> bool {
        !matches!(self.classify(row), RowOutcome::Hit)
    }

    /// Reserves the bank for a request to `row` by `app`, starting no
    /// earlier than `start`, and leaves the row open (open-page, Table 2).
    /// Returns `(outcome, data_finish)`: the cycle at which the data burst
    /// completes. The caller must already have clamped `start` to
    /// [`ready_at`](Self::ready_at) and to activation-window constraints.
    pub fn schedule(
        &mut self,
        timing: &DramTiming,
        start: Cycle,
        row: u64,
        app: AppId,
        is_write: bool,
    ) -> (RowOutcome, Cycle) {
        debug_assert!(start >= self.ready_at, "caller must respect bank readiness");
        let outcome = self.classify(row);
        let access = match outcome {
            RowOutcome::Hit => timing.row_hit_latency(),
            RowOutcome::Closed => timing.row_closed_latency(),
            RowOutcome::Conflict => timing.row_conflict_latency(),
        };
        let mut finish = start + access;
        if is_write {
            // Writes finish their burst then need tWR before the bank can
            // precharge; approximate by extending the reservation.
            finish += timing.twr;
        }
        self.open_row = Some(row);
        if outcome != RowOutcome::Hit {
            self.row_opener = Some(app);
        }
        self.ready_at = finish;
        self.owner = Some(app);
        self.busy_kind = if is_write {
            0
        } else if outcome == RowOutcome::Hit {
            1
        } else {
            2
        };
        (outcome, finish)
    }

    /// Extends the bank's reservation to at least `until` (used when the
    /// data bus pushes a request's burst later than the bank itself would
    /// allow).
    pub fn extend_reservation(&mut self, until: Cycle) {
        self.ready_at = self.ready_at.max(until);
    }

    /// Blocks the bank for a refresh until `until`: the open row is closed
    /// and no application owns the busy period (refresh delay is
    /// application-neutral and not charged as interference).
    pub fn refresh_until(&mut self, until: Cycle) {
        self.ready_at = self.ready_at.max(until);
        self.open_row = None;
        self.owner = None;
        self.row_opener = None;
    }

    /// Whether the bank names an application outside `0..app_count` — for
    /// the restored channel to ask, since a bank does not know the count.
    pub(crate) fn names_app_beyond(&self, app_count: usize) -> bool {
        [self.owner, self.row_opener]
            .iter()
            .flatten()
            .any(|a| a.index() >= app_count)
    }
}

asm_simcore::persist_fields!(Bank { open_row, ready_at, owner, busy_kind, row_opener } => |b: &Bank| {
    asm_simcore::persist::ensure(b.busy_kind <= 2, "busy-kind out of range")
});

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::ddr3_1333(1)
    }

    #[test]
    fn classification_transitions() {
        let t = timing();
        let mut b = Bank::new();
        assert_eq!(b.classify(5), RowOutcome::Closed);
        b.schedule(&t, 0, 5, AppId::new(0), false);
        assert_eq!(b.classify(5), RowOutcome::Hit);
        assert_eq!(b.classify(6), RowOutcome::Conflict);
    }

    #[test]
    fn hit_is_faster_than_conflict() {
        let t = timing();
        let mut b1 = Bank::new();
        b1.schedule(&t, 0, 5, AppId::new(0), false);
        let start = b1.ready_at();
        let (_, hit_finish) = b1.schedule(&t, start, 5, AppId::new(0), false);

        let mut b2 = Bank::new();
        b2.schedule(&t, 0, 5, AppId::new(0), false);
        let start2 = b2.ready_at();
        let (_, conflict_finish) = b2.schedule(&t, start2, 9, AppId::new(0), false);

        assert!(hit_finish < conflict_finish);
        assert_eq!(conflict_finish - hit_finish, t.trp + t.trcd);
    }

    #[test]
    fn busy_owner_tracks_service() {
        let t = timing();
        let mut b = Bank::new();
        let app = AppId::new(3);
        let (_, finish) = b.schedule(&t, 0, 1, app, false);
        assert_eq!(b.busy_owner(finish - 1), Some(app));
        assert_eq!(b.busy_owner(finish), None);
    }

    #[test]
    fn busy_kind_and_row_opener_track_the_taxonomy() {
        let t = timing();
        let mut b = Bank::new();
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        // Closed bank: read row miss, opener recorded.
        b.schedule(&t, 0, 5, a0, false);
        assert_eq!(b.busy_kind_index(), 2);
        assert_eq!(b.row_opener(), Some(a0));
        // Row hit by another app: kind 1, opener unchanged.
        let s = b.ready_at();
        b.schedule(&t, s, 5, a1, false);
        assert_eq!(b.busy_kind_index(), 1);
        assert_eq!(b.row_opener(), Some(a0));
        // Conflict by a1: kind 2, a1 becomes the opener.
        let s = b.ready_at();
        b.schedule(&t, s, 9, a1, false);
        assert_eq!(b.busy_kind_index(), 2);
        assert_eq!(b.row_opener(), Some(a1));
        // Write: kind 0. Refresh clears the opener.
        let s = b.ready_at();
        b.schedule(&t, s, 9, a0, true);
        assert_eq!(b.busy_kind_index(), 0);
        b.refresh_until(b.ready_at() + 10);
        assert_eq!(b.row_opener(), None);
    }

    #[test]
    fn write_extends_reservation_by_twr() {
        let t = timing();
        let mut br = Bank::new();
        let (_, rf) = br.schedule(&t, 0, 1, AppId::new(0), false);
        let mut bw = Bank::new();
        let (_, wf) = bw.schedule(&t, 0, 1, AppId::new(0), true);
        assert_eq!(wf - rf, t.twr);
    }
}
