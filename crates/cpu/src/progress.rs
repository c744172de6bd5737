//! Alone-run progress records for ground-truth slowdown computation.
//!
//! The paper's accuracy metric (§5) compares estimated slowdowns against
//! `IPC_alone / IPC_shared`, where `IPC_alone` is computed "for the same
//! amount of work completed in the alone run as that completed in the
//! shared run for each quantum". A [`ProgressLog`] records, during an alone
//! run, the cycle at which each instruction milestone was reached; the
//! experiment runner then asks how many alone-run cycles the shared run's
//! instruction window would have taken.

use asm_simcore::Cycle;

/// Cycle timestamps at fixed instruction milestones from an alone run.
///
/// # Examples
///
/// ```
/// use asm_cpu::ProgressLog;
/// let mut log = ProgressLog::new(100);
/// log.record(250, 1_000); // by cycle 1000, 250 instructions retired
/// log.record(500, 2_000);
/// // Alone cycles to execute instructions 0..500:
/// let c = log.cycles_between(0, 500);
/// assert!((c - 2_000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressLog {
    interval: u64,
    /// `cycles[k]` = cycle at which `(k + 1) * interval` instructions had
    /// been retired.
    cycles: Vec<Cycle>,
}

impl ProgressLog {
    /// Creates a log with the given milestone interval (instructions).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        ProgressLog {
            interval,
            cycles: Vec::new(),
        }
    }

    /// Records that `retired` instructions had been retired by cycle `now`;
    /// call after every simulation step (or periodically) with monotonic
    /// arguments.
    pub fn record(&mut self, retired: u64, now: Cycle) {
        while (self.cycles.len() as u64 + 1) * self.interval <= retired {
            self.cycles.push(now);
        }
    }

    /// Exactly `ticks` calls of [`record`](Self::record), one per cycle
    /// from `start`, over a steady ramp: `retired` instructions had
    /// retired before the first of those cycles and each cycle retires
    /// `per_tick` more. O(milestones crossed), not O(`ticks`).
    pub fn record_ramp(&mut self, retired: u64, start: Cycle, ticks: u64, per_tick: u64) {
        if ticks == 0 {
            return;
        }
        debug_assert!(per_tick > 0, "a ramp retires on every tick");
        let last = retired + ticks * per_tick;
        loop {
            let milestone = (self.cycles.len() as u64 + 1) * self.interval;
            if milestone > last {
                return;
            }
            // The tick whose running count first reaches the milestone
            // (the ramp's first tick for milestones already passed).
            let nth = milestone.saturating_sub(retired).div_ceil(per_tick).max(1);
            self.cycles.push(start + nth - 1);
        }
    }

    /// Number of milestones recorded.
    #[must_use]
    pub fn milestones(&self) -> usize {
        self.cycles.len()
    }

    /// Highest instruction count covered by recorded milestones.
    #[must_use]
    pub fn max_instructions(&self) -> u64 {
        self.cycles.len() as u64 * self.interval
    }

    /// The (interpolated) cycle at which instruction `n` retired in the
    /// alone run. Extrapolates beyond the last milestone using the tail
    /// rate.
    #[must_use]
    pub fn cycle_at(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let idx = (n / self.interval) as usize; // completed milestones before n
        let frac = (n % self.interval) as f64 / self.interval as f64;
        let milestone = |k: usize| -> f64 {
            if k == 0 {
                0.0
            } else {
                self.cycles[k - 1] as f64
            }
        };
        if idx < self.cycles.len() {
            let lo = milestone(idx);
            let hi = milestone(idx + 1);
            lo + frac * (hi - lo)
        } else if self.cycles.is_empty() {
            // No milestones at all: assume 1 IPC as a degenerate fallback.
            n as f64
        } else {
            // Extrapolate with the average rate of the last milestone (or
            // the whole run when there is only one).
            let last = self.cycles.len();
            let rate = if last >= 2 {
                (milestone(last) - milestone(last - 1)) / self.interval as f64
            } else {
                milestone(last) / self.interval as f64
            };
            milestone(last) + (n as f64 - self.max_instructions() as f64) * rate
        }
    }

    /// Alone-run cycles needed to execute instructions `from..to`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    #[must_use]
    pub fn cycles_between(&self, from: u64, to: u64) -> f64 {
        assert!(from <= to, "inverted instruction window");
        self.cycle_at(to) - self.cycle_at(from)
    }

    /// Alone-run IPC over the instruction window `from..to`; `None` if the
    /// window is empty.
    #[must_use]
    pub fn ipc_between(&self, from: u64, to: u64) -> Option<f64> {
        if to <= from {
            return None;
        }
        let cycles = self.cycles_between(from, to);
        (cycles > 0.0).then(|| (to - from) as f64 / cycles)
    }
}

impl ProgressLog {
    fn check_restored(&self) -> Result<(), asm_simcore::persist::PersistError> {
        use asm_simcore::persist::ensure;
        ensure(self.interval != 0, "zero milestone interval")?;
        ensure(self.cycles.is_sorted(), "milestones not monotonic")
    }
}

asm_simcore::persist_fields!(ProgressLog { interval, cycles } => ProgressLog::check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `record_ramp` is `ticks` calls of `record`, whatever the log
        /// already holds — including milestones the count had passed
        /// before the ramp began and intervals narrower than one tick's
        /// retirement.
        #[test]
        fn ramp_equals_per_tick_records(
            interval in 1u64..40,
            recorded_upto in 0u64..200,
            extra in 0u64..100,
            start in 0u64..1_000,
            ticks in 0u64..60,
            per_tick in 1u64..8,
        ) {
            let mut ramp = ProgressLog::new(interval);
            ramp.record(recorded_upto, start.saturating_sub(1));
            let mut each = ramp.clone();
            // `extra` instructions retired since the last record call
            // (logging switched on mid-run): milestones already passed.
            let retired = recorded_upto + extra;
            ramp.record_ramp(retired, start, ticks, per_tick);
            for j in 0..ticks {
                each.record(retired + (j + 1) * per_tick, start + j);
            }
            prop_assert_eq!(ramp, each);
        }
    }

    #[test]
    fn records_multiple_milestones_at_once() {
        let mut log = ProgressLog::new(10);
        log.record(35, 700);
        assert_eq!(log.milestones(), 3);
        // All three milestones observed at cycle 700 (coarse recording).
        assert_eq!(log.cycle_at(30), 700.0);
    }

    #[test]
    fn interpolates_within_milestones() {
        let mut log = ProgressLog::new(100);
        log.record(100, 1_000);
        log.record(200, 3_000);
        assert!((log.cycle_at(150) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolates_past_last_milestone() {
        let mut log = ProgressLog::new(100);
        log.record(100, 1_000);
        log.record(200, 2_000);
        // Tail rate 10 cycles/instruction.
        assert!((log.cycle_at(300) - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_between_computes_rate() {
        let mut log = ProgressLog::new(100);
        log.record(100, 50); // 2 IPC
        log.record(200, 150); // 1 IPC in second window
        let ipc = log.ipc_between(0, 100).unwrap();
        assert!((ipc - 2.0).abs() < 1e-9);
        let ipc2 = log.ipc_between(100, 200).unwrap();
        assert!((ipc2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_none() {
        let log = ProgressLog::new(10);
        assert_eq!(log.ipc_between(5, 5), None);
    }

    #[test]
    fn empty_log_falls_back_to_unit_ipc() {
        let log = ProgressLog::new(10);
        assert_eq!(log.cycle_at(50), 50.0);
    }

    #[test]
    fn ramp_stamps_each_milestone_with_its_own_tick() {
        let mut log = ProgressLog::new(10);
        // 4 retired before; ticks 100.. retire 3 each: 7, 10, 13, 16, 19, 22.
        log.record_ramp(4, 100, 6, 3);
        assert_eq!(log.cycles, [101, 105]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_window_panics() {
        let log = ProgressLog::new(10);
        let _ = log.cycles_between(10, 5);
    }
}
