//! Post-hoc timing audit.
//!
//! Production memory simulators ship validation modes (the paper's
//! in-house simulator was validated against DRAMSim2 and Micron's Verilog
//! model). This module provides the equivalent here: when enabled on a
//! [`crate::MemorySystem`], every issued command is recorded, and
//! [`TimingAudit::validate`] replays the log against the timing
//! constraints the controller is supposed to enforce — per-bank service
//! exclusivity, data-bus burst serialisation, tRRD activate spacing, and
//! the tFAW four-activate window.

use std::fmt;

use asm_simcore::Cycle;

use crate::timing::DramTiming;

/// One issued command, as recorded by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent {
    /// Channel the command issued on.
    pub channel: usize,
    /// Bank within the channel.
    pub bank: usize,
    /// Issue cycle.
    pub start: Cycle,
    /// Data-burst completion cycle.
    pub finish: Cycle,
    /// Whether the command required an activate.
    pub activated: bool,
}

/// A violated timing constraint found by [`TimingAudit::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// Two commands overlapped at one bank.
    BankOverlap {
        /// The offending channel/bank.
        channel: usize,
        /// Bank index.
        bank: usize,
        /// Start of the overlapping command.
        at: Cycle,
    },
    /// Two data bursts on one channel were closer than the burst time.
    BusOverlap {
        /// The offending channel.
        channel: usize,
        /// Finish time of the second burst.
        at: Cycle,
    },
    /// Two activates on one channel violated tRRD.
    RrdViolation {
        /// The offending channel.
        channel: usize,
        /// Cycle of the second activate.
        at: Cycle,
    },
    /// More than four activates within a tFAW window on one channel.
    FawViolation {
        /// The offending channel.
        channel: usize,
        /// Cycle of the fifth activate.
        at: Cycle,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::BankOverlap { channel, bank, at } => {
                write!(f, "bank overlap at channel {channel} bank {bank}, cycle {at}")
            }
            AuditViolation::BusOverlap { channel, at } => {
                write!(f, "data-bus overlap on channel {channel}, cycle {at}")
            }
            AuditViolation::RrdViolation { channel, at } => {
                write!(f, "tRRD violation on channel {channel}, cycle {at}")
            }
            AuditViolation::FawViolation { channel, at } => {
                write!(f, "tFAW violation on channel {channel}, cycle {at}")
            }
        }
    }
}

/// A log of issued commands plus the validator over it.
#[derive(Debug, Clone, Default)]
pub struct TimingAudit {
    events: Vec<AuditEvent>,
}

impl TimingAudit {
    /// An empty audit log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one issued command (called by the controller).
    pub fn record(&mut self, event: AuditEvent) {
        self.events.push(event);
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the log against `timing`, returning every violation found
    /// (empty = the schedule was legal).
    #[must_use]
    pub fn validate(&self, timing: &DramTiming) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.start);

        use std::collections::BTreeMap;
        let mut bank_busy_until: BTreeMap<(usize, usize), Cycle> = BTreeMap::new();
        let mut bus_finishes: BTreeMap<usize, Vec<Cycle>> = BTreeMap::new();
        let mut activates: BTreeMap<usize, Vec<Cycle>> = BTreeMap::new();

        for e in &events {
            if let Some(&busy) = bank_busy_until.get(&(e.channel, e.bank)) {
                if e.start < busy {
                    violations.push(AuditViolation::BankOverlap {
                        channel: e.channel,
                        bank: e.bank,
                        at: e.start,
                    });
                }
            }
            bank_busy_until.insert((e.channel, e.bank), e.finish);
            bus_finishes.entry(e.channel).or_default().push(e.finish);
            if e.activated {
                activates.entry(e.channel).or_default().push(e.start);
            }
        }

        for (channel, mut finishes) in bus_finishes {
            finishes.sort_unstable();
            for w in finishes.windows(2) {
                if w[1] - w[0] < timing.burst {
                    violations.push(AuditViolation::BusOverlap {
                        channel,
                        at: w[1],
                    });
                }
            }
        }

        for (channel, mut acts) in activates {
            acts.sort_unstable();
            for w in acts.windows(2) {
                if w[1] - w[0] < timing.trrd {
                    violations.push(AuditViolation::RrdViolation {
                        channel,
                        at: w[1],
                    });
                }
            }
            for w in acts.windows(5) {
                if w[4] - w[0] < timing.tfaw {
                    violations.push(AuditViolation::FawViolation {
                        channel,
                        at: w[4],
                    });
                }
            }
        }

        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(bank: usize, start: Cycle, finish: Cycle, activated: bool) -> AuditEvent {
        AuditEvent {
            channel: 0,
            bank,
            start,
            finish,
            activated,
        }
    }

    fn timing() -> DramTiming {
        DramTiming::ddr3_1333(1)
    }

    #[test]
    fn legal_schedule_passes() {
        let mut audit = TimingAudit::new();
        audit.record(ev(0, 0, 24, true));
        audit.record(ev(1, 4, 28, true)); // tRRD = 4 respected
        audit.record(ev(0, 24, 34, false)); // row hit after bank free
        assert!(audit.validate(&timing()).is_empty());
    }

    #[test]
    fn detects_bank_overlap() {
        let mut audit = TimingAudit::new();
        audit.record(ev(0, 0, 24, true));
        audit.record(ev(0, 10, 34, false));
        let v = audit.validate(&timing());
        assert!(matches!(v[0], AuditViolation::BankOverlap { bank: 0, .. }));
    }

    #[test]
    fn detects_bus_overlap() {
        let mut audit = TimingAudit::new();
        // Different banks, but bursts finish 1 cycle apart (< burst = 4).
        audit.record(ev(0, 0, 24, true));
        audit.record(ev(1, 4, 25, true));
        let v = audit.validate(&timing());
        assert!(v
            .iter()
            .any(|x| matches!(x, AuditViolation::BusOverlap { .. })));
    }

    #[test]
    fn detects_rrd_violation() {
        let mut audit = TimingAudit::new();
        audit.record(ev(0, 0, 24, true));
        audit.record(ev(1, 2, 30, true)); // 2 < tRRD = 4
        let v = audit.validate(&timing());
        assert!(v
            .iter()
            .any(|x| matches!(x, AuditViolation::RrdViolation { .. })));
    }

    #[test]
    fn detects_faw_violation() {
        let mut audit = TimingAudit::new();
        // Five activates in 16 cycles (< tFAW = 20), spaced by tRRD.
        for (i, start) in [0u64, 4, 8, 12, 16].iter().enumerate() {
            audit.record(ev(i % 8, *start, start + 100, true));
        }
        let v = audit.validate(&timing());
        assert!(v
            .iter()
            .any(|x| matches!(x, AuditViolation::FawViolation { .. })));
    }
}
