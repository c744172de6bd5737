//! Memory requests and completions.

use asm_simcore::{AppId, Cycle, LineAddr};

/// A request to main memory (a last-level-cache miss, a prefetch, or a
/// writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemRequest {
    /// Caller-assigned identifier, echoed in the [`Completion`].
    pub id: u64,
    /// The cache line to read or write.
    pub line: LineAddr,
    /// The application the request belongs to.
    pub app: AppId,
    /// `true` for a writeback, `false` for a read (demand miss or
    /// prefetch).
    pub is_write: bool,
    /// `true` for prefetch reads: scheduled like reads, but excluded from
    /// the demand-side accounting (queueing cycles, outstanding-read
    /// counts) since no instruction waits on them.
    pub is_prefetch: bool,
    /// The cycle the request entered the memory system.
    pub arrival: Cycle,
}

impl MemRequest {
    /// Creates a read (demand) request.
    #[must_use]
    pub fn read(id: u64, line: LineAddr, app: AppId, arrival: Cycle) -> Self {
        MemRequest {
            id,
            line,
            app,
            is_write: false,
            is_prefetch: false,
            arrival,
        }
    }

    /// Creates a prefetch read request.
    #[must_use]
    pub fn prefetch(id: u64, line: LineAddr, app: AppId, arrival: Cycle) -> Self {
        MemRequest {
            id,
            line,
            app,
            is_write: false,
            is_prefetch: true,
            arrival,
        }
    }

    /// Creates a writeback request.
    #[must_use]
    pub fn write(id: u64, line: LineAddr, app: AppId, arrival: Cycle) -> Self {
        MemRequest {
            id,
            line,
            app,
            is_write: true,
            is_prefetch: false,
            arrival,
        }
    }

    /// Whether an instruction is (potentially) waiting on this request.
    #[must_use]
    pub fn is_demand_read(&self) -> bool {
        !self.is_write && !self.is_prefetch
    }
}

/// A finished read request. (Writebacks complete silently; nothing waits on
/// them.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Completion {
    /// The id passed in the request.
    pub id: u64,
    /// The request's line.
    pub line: LineAddr,
    /// The owning application.
    pub app: AppId,
    /// When the request entered the memory system.
    pub arrival: Cycle,
    /// When the controller started servicing the request at the bank.
    pub service_start: Cycle,
    /// When the data burst finished (data available to the cache).
    pub finish: Cycle,
    /// Cycles this request spent queued while its bank served *other*
    /// applications — the per-request interference signal FST/PTCA consume.
    pub interference_cycles: Cycle,
    /// Whether the request hit the open row.
    pub row_hit: bool,
    /// Busy-kind split of `interference_cycles` for ground-truth
    /// attribution (0 = write drain, 1 = foreign row hit, 2 = foreign row
    /// miss). All zeros unless the controller's attribution counters are
    /// enabled; the parts then sum exactly to `interference_cycles`.
    pub cause: [Cycle; 3],
    /// Extra activate+precharge latency this request paid because another
    /// application replaced the row its application had open (zero when
    /// the conflict was self-inflicted or the bank was closed/refreshed).
    pub induced: Cycle,
    /// The application that replaced the row, when `induced > 0`.
    pub induced_by: Option<AppId>,
}

impl Completion {
    /// Total memory latency: queueing plus service.
    #[must_use]
    pub fn total_latency(&self) -> Cycle {
        self.finish - self.arrival
    }

    /// Service time at the bank (excludes queueing).
    #[must_use]
    pub fn service_latency(&self) -> Cycle {
        self.finish - self.service_start
    }
}

asm_simcore::persist_fields!(MemRequest { id, line, app, is_write, is_prefetch, arrival });
asm_simcore::persist_fields!(Completion {
    id,
    line,
    app,
    arrival,
    service_start,
    finish,
    interference_cycles,
    row_hit,
    cause,
    induced,
    induced_by,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let r = MemRequest::read(1, LineAddr::new(2), AppId::new(0), 3);
        assert!(!r.is_write);
        let w = MemRequest::write(1, LineAddr::new(2), AppId::new(0), 3);
        assert!(w.is_write);
    }

    #[test]
    fn latencies_decompose() {
        let c = Completion {
            id: 0,
            line: LineAddr::new(0),
            app: AppId::new(0),
            arrival: 100,
            service_start: 150,
            finish: 250,
            interference_cycles: 30,
            row_hit: false,
            cause: [0; 3],
            induced: 0,
            induced_by: None,
        };
        assert_eq!(c.total_latency(), 150);
        assert_eq!(c.service_latency(), 100);
    }
}
