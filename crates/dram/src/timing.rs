//! DDR3 timing parameters, expressed in *core* clock cycles.
//!
//! The whole simulator runs on the core clock (5.3 GHz in Table 2); DDR3
//! device timings, specified in memory bus cycles (tCK = 1.5 ns for
//! DDR3-1333), are scaled by the clock ratio once at construction.

use asm_simcore::Cycle;

/// DRAM timing parameters in core cycles.
///
/// The default is DDR3-1333 10-10-10 under a 5.3 GHz core clock, matching
/// Table 2 of the paper (core-to-bus clock ratio ≈ 8).
///
/// # Examples
///
/// ```
/// use asm_dram::timing::DramTiming;
/// let t = DramTiming::ddr3_1333(8);
/// assert_eq!(t.cl, 80);
/// assert_eq!(t.trcd, 80);
/// assert_eq!(t.trp, 80);
/// // A row-buffer hit costs CL + burst; a conflict adds tRP + tRCD.
/// assert!(t.row_conflict_latency() > t.row_hit_latency());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency (read command to first data).
    pub cl: Cycle,
    /// RAS-to-CAS delay (activate to read/write).
    pub trcd: Cycle,
    /// Row precharge time.
    pub trp: Cycle,
    /// Minimum time a row must stay open after activation.
    pub tras: Cycle,
    /// Write recovery time (end of write burst to precharge).
    pub twr: Cycle,
    /// Minimum spacing between column commands to the same rank.
    pub tccd: Cycle,
    /// Data burst duration on the bus (BL8 = 4 bus cycles).
    pub burst: Cycle,
    /// Activate-to-activate spacing between different banks of a rank.
    pub trrd: Cycle,
    /// Four-activate window per rank.
    pub tfaw: Cycle,
}

impl DramTiming {
    /// DDR3-1333 (10-10-10) timings scaled by `clock_ratio` core cycles per
    /// memory bus cycle.
    ///
    /// # Panics
    ///
    /// Panics if `clock_ratio` is zero.
    #[must_use]
    pub fn ddr3_1333(clock_ratio: u64) -> Self {
        assert!(clock_ratio > 0, "clock ratio must be positive");
        let r = clock_ratio;
        DramTiming {
            cl: 10 * r,
            trcd: 10 * r,
            trp: 10 * r,
            tras: 24 * r,
            twr: 10 * r,
            tccd: 4 * r,
            burst: 4 * r,
            trrd: 4 * r,
            tfaw: 20 * r,
        }
    }

    /// Latency of a read that hits the open row: CL + burst.
    #[must_use]
    pub fn row_hit_latency(&self) -> Cycle {
        self.cl + self.burst
    }

    /// Latency of a read to a precharged (closed) bank: tRCD + CL + burst.
    #[must_use]
    pub fn row_closed_latency(&self) -> Cycle {
        self.trcd + self.cl + self.burst
    }

    /// Latency of a read that conflicts with a different open row:
    /// tRP + tRCD + CL + burst.
    #[must_use]
    pub fn row_conflict_latency(&self) -> Cycle {
        self.trp + self.trcd + self.cl + self.burst
    }
}

impl Default for DramTiming {
    /// DDR3-1333 under the paper's 5.3 GHz core (ratio 8).
    fn default() -> Self {
        Self::ddr3_1333(8)
    }
}

/// The complete set of timing and geometry parameters a non-cycle-accurate
/// memory model needs, read off a [`crate::DramConfig`] via
/// [`crate::DramConfig::timing_spec`].
///
/// This is the one source of truth for analytical tiers (and future
/// trace-driven backends): instead of duplicating DDR3 constants, they take
/// a `TimingSpec` and derive service times from it, so a change to the
/// simulated device propagates to every tier.
///
/// # Examples
///
/// ```
/// use asm_dram::DramConfig;
/// let spec = DramConfig::default().timing_spec();
/// assert_eq!(spec.channels, 1);
/// assert_eq!(spec.banks, 8);
/// // Sanity: a fully row-hostile stream is slower than a streaming one.
/// assert!(spec.avg_read_latency(0.0) > spec.avg_read_latency(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSpec {
    /// Device timing in core cycles (tRCD/tRP/CL/tBL and friends).
    pub timing: DramTiming,
    /// Independent channels (each with its own data bus and controller).
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Cache lines per DRAM row (row-buffer reach).
    pub row_lines: u64,
}

impl TimingSpec {
    /// Mean no-contention read latency given the fraction of reads that
    /// hit the open row; misses are costed as row conflicts (open-page
    /// policy keeps rows open, so a non-hit usually finds a stale row).
    #[must_use]
    pub fn avg_read_latency(&self, row_hit_frac: f64) -> f64 {
        let hit = self.timing.row_hit_latency() as f64;
        let conflict = self.timing.row_conflict_latency() as f64;
        row_hit_frac * hit + (1.0 - row_hit_frac) * conflict
    }

    /// Data-bus occupancy per request, per channel: the burst duration
    /// divided across channels. This bounds sustainable throughput — one
    /// request per `burst_slot()` cycles system-wide.
    #[must_use]
    pub fn burst_slot(&self) -> f64 {
        self.timing.burst as f64 / self.channels.max(1) as f64
    }

    /// Mean bank occupancy per request across all banks: how long one
    /// request keeps its bank busy, divided by system bank count. Second
    /// throughput bound (binding for row-hostile streams).
    #[must_use]
    pub fn bank_slot(&self, row_hit_frac: f64) -> f64 {
        let t = &self.timing;
        let hit_busy = t.tccd.max(t.burst) as f64;
        let conflict_busy = (t.trp + t.trcd + t.burst.max(t.tccd)) as f64;
        let busy = row_hit_frac * hit_busy + (1.0 - row_hit_frac) * conflict_busy;
        busy / (self.banks.max(1) * self.channels.max(1)) as f64
    }
}

/// Periodic all-bank refresh parameters (in core cycles).
///
/// Refresh is off by default in [`crate::DramConfig`] — it is
/// application-independent and cancels out of slowdown *ratios* — but can
/// be enabled to study its effect (see the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Refresh interval tREFI.
    pub trefi: Cycle,
    /// Refresh cycle time tRFC (all banks blocked).
    pub trfc: Cycle,
}

impl RefreshConfig {
    /// DDR3 2 Gb device refresh under a 5.3 GHz core:
    /// tREFI = 7.8 µs ≈ 41,000 cycles, tRFC = 160 ns ≈ 850 cycles.
    #[must_use]
    pub fn ddr3_2gb() -> Self {
        RefreshConfig {
            trefi: 41_000,
            trfc: 850,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let t = DramTiming::default();
        assert_eq!(t, DramTiming::ddr3_1333(8));
        // 10-10-10 at ratio 8.
        assert_eq!(t.cl, 80);
        assert_eq!(t.trcd, 80);
        assert_eq!(t.trp, 80);
    }

    #[test]
    fn latency_ordering() {
        let t = DramTiming::default();
        assert!(t.row_hit_latency() < t.row_closed_latency());
        assert!(t.row_closed_latency() < t.row_conflict_latency());
        assert_eq!(t.row_conflict_latency() - t.row_closed_latency(), t.trp);
    }

    #[test]
    fn scaling_is_linear() {
        let a = DramTiming::ddr3_1333(1);
        let b = DramTiming::ddr3_1333(4);
        assert_eq!(b.cl, 4 * a.cl);
        assert_eq!(b.tfaw, 4 * a.tfaw);
    }

    #[test]
    #[should_panic(expected = "clock ratio")]
    fn zero_ratio_rejected() {
        let _ = DramTiming::ddr3_1333(0);
    }

    #[test]
    fn timing_spec_latency_bounds() {
        let spec = TimingSpec {
            timing: DramTiming::default(),
            channels: 1,
            banks: 8,
            row_lines: 128,
        };
        // avg latency interpolates between the hit and conflict endpoints.
        assert!(
            asm_metrics_free_approx(spec.avg_read_latency(1.0), spec.timing.row_hit_latency() as f64)
        );
        assert!(asm_metrics_free_approx(
            spec.avg_read_latency(0.0),
            spec.timing.row_conflict_latency() as f64
        ));
        // Two channels halve the per-request bus slot.
        let two = TimingSpec { channels: 2, ..spec };
        assert!(asm_metrics_free_approx(two.burst_slot() * 2.0, spec.burst_slot()));
        // Bank occupancy shrinks with banks and with row locality.
        assert!(spec.bank_slot(0.0) > spec.bank_slot(1.0));
    }

    /// Local epsilon compare (this crate does not depend on asm-metrics).
    fn asm_metrics_free_approx(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }
}
