//! The names of the telemetry view.
//!
//! Every counter, gauge and series family the view renders is named here,
//! in one module, and each is rendered at exactly one site
//! (`crates/core/src/system/probes.rs`; the runner adds
//! `app{i}.actual_slowdown`). External consumers join on these names in
//! the run report's `counters` and `series` (schema `asm-report/1`), so
//! they are a published format: a new row of the view gets its
//! constructor here, next to its neighbours. The attribution ledger is
//! not in the view; the report carries it in its own section.
//!
//! Naming scheme (dot-separated, `{family}.{instance}.{metric}`):
//!
//! - `llc.app{i}.*` — shared-cache counters per application
//! - `app{i}.*` — per-application estimator series
//! - `core{i}.*` — per-core gauges
//! - `dram.ch{c}.bank{b}.*` — per-bank gauges
//! - `sys.*` — whole-system gauges

/// Whole-system executed-cycle gauge.
pub const SYS_EXECUTED_CYCLES: &str = "sys.executed_cycles";
/// Whole-system dropped-writeback gauge.
pub const SYS_DROPPED_WRITEBACKS: &str = "sys.dropped_writebacks";

/// LLC hits counter for application `i`.
#[must_use]
pub fn llc_app_hits(i: usize) -> String {
    format!("llc.app{i}.hits")
}

/// LLC misses counter for application `i`.
#[must_use]
pub fn llc_app_misses(i: usize) -> String {
    format!("llc.app{i}.misses")
}

/// Cross-application LLC evictions caused by application `i`.
#[must_use]
pub fn llc_app_evictions_caused(i: usize) -> String {
    format!("llc.app{i}.evictions_caused")
}

/// Estimated-slowdown series for application `i`.
#[must_use]
pub fn app_est_slowdown(i: usize) -> String {
    format!("app{i}.est_slowdown")
}

/// Actual-slowdown series for application `i` (runner-joined).
#[must_use]
pub fn app_actual_slowdown(i: usize) -> String {
    format!("app{i}.actual_slowdown")
}

/// Shared-run cache-access-rate series for application `i`.
#[must_use]
pub fn app_car_shared(i: usize) -> String {
    format!("app{i}.car_shared")
}

/// Alone-run cache-access-rate series for application `i`.
#[must_use]
pub fn app_car_alone(i: usize) -> String {
    format!("app{i}.car_alone")
}

/// ATS miss-rate series for application `i`.
#[must_use]
pub fn app_ats_miss_rate(i: usize) -> String {
    format!("app{i}.ats_miss_rate")
}

/// Per-quantum interference-cycle series for application `i`.
#[must_use]
pub fn app_interference_cycles(i: usize) -> String {
    format!("app{i}.interference_cycles")
}

/// Reorder-buffer stall-episode gauge for core `i`.
#[must_use]
pub fn core_rob_stalls(i: usize) -> String {
    format!("core{i}.rob_stalls")
}

/// Retired-instruction gauge for core `i`.
#[must_use]
pub fn core_retired(i: usize) -> String {
    format!("core{i}.retired")
}

/// Issued-memory-operation gauge for core `i`.
#[must_use]
pub fn core_mem_ops(i: usize) -> String {
    format!("core{i}.mem_ops")
}

/// Row-hit gauge for channel `ch`, bank `b`.
#[must_use]
pub fn dram_bank_row_hits(ch: usize, b: usize) -> String {
    format!("dram.ch{ch}.bank{b}.row_hits")
}

/// Row-miss gauge for channel `ch`, bank `b`.
#[must_use]
pub fn dram_bank_row_misses(ch: usize, b: usize) -> String {
    format!("dram.ch{ch}.bank{b}.row_misses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compose_the_documented_scheme() {
        assert_eq!(llc_app_hits(3), "llc.app3.hits");
        assert_eq!(app_est_slowdown(0), "app0.est_slowdown");
        assert_eq!(dram_bank_row_hits(1, 7), "dram.ch1.bank7.row_hits");
    }
}
