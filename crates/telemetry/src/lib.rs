#![warn(missing_docs)]
//! Deterministic observability for the ASM reproduction.
//!
//! Telemetry is a *view*, not a store: the simulator keeps a record per
//! quantum, lifetime cache totals and component gauges whether or not
//! anyone is watching, and renders them under the names in [`names`] when
//! `asm_core::System::take_telemetry` is called. The attribution ledger is
//! not part of the view; the harness's run report (schema
//! `asm-report/1`) sets it beside the view's counters and series. This
//! crate holds what the view is made of, all keyed on *simulation* cycles
//! only (no wall clock):
//!
//! - [`names`]: the one list of counter, gauge and series names.
//! - [`SeriesSet`]: a plain ordered `name → samples` container for the
//!   rendered per-quantum series — estimated vs. actual slowdown,
//!   `CAR_alone`/`CAR_shared`, ATS-sampled miss rates, per-app
//!   bank-level interference cycles.
//! - [`Tracer`]: a sim-time event tracer that renders to Chrome
//!   trace-event JSON (viewable in Perfetto / `chrome://tracing`), with
//!   simulation cycles reported as microseconds — the one instrument that
//!   records something the simulator does not keep anyway, and so the one
//!   thing `enable_telemetry` switches.
//!
//! The [`json`] module is a dependency-free JSON value model with a
//! writer and a strict recursive-descent parser; everything this crate
//! exports, and the run report, serialises through it (no serde in the
//! workspace).

pub mod json;
pub mod names;
pub mod series;
pub mod trace;

pub use json::JsonValue;
pub use series::SeriesSet;
pub use trace::{TraceEvent, Tracer};

/// Default cap on buffered trace events; beyond it events are counted as
/// dropped rather than stored (the cap keeps full-scale traced runs
/// bounded in memory).
pub const DEFAULT_TRACE_LIMIT: usize = 1 << 20;
