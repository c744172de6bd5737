#![warn(missing_docs)]
//! Metrics for the ASM reproduction's evaluation.
//!
//! - [`slowdown`]: the paper's accuracy metric (§5):
//!   `|estimated − actual| / actual × 100%`, plus aggregation helpers.
//! - [`fairness`]: maximum slowdown (unfairness) and harmonic speedup
//!   (system performance), the metrics of Figures 9 and 10.
//! - [`dist`]: error-bucket distributions for Figure 4.
//! - [`chart`]: terminal bar charts for figure-style output.
//! - [`table`]: plain-text table rendering for the experiment harness.

pub mod approx;
pub mod chart;
pub mod dist;
pub mod fairness;
pub mod slowdown;
pub mod table;

pub use approx::{approx_eq, approx_eq_eps, approx_zero, EPSILON};
pub use chart::BarChart;
pub use dist::ErrorDistribution;
pub use fairness::{harmonic_speedup, max_slowdown};
pub use slowdown::{estimation_error_pct, ErrorAggregate, SlowdownSample};
pub use table::Table;
