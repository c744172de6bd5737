//! Experiment harness regenerating every table and figure of the ASM
//! paper's evaluation (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results).
//!
//! Run via the `asm-experiments` binary:
//!
//! ```text
//! asm-experiments <experiment> [--full|--tiny] [--workloads N]
//!                 [--cycles N] [--seed N] [--jobs N]
//! ```
//!
//! where `<experiment>` is a row of [`exps::TABLE`] (`asm-experiments`
//! with no arguments lists them).
//!
//! Every Runner-driven experiment is a campaign: it builds a flat list of
//! [`plan::PlannedRun`]s and [`plan::run_campaign`] evaluates them on
//! `--jobs` worker threads (the ordered [`pool`]), simulating every
//! stretch of trajectory its members share once and returning results in
//! submission order — so every table and CSV is byte-identical for any
//! `--jobs` value, and `--checkpoint-dir` / `--resume` persist the work
//! of any experiment across invocations (DESIGN.md §11).

pub mod analytic;
pub mod collect;
pub mod exps;
pub mod output;
pub mod plan;
pub mod pool;
pub mod sampled;
pub mod scale;
pub mod sink;

pub use scale::{Scale, Tier};
