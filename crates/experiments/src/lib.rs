//! Experiment harness regenerating every table and figure of the ASM
//! paper's evaluation (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results).
//!
//! Run via the `asm-experiments` binary: `asm-experiments <experiment>
//! [options]`, where `<experiment>` is a row of [`exps::TABLE`]
//! (`asm-experiments` with no arguments lists them, and the options).
//!
//! One [`Session`] owns what an invocation's campaigns share. Every
//! Runner-driven experiment is a campaign: it builds a flat list of
//! [`plan::PlannedRun`]s and [`plan::run_campaign_in`] evaluates them on
//! `--jobs` worker threads (the ordered [`pool`]), simulating every
//! stretch of trajectory its members share once and returning results in
//! submission order — so every table and CSV is byte-identical for any
//! `--jobs` value, and `--checkpoint-dir` / `--resume` persist the work
//! of any experiment across invocations (DESIGN.md §11).

pub mod analytic;
pub mod collect;
pub mod exps;
pub mod plan;
pub mod pool;
pub mod sampled;
pub mod scale;
pub mod session;
pub mod sink;

pub use scale::{Scale, Tier};
pub use session::Session;
