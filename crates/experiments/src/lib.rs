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
//! where `<experiment>` is one of `fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//! table3 mise db fig9 fig10 fig11 combined all`.
//!
//! Sweeps fan out across `--jobs` worker threads (default: one per core)
//! via [`pool::run_ordered`]; results merge in submission order, so every
//! table and CSV is byte-identical for any `--jobs` value. Policy sweeps
//! additionally route through [`plan::run_campaign`], which simulates
//! every stretch of trajectory its members share once — until their
//! boundary policies decide differently — (`--checkpoint-dir` /
//! `--resume` persist the work across invocations; DESIGN.md §11).

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
