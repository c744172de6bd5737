#![warn(missing_docs)]
//! Core model and synthetic workload generation for the ASM reproduction.
//!
//! The paper drives its evaluation with Pin traces of SPEC CPU2006 / NAS
//! benchmarks through an in-house out-of-order core simulator. We rebuild
//! the equivalent substrate:
//!
//! - [`AppProfile`]: a parameterised synthetic application (memory
//!   intensity, working-set size, spatial locality, hot-set reuse, MLP) —
//!   the substitution for Pin traces documented in `DESIGN.md`.
//! - [`AddressStream`]: the deterministic address generator realising a
//!   profile.
//! - [`Core`]: a 128-entry-window, 3-wide out-of-order core (Table 2) with
//!   in-order retirement and overlapping misses — the property that makes
//!   per-request interference accounting inaccurate (§2.2) and that ASM's
//!   aggregate accounting handles.
//! - [`StridePrefetcher`]: the degree-4 / distance-24 stride prefetcher of
//!   the Figure 5 experiment.
//! - [`ProgressLog`]: per-instruction-milestone cycle records from *alone*
//!   runs, used to compute ground-truth slowdowns for the same amount of
//!   work (§5, Metrics).
//!
//! # Examples
//!
//! ```
//! use asm_cpu::{AppProfile, Core, MemIssueResult};
//! use asm_simcore::AppId;
//!
//! let profile = AppProfile::builder("toy").mem_per_kilo(50).build();
//! let mut core = Core::new(AppId::new(0), &profile, 1);
//! // Service every access with a fixed 10-cycle latency.
//! for now in 0..1_000 {
//!     core.tick(now, &mut |_line, _write| MemIssueResult::Completed(now + 10));
//! }
//! assert!(core.retired() > 0);
//! ```

pub mod appmodel;
pub mod core;
pub mod prefetch;
pub mod progress;
pub mod source;
pub mod stream;

pub use appmodel::{AppProfile, AppProfileBuilder};
pub use core::{AdvanceObserver, Core, MemIssueResult};
pub use prefetch::StridePrefetcher;
pub use progress::ProgressLog;
pub use source::{AccessSource, TraceSource};
pub use stream::AddressStream;
