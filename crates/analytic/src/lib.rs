#![warn(missing_docs)]
//! Analytical fast tier: reuse-distance slowdown estimation.
//!
//! The cycle-accurate `System` in `asm-core` reproduces the paper's figures
//! but caps campaigns at tens of mixes. This crate is the second simulation
//! tier: it predicts per-application slowdowns, fairness and weighted
//! speedup for a mix in a fraction of a millisecond, with no per-cycle
//! event loop, by composing three analytical stages:
//!
//! 1. **Profile extraction** ([`profile`]): one deterministic pass per
//!    workload routes the synthetic address stream through a real private-L1
//!    model and records the *reuse-gap histogram* of the post-L1 (LLC)
//!    access stream — for each access, how many LLC accesses occurred since
//!    the previous touch of the same line. The histogram's tail function
//!    yields the *footprint curve* `u(n)` (expected distinct lines in a
//!    window of `n` accesses, Denning's working-set identity), the whole
//!    summary is cacheable on disk ([`store`], same versioned-header
//!    discipline as the cycle tier's `AloneCache`).
//! 2. **Shared-cache fixed point** ([`model`]): in a mix, application `i`'s
//!    access at reuse gap `g` hits iff the distinct lines inserted in
//!    between fit the cache: `Σ_j u_j(g · a_j / a_i) < C`, where `a_j` are
//!    the per-cycle LLC access rates (Che's approximation, extended to
//!    multiple streams as in the simso `CacheModel`). The critical gap is
//!    found by monotone bisection; the tail at the critical gap is the miss
//!    rate. Rates depend on CPI and CPI depends on miss rates, so the
//!    solver runs a damped fixed point with a *fixed* iteration count
//!    (determinism: no convergence epsilons, no float equality).
//! 3. **DRAM queueing approximation + ASM closed form** ([`model`]): miss
//!    traffic feeds an M/M/1-style queue built from the cycle tier's own
//!    [`asm_dram::TimingSpec`] (one source of truth for tRCD/tRP/CL/tBL and
//!    channel/bank geometry); the resulting per-app CPIs give
//!    CAR_alone/CAR_shared and the ASM slowdown `CAR_alone / CAR_shared`
//!    (Subramanian et al., MICRO 2015, §4).
//!
//! Everything is a pure function of the inputs: results are bitwise
//! deterministic, independent of worker count, and invariant under mix
//! permutation (all reductions iterate in a canonical profile-key order, so
//! a reordered mix produces bitwise-identical slowdowns for each app).
//!
//! # Examples
//!
//! ```
//! use asm_analytic::{AnalyticConfig, MixSolver, ProfileParams, ReuseProfile};
//! use asm_core::SystemConfig;
//! use asm_cpu::AppProfile;
//!
//! let params = ProfileParams::default();
//! let streaming = AppProfile::builder("stream")
//!     .mem_per_kilo(100)
//!     .working_set_lines(1 << 18)
//!     .seq_run(64)
//!     .build();
//! let p = ReuseProfile::extract(&streaming, &params);
//! let cfg = AnalyticConfig::from_system(&SystemConfig::default());
//! let mut solver = MixSolver::new(cfg);
//! let sol = solver.run(&[&p, &p]);
//! assert!(sol.slowdowns[0] >= 1.0); // two copies contend: each slows down
//! ```

pub mod model;
pub mod profile;
pub mod store;

pub use model::{AloneFit, AnalyticConfig, MixSolution, MixSolver, WorkloadClass};
pub use profile::{ProfileParams, ReuseProfile};
pub use store::ProfileStore;
