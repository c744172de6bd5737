#![warn(missing_docs)]
//! Synthetic workloads for the ASM reproduction.
//!
//! The paper evaluates on SPEC CPU2006 and NAS Parallel Benchmark
//! applications (plus TPC-C and YCSB database workloads), traced with Pin.
//! We substitute deterministic synthetic profiles — one per paper benchmark
//! — whose parameters (memory intensity, working-set size, hot-set reuse,
//! sequential-burst length, MLP) place them in the same region of behaviour
//! space as published characterisations of those benchmarks. `DESIGN.md`
//! documents why this substitution preserves the evaluation's shape.
//!
//! - [`suite`]: the named profiles (`mcf_like`, `libquantum_like`, …).
//! - [`mix`]: random multi-programmed workload construction (§5:
//!   "We construct workloads with varying memory intensity, randomly
//!   choosing applications for each workload").
//! - [`hog`]: the configurable memory-bandwidth/cache-capacity hog of the
//!   Figure 1 experiment.
//!
//! # Examples
//!
//! ```
//! use asm_workloads::{mix, suite};
//!
//! let all = suite::all();
//! assert!(all.len() > 30);
//! let workloads = mix::random_mixes(5, 4, 42);
//! assert_eq!(workloads.len(), 5);
//! assert_eq!(workloads[0].len(), 4);
//! ```

pub mod hog;
pub mod mix;
pub mod suite;

pub use hog::hog_profile;
pub use mix::binned_mixes;
