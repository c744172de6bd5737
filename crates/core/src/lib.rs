#![warn(missing_docs)]
//! The Application Slowdown Model (ASM) — the paper's primary contribution
//! — together with the full-system simulator it runs in, the prior-work
//! estimators it is compared against, and the resource-management
//! mechanisms built on top of it.
//!
//! # What this crate contains
//!
//! - [`System`]: a cycle-level multi-core system — out-of-order cores,
//!   private L1s, a shared LLC, auxiliary tag stores, pollution filters,
//!   an optional stride prefetcher, and the DDR3 memory system — driven
//!   one cycle at a time with quantum/epoch machinery (§4).
//! - [`estimator`]: the slowdown estimators, held as one closed bank
//!   ([`estimator::Estimators`]). [`estimator::AsmEstimator`] implements
//!   the paper's model (Table 1 counters, the `CAR_alone` formula of §4.2,
//!   the queueing correction of §4.3 and the ATS sampling of §4.4);
//!   [`estimator::PerRequestEstimator`] (FST and PTCA, one per-request
//!   model with two contention signals), [`estimator::MiseEstimator`] and
//!   [`estimator::StfmEstimator`] implement the prior work compared in §6.
//! - [`mech`]: the ASM use cases of §7 — slowdown-aware cache partitioning
//!   (ASM-Cache), slowdown-aware memory-bandwidth partitioning (ASM-Mem),
//!   soft slowdown guarantees (ASM-QoS) — plus the UCP and MCFQ baselines.
//! - [`runner`]: pairs shared runs with per-application alone runs to
//!   compute ground-truth slowdowns (`IPC_alone / IPC_shared` over the
//!   same work, §5) and produce the records every experiment consumes.
//! - [`checkpoint`]: deterministic system snapshots — fork one shared
//!   first-quantum warmup into every policy variant of a sweep, and
//!   resume interrupted campaigns — with byte-identical results either
//!   way (DESIGN.md §11).
//!
//! # Quick start
//!
//! ```
//! use asm_core::{Runner, SystemConfig};
//! use asm_workloads::suite;
//!
//! let mut config = SystemConfig::default();
//! config.quantum = 100_000; // scaled down for the doctest
//! config.epoch = 2_000;
//! let apps = vec![
//!     suite::by_name("mcf_like").unwrap(),
//!     suite::by_name("h264ref_like").unwrap(),
//! ];
//! let runner = Runner::new(config);
//! let result = runner.run(&apps, 200_000);
//! assert_eq!(result.quanta.len(), 2);
//! // Each quantum carries an ASM estimate and the measured slowdown.
//! let q = &result.quanta[0];
//! assert_eq!(q.estimates[0].0, "ASM");
//! assert_eq!(q.actual.len(), 2);
//! ```

pub mod checkpoint;
pub mod config;
pub mod estimator;
pub mod mech;
pub mod runner;
pub mod system;

pub use config::{
    CachePolicy, EpochAssignment, EstimatorSet, MemPolicy, PrefetchConfig, QosConfig, SystemConfig,
    ThrottlePolicy,
};
pub use asm_attrib::{Component, QuantumLedger, COMPONENTS};
pub use runner::{
    config_hash, AloneCache, QuantumResult, RunAttribution, RunOptions, RunResult, Runner,
};
pub use system::{AppSpec, AppSummary, QuantumRecord, RunTelemetry, System};
