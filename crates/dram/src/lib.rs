#![warn(missing_docs)]
//! Cycle-level DDR3 main-memory model for the ASM reproduction.
//!
//! Models the main-memory system of Table 2: DDR3-1333 (10-10-10) with 1-4
//! channels, 1 rank per channel, 8 banks per rank, 8 KB rows, a 128-entry
//! request buffer per controller, and FR-FCFS scheduling — plus the
//! application-aware baseline schedulers the paper compares against (PARBS,
//! TCM) and the *epoch priority* hook ASM/MISE rely on (§3.2 step 1: give
//! one application's requests the highest priority at the memory controller
//! for short periods of time).
//!
//! The model is request-level with full per-bank timing: each bank tracks
//! its open row and readiness; scheduling a request pays the row-hit /
//! row-closed / row-conflict latency (CL / tRCD+CL / tRP+tRCD+CL plus the
//! data burst), data bursts serialise on the per-channel data bus, and
//! activations respect tRRD and tFAW. Refresh is not modelled (it is
//! application-independent and cancels out of slowdown ratios).
//!
//! The controller also performs the interference accounting the estimators
//! need:
//! - per-application *memory interference cycles* (cycles during which a
//!   queued request waits on a bank busy serving another application) for
//!   FST/PTCA-style per-request accounting, and
//! - the §4.3 *queueing cycle* counter for the epoch-priority application.
//!
//! # Examples
//!
//! ```
//! use asm_dram::{DramConfig, MemRequest, MemorySystem, SchedulerKind};
//! use asm_simcore::{AppId, LineAddr};
//!
//! let mut mem = MemorySystem::new(DramConfig::default(), SchedulerKind::FrFcfs, 2);
//! mem.enqueue(MemRequest::read(0, LineAddr::new(64), AppId::new(0), 0)).unwrap();
//! let mut done = Vec::new();
//! for now in 0..2_000 {
//!     mem.tick(now, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! ```

pub mod accounting;
pub mod audit;
pub mod bank;
pub mod controller;
pub mod mapping;
pub mod request;
pub mod sched;
pub mod timing;

pub use controller::{DramConfig, MemorySystem};
pub use request::{Completion, MemRequest};
pub use sched::SchedulerKind;
pub use timing::TimingSpec;
