#![warn(missing_docs)]
//! Shared vocabulary for the ASM (Application Slowdown Model) reproduction.
//!
//! This crate holds the primitive types every other crate in the workspace
//! speaks: application/core identifiers, cache-line addresses, simulation
//! cycles, a deterministic pseudo-random number generator (so whole-system
//! simulations are reproducible from a seed), and small statistics helpers
//! (counters, running means, histograms).
//!
//! # Examples
//!
//! ```
//! use asm_simcore::{AppId, LineAddr, rng::SimRng};
//!
//! let app = AppId::new(2);
//! let mut rng = SimRng::seed_from(0xA5A5);
//! let line = LineAddr::new(rng.next_u64() >> 10);
//! assert_eq!(app.index(), 2);
//! assert!(line.raw() < (1 << 54));
//! ```

pub mod addr;
pub mod hash;
pub mod ids;
pub mod persist;
pub mod rng;
pub mod stats;

pub use addr::{Addr, LineAddr, LINE_BYTES, LINE_SHIFT};
pub use hash::DetHashMap;
pub use ids::AppId;
pub use rng::SimRng;
pub use stats::{Histogram, RunningStats};

/// A simulation timestamp or duration, measured in core clock cycles.
///
/// The whole system (cores, caches, memory controller) is simulated on a
/// single clock domain, as in the paper's evaluation infrastructure; the
/// DRAM device's slower clock is expressed by scaling its timing parameters
/// into core cycles (see `asm-dram`).
pub type Cycle = u64;

/// What a core's reorder-buffer head is blocked on after a tick — the
/// per-cycle fact `asm-cpu` reports (`Core::head_stall`) and the only
/// input `asm-attrib`'s per-tick classifier needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum HeadStall {
    /// Retiring/fetching/issuing normally (also: source drained).
    #[default]
    Progress = 0,
    /// Head completes in the future: cache-hit latency.
    HitWait = 1,
    /// Head wants to issue but the memory system refused the access.
    Backpressure = 2,
    /// Head is an outstanding memory request; classified when it returns.
    MemStall = 3,
}
