#![warn(missing_docs)]
//! Cache substrate for the ASM reproduction.
//!
//! This crate provides every cache-side structure the paper's evaluation
//! depends on:
//!
//! - [`SetAssocCache`]: a set-associative cache with true-LRU replacement,
//!   per-application ownership tracking, and optional way partitioning with
//!   UCP-style replacement enforcement — used for both the private L1s and
//!   the shared last-level cache (Table 2).
//! - [`AuxiliaryTagStore`]: the per-application auxiliary tag store (ATS) of
//!   §3.2/§4.2 that tracks the state the shared cache *would* have had if
//!   the application ran alone. Supports full coverage or set sampling
//!   (§4.4), and maintains per-recency-position hit counters, which give the
//!   hit curves used by UCP and ASM-Cache (§7.1).
//! - [`PollutionFilter`]: the Bloom-filter pollution filter FST uses to
//!   identify contention misses (§2.1).
//! - [`lookahead_partition`]: the Utility-based Cache Partitioning
//!   look-ahead allocation algorithm, generic over the utility curve so it
//!   serves both UCP (miss utility) and ASM-Cache (slowdown utility).
//!
//! # Examples
//!
//! ```
//! use asm_cache::{CacheGeometry, SetAssocCache};
//! use asm_simcore::{AppId, LineAddr};
//!
//! let geom = CacheGeometry::new(64, 4);
//! let mut cache = SetAssocCache::new(geom, 2);
//! let app = AppId::new(0);
//! let line = LineAddr::new(0x100);
//! assert!(!cache.access(line, app, false).hit); // cold miss
//! assert!(cache.access(line, app, false).hit); // now resident
//! ```

pub mod ats;
pub mod geometry;
pub mod partition;
pub mod pollution;
pub(crate) mod scan;
pub mod set_assoc;

pub use ats::{AtsOutcome, AuxiliaryTagStore};
pub use geometry::CacheGeometry;
pub use partition::{lookahead_partition, BenefitCurves, WayPartition};
pub use pollution::PollutionFilter;
pub use set_assoc::{AccessOutcome, EvictedLine, LineRef, ResidentLine, SetAssocCache};
