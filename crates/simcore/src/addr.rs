//! Cache-line addresses. The simulated machine uses 64-byte cache lines
//! throughout (Table 2 of the paper).

use std::fmt;

/// Cache-line size in bytes (64 B, per Table 2).
pub const LINE_BYTES: u64 = 64;

/// A cache-line-granularity address (byte address divided by the line size).
///
/// All caches, the auxiliary tag store, and the DRAM model operate on line
/// addresses; the byte offset never matters to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line number.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:0x{:x}", self.0)
    }
}
