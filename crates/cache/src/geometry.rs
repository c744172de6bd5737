//! Cache geometry: number of sets and ways, and the set-index mapping.

use asm_simcore::{LineAddr, LINE_BYTES};

/// The shape of a set-associative cache: `sets × ways` lines of 64 bytes.
///
/// # Examples
///
/// ```
/// use asm_cache::CacheGeometry;
/// // The paper's main shared cache: 2 MB, 16-way (Table 2).
/// let llc = CacheGeometry::from_capacity(2 * 1024 * 1024, 16);
/// assert_eq!(llc.sets(), 2048);
/// assert_eq!(llc.ways(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: usize,
    ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry with the given number of sets and ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or if `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be positive");
        CacheGeometry { sets, ways }
    }

    /// Creates a geometry from a capacity in bytes and an associativity,
    /// assuming 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is zero or not a power of two.
    #[must_use]
    pub fn from_capacity(capacity_bytes: u64, ways: usize) -> Self {
        let lines = capacity_bytes / LINE_BYTES;
        let sets = (lines as usize) / ways;
        Self::new(sets, ways)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Maps a line address to its set index (low-order line bits).
    #[inline]
    #[must_use]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    /// Returns the tag stored for `line` (the bits above the set index).
    #[inline]
    #[must_use]
    pub fn tag(&self, line: LineAddr) -> u64 {
        line.raw() >> self.sets.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_geometry_matches_table2() {
        // 64 KB, 4-way, 64 B lines -> 256 sets.
        let g = CacheGeometry::from_capacity(64 * 1024, 4);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.ways(), 4);
    }

    #[test]
    fn set_index_wraps_over_sets() {
        let g = CacheGeometry::new(16, 2);
        assert_eq!(g.set_index(LineAddr::new(5)), 5);
        assert_eq!(g.set_index(LineAddr::new(16 + 5)), 5);
    }

    #[test]
    fn tag_distinguishes_same_set_lines() {
        let g = CacheGeometry::new(16, 2);
        let a = LineAddr::new(5);
        let b = LineAddr::new(16 + 5);
        assert_eq!(g.set_index(a), g.set_index(b));
        assert_ne!(g.tag(a), g.tag(b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(100, 4);
    }

    #[test]
    fn capacity_round_trips() {
        for (cap, ways) in [(1u64 << 20, 16), (2 << 20, 16), (4 << 20, 16)] {
            let g = CacheGeometry::from_capacity(cap, ways);
            assert_eq!((g.sets() * g.ways()) as u64 * LINE_BYTES, cap);
        }
    }
}
