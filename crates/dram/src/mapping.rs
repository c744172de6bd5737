//! Physical address → (channel, bank, row, column) mapping.
//!
//! The mapping interleaves consecutive cache lines within a DRAM row
//! (preserving row-buffer locality for streaming access), then spreads rows
//! across channels and banks:
//!
//! ```text
//! line address bits:  [ row | bank | channel | column ]
//! ```
//!
//! With 8 KB rows and 64 B lines, a row holds 128 lines (7 column bits).

use asm_simcore::LineAddr;

/// Where a cache line lives in the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Loc {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel's single rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line offset within the row).
    pub col: u64,
}

/// Decodes line addresses into DRAM coordinates.
///
/// # Examples
///
/// ```
/// use asm_dram::mapping::AddressMapping;
/// use asm_simcore::LineAddr;
///
/// let m = AddressMapping::new(1, 8, 128);
/// let a = m.decode(LineAddr::new(0));
/// let b = m.decode(LineAddr::new(1));
/// // Consecutive lines share a row (streaming gets row-buffer hits).
/// assert_eq!(a.row, b.row);
/// assert_eq!(a.bank, b.bank);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    channels: usize,
    banks: usize,
    row_lines: u64,
}

impl AddressMapping {
    /// Creates a mapping for `channels` channels, `banks` banks per channel
    /// and `row_lines` cache lines per row (8 KB row / 64 B line = 128).
    ///
    /// # Panics
    ///
    /// Panics unless `channels`, `banks` and `row_lines` are powers of two.
    #[must_use]
    pub fn new(channels: usize, banks: usize, row_lines: u64) -> Self {
        assert!(
            channels.is_power_of_two(),
            "channels must be a power of two"
        );
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        assert!(
            row_lines.is_power_of_two(),
            "row_lines must be a power of two"
        );
        AddressMapping {
            channels,
            banks,
            row_lines,
        }
    }

    /// Decodes a line address into its DRAM location.
    #[inline]
    #[must_use]
    pub fn decode(&self, line: LineAddr) -> Loc {
        let mut a = line.raw();
        let col = a & (self.row_lines - 1);
        a >>= self.row_lines.trailing_zeros();
        let channel = (a as usize) & (self.channels - 1);
        a >>= self.channels.trailing_zeros();
        let bank = (a as usize) & (self.banks - 1);
        a >>= self.banks.trailing_zeros();
        Loc {
            channel,
            bank,
            row: a,
            col,
        }
    }
}

impl Default for AddressMapping {
    /// The paper's main configuration: 1 channel, 8 banks, 8 KB rows.
    fn default() -> Self {
        AddressMapping::new(1, 8, 128)
    }
}

asm_simcore::persist_fields!(Loc { channel, bank, row, col });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_within_row_is_row_hit_friendly() {
        let m = AddressMapping::default();
        let base = m.decode(LineAddr::new(0));
        for i in 1..128 {
            let l = m.decode(LineAddr::new(i));
            assert_eq!(l.row, base.row);
            assert_eq!(l.bank, base.bank);
            assert_eq!(l.col, i);
        }
        // Crossing the row boundary moves to another bank.
        let next = m.decode(LineAddr::new(128));
        assert!(next.bank != base.bank || next.row != base.row);
    }

    #[test]
    fn channels_interleave_at_row_granularity() {
        let m = AddressMapping::new(2, 8, 128);
        let a = m.decode(LineAddr::new(0));
        let b = m.decode(LineAddr::new(128));
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
    }

    #[test]
    fn decode_is_injective_over_a_window() {
        let m = AddressMapping::new(2, 8, 128);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let loc = m.decode(LineAddr::new(i));
            assert!(seen.insert((loc.channel, loc.bank, loc.row, loc.col)));
        }
    }

    #[test]
    fn bank_spread_covers_all_banks() {
        let m = AddressMapping::default();
        let banks: std::collections::HashSet<_> = (0..64u64)
            .map(|r| m.decode(LineAddr::new(r * 128)).bank)
            .collect();
        assert_eq!(banks.len(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = AddressMapping::new(3, 8, 128);
    }
}
