//! The pollution filter used by FST to identify contention misses.
//!
//! Fairness via Source Throttling [Ebrahimi+, ASPLOS 2010] keeps one filter
//! per application recording the lines of that application evicted by
//! *other* applications. A later miss that hits in the filter is classified
//! as a contention miss. To keep hardware cost low the filter is a Bloom
//! filter (§2.1), which makes it approximate: small filters produce false
//! positives, which is one of the inaccuracy sources Figure 3 quantifies.

use asm_simcore::LineAddr;

/// A Bloom-filter pollution filter.
///
/// # Examples
///
/// ```
/// use asm_cache::PollutionFilter;
/// use asm_simcore::LineAddr;
///
/// let mut f = PollutionFilter::new(1024);
/// f.insert(LineAddr::new(42));
/// assert!(f.probably_contains(LineAddr::new(42)));
/// f.clear();
/// assert!(!f.probably_contains(LineAddr::new(42)));
/// ```
#[derive(Debug, Clone)]
pub struct PollutionFilter {
    bits: Box<[u64]>,
    mask: u64,
    inserted: u64,
}

/// Number of hash functions; two is the standard cheap choice.
const HASHES: u32 = 2;

impl PollutionFilter {
    /// Creates a filter with `bits` bits of state.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or not a power of two.
    #[must_use]
    pub fn new(bits: usize) -> Self {
        assert!(
            bits > 0 && bits.is_power_of_two(),
            "bits must be a power of two"
        );
        PollutionFilter {
            bits: vec![0; bits.div_ceil(64)].into_boxed_slice(),
            mask: bits as u64 - 1,
            inserted: 0,
        }
    }

    fn hash(line: LineAddr, salt: u64) -> u64 {
        // SplitMix64 finalizer over (line ^ salt).
        let mut z = line.raw() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Records that `line` was evicted by another application.
    pub fn insert(&mut self, line: LineAddr) {
        for salt in 0..u64::from(HASHES) {
            let bit = Self::hash(line, salt + 1) & self.mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Whether `line` may have been recorded. False positives are possible
    /// (more likely for small filters); false negatives are not.
    #[must_use]
    pub fn probably_contains(&self, line: LineAddr) -> bool {
        // Empty filter: every bit is zero, so skip the hashing. This is the
        // common case for non-thrashing applications, and the query sits on
        // the per-miss hot path.
        if self.inserted == 0 {
            return false;
        }
        (0..u64::from(HASHES)).all(|salt| {
            let bit = Self::hash(line, salt + 1) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Empties the filter (done periodically so stale evictions don't
    /// accumulate).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }
}

// Capacity is structural: the bit array restores in place.
asm_simcore::persist_fields!(PollutionFilter { bits, inserted });

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::SimRng;

    #[test]
    fn no_false_negatives() {
        let mut f = PollutionFilter::new(4096);
        let lines: Vec<_> = (0..200).map(|i| LineAddr::new(i * 37 + 5)).collect();
        for &l in &lines {
            f.insert(l);
        }
        for &l in &lines {
            assert!(f.probably_contains(l));
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = PollutionFilter::new(256);
        for i in 0..100 {
            assert!(!f.probably_contains(LineAddr::new(i)));
        }
    }

    #[test]
    fn small_filter_has_more_false_positives_than_large() {
        let mut rng = SimRng::seed_from(99);
        let inserted: Vec<_> = (0..500)
            .map(|_| LineAddr::new(rng.next_u64() >> 20))
            .collect();
        let probes: Vec<_> = (0..5_000)
            .map(|_| LineAddr::new(rng.next_u64() >> 20))
            .collect();

        let count_fp = |bits: usize| {
            let mut f = PollutionFilter::new(bits);
            for &l in &inserted {
                f.insert(l);
            }
            probes
                .iter()
                .filter(|l| !inserted.contains(l) && f.probably_contains(**l))
                .count()
        };

        let small = count_fp(512);
        let large = count_fp(1 << 16);
        assert!(
            small > large,
            "small filter ({small} fps) should be noisier than large ({large} fps)"
        );
    }

    #[test]
    fn clear_resets_state() {
        let mut f = PollutionFilter::new(256);
        f.insert(LineAddr::new(1));
        assert_eq!(f.inserted, 1);
        f.clear();
        assert_eq!(f.inserted, 0);
        assert!(!f.probably_contains(LineAddr::new(1)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = PollutionFilter::new(1000);
    }
}
