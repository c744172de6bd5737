//! The auxiliary tag store (ATS).
//!
//! One ATS per application tracks the tag state the shared cache *would*
//! have if that application ran alone (§3.2). ASM uses it to count
//! contention misses in aggregate; PTCA uses it per-request; ASM-Cache and
//! UCP additionally use its per-recency-position hit counters to predict
//! hits under any way allocation (§7.1: `quantum-hits_n` "can be directly
//! obtained from the auxiliary tag store").
//!
//! To bound hardware cost the ATS can be *set-sampled* (§4.4): only every
//! `sets / sampled_sets`-th set keeps tags, and observed hit/miss fractions
//! are scaled to the full access count by the estimator.
//!
//! # Memory layout
//!
//! Like [`crate::SetAssocCache`], the tag state is a flat
//! structure-of-arrays arena (DESIGN.md §8 "Tag-store memory layout"): one
//! contiguous `Box<[u64]>` of tags and one recency-rank byte per line
//! (0 = MRU; `0xFF` marks an empty way), way `w` of sampled set `s` at
//! flat index `s * ways + w`. The ATS carries no owner or dirty state —
//! it mirrors a single application's alone-run cache — so ranks alone
//! replace the per-set `Vec<u64>` stacks, and a hit renumbers a few rank
//! bytes instead of memmoving the stack.

use asm_simcore::LineAddr;

use crate::geometry::CacheGeometry;
use crate::scan::{by_ways, bump_ranks_below, find_way, first_byte_match, ways_of, NO_RANK};

/// Result of an ATS lookup for a sampled set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtsOutcome {
    /// Whether the line would have hit had the application run alone.
    pub hit: bool,
    /// On a hit, the LRU-stack position (0 = MRU). Position `p` means the
    /// access would hit with any allocation of at least `p + 1` ways.
    pub recency: Option<usize>,
}

/// A per-application auxiliary tag store, optionally set-sampled.
///
/// # Examples
///
/// ```
/// use asm_cache::{AuxiliaryTagStore, CacheGeometry};
/// use asm_simcore::LineAddr;
///
/// let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(64, 4), None);
/// let line = LineAddr::new(7);
/// let first = ats.access(line).unwrap();
/// assert!(!first.hit);
/// let second = ats.access(line).unwrap();
/// assert!(second.hit);
/// assert_eq!(second.recency, Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct AuxiliaryTagStore {
    geometry: CacheGeometry,
    /// Distance between sampled sets (1 = full ATS). Always a power of
    /// two: the set count is one (geometry invariant) and the sampled
    /// count divides it.
    stride: usize,
    /// `log2(stride)`, so the sampled-set index is a shift, not a divide.
    stride_shift: u32,
    /// `stride - 1`, so the "is this set sampled?" test is a mask, not a
    /// remainder. Both run on every shared-cache access for every
    /// application's ATS.
    stride_mask: usize,
    /// Tags for sampled sets, way `w` of sampled set `s` at `s * ways + w`.
    tags: Box<[u64]>,
    /// Recency rank per line (0 = MRU, [`NO_RANK`] = empty way).
    rank: Box<[u8]>,
    /// Valid lines per sampled set.
    fill: Box<[u8]>,
    /// Number of sampled sets.
    sampled: usize,
    /// Hits observed at each recency position since the last reset.
    position_hits: Vec<u64>,
    misses: u64,
    sampled_accesses: u64,
}

impl AuxiliaryTagStore {
    /// Creates an ATS mirroring a shared cache of shape `geometry`.
    ///
    /// `sampled_sets = None` keeps tags for every set (the "unsampled"
    /// configurations of Figures 2/6a); `Some(n)` keeps tags for `n` evenly
    /// spaced sets (the paper's default is 64).
    ///
    /// # Panics
    ///
    /// Panics if `sampled_sets` is zero, exceeds the set count, or does not
    /// divide it evenly, or if the associativity exceeds 255 (ranks are
    /// single bytes).
    #[must_use]
    pub fn new(geometry: CacheGeometry, sampled_sets: Option<usize>) -> Self {
        let sampled = sampled_sets.unwrap_or(geometry.sets());
        assert!(sampled > 0, "must sample at least one set");
        assert!(
            sampled <= geometry.sets() && geometry.sets().is_multiple_of(sampled),
            "sampled set count {sampled} must evenly divide total sets {}",
            geometry.sets()
        );
        assert!(
            geometry.ways() <= usize::from(u8::MAX),
            "associativity above 255 does not fit the rank-byte encoding"
        );
        let stride = geometry.sets() / sampled;
        debug_assert!(stride.is_power_of_two(), "power-of-two sets imply this");
        let lines = sampled * geometry.ways();
        AuxiliaryTagStore {
            geometry,
            stride,
            stride_shift: stride.trailing_zeros(),
            stride_mask: stride - 1,
            tags: vec![0; lines].into_boxed_slice(),
            rank: vec![NO_RANK; lines].into_boxed_slice(),
            fill: vec![0; sampled].into_boxed_slice(),
            sampled,
            position_hits: vec![0; geometry.ways()],
            misses: 0,
            sampled_accesses: 0,
        }
    }

    /// Returns the mirrored cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Returns the number of sampled sets.
    #[must_use]
    pub fn sampled_sets(&self) -> usize {
        self.sampled
    }

    /// Returns `total sets / sampled sets` — the factor by which sampled
    /// counts under-represent the full cache.
    #[must_use]
    pub fn sampling_factor(&self) -> f64 {
        self.stride as f64
    }

    /// Whether this ATS keeps tags for the set `line` maps to.
    #[inline]
    #[must_use]
    pub fn samples_line(&self, line: LineAddr) -> bool {
        self.geometry.set_index(line) & self.stride_mask == 0
    }

    /// Simulates the alone-run cache access for `line`.
    ///
    /// Returns `None` if the line's set is not sampled; otherwise the
    /// would-have-been outcome, updating the ATS LRU state and counters.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> Option<AtsOutcome> {
        self.update(line, true)
    }

    /// Updates the ATS tag state for `line` *without* touching the
    /// hit/miss counters — used for prefetch fills, which the alone run
    /// would also perform but which are not demand accesses.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> Option<AtsOutcome> {
        self.update(line, false)
    }

    #[inline]
    fn update(&mut self, line: LineAddr, count: bool) -> Option<AtsOutcome> {
        by_ways!(self, update_w(line, count))
    }

    #[inline]
    fn update_w<const W: usize>(&mut self, line: LineAddr, count: bool) -> Option<AtsOutcome> {
        let set_idx = self.geometry.set_index(line);
        if set_idx & self.stride_mask != 0 {
            return None;
        }
        let tag = self.geometry.tag(line);
        let ways = ways_of::<W>(self.geometry);
        let sampled_idx = set_idx >> self.stride_shift;
        let base = sampled_idx * ways;
        self.sampled_accesses += u64::from(count);

        let found = find_way::<W>(
            &self.tags[base..base + ways],
            &self.rank[base..base + ways],
            tag,
        );
        if let Some(w) = found {
            // Hit: promote to MRU by renumbering ranks. Re-touching the
            // MRU line skips the renumbering (bumping below rank 0 is a
            // no-op).
            let i = base + w;
            let pos = self.rank[i];
            if pos != 0 {
                bump_ranks_below(&mut self.rank[base..base + ways], pos);
                self.rank[i] = 0;
            }
            if count {
                self.position_hits[usize::from(pos)] += 1;
            }
            return Some(AtsOutcome {
                hit: true,
                recency: Some(usize::from(pos)),
            });
        }

        // Miss: fill at MRU, evicting the LRU line if the set is full. A
        // full set's ranks are a permutation of 0..ways, so the LRU line
        // is exactly the one at rank `ways - 1` — a single byte search.
        let (slot, evicted_rank) = if usize::from(self.fill[sampled_idx]) >= ways {
            let lru = (ways - 1) as u8;
            (
                base + first_byte_match::<W>(&self.rank[base..base + ways], lru),
                lru,
            )
        } else {
            self.fill[sampled_idx] += 1;
            (
                base + first_byte_match::<W>(&self.rank[base..base + ways], NO_RANK),
                NO_RANK,
            )
        };
        bump_ranks_below(&mut self.rank[base..base + ways], evicted_rank);
        self.tags[slot] = tag;
        self.rank[slot] = 0;
        self.misses += u64::from(count);
        Some(AtsOutcome {
            hit: false,
            recency: None,
        })
    }

    /// Sampled hits since the last [`reset_counters`](Self::reset_counters).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.position_hits.iter().sum()
    }

    /// Sampled misses since the last reset.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Sampled accesses since the last reset.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// Hits observed at each recency position since the last reset.
    /// `position_hits()[p]` hits would become misses with fewer than `p + 1`
    /// ways.
    #[must_use]
    pub fn position_hits(&self) -> &[u64] {
        &self.position_hits
    }

    /// Number of sampled accesses that would hit with an `n`-way allocation:
    /// the sum of hits at recency positions `< n` (the UCP utility curve).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the associativity.
    #[must_use]
    pub fn hits_with_ways(&self, n: usize) -> u64 {
        assert!(
            n <= self.geometry.ways(),
            "allocation exceeds associativity"
        );
        self.position_hits[..n].iter().sum()
    }

    /// Clears the epoch/quantum counters (tag state is preserved — the
    /// hypothetical alone cache stays warm across quanta).
    pub fn reset_counters(&mut self) {
        self.position_hits.fill(0);
        self.misses = 0;
        self.sampled_accesses = 0;
    }
}

// Hypothetical-alone tags, recency ranks, set fills and the sample
// counters; geometry and sampling stride are structural.
asm_simcore::persist_fields!(AuxiliaryTagStore {
    tags,
    rank,
    fill,
    [position_hits],
    misses,
    sampled_accesses,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_ats_samples_everything() {
        let ats = AuxiliaryTagStore::new(CacheGeometry::new(8, 2), None);
        for i in 0..32 {
            assert!(ats.samples_line(LineAddr::new(i)));
        }
    }

    #[test]
    fn sampled_ats_covers_fraction_of_sets() {
        let ats = AuxiliaryTagStore::new(CacheGeometry::new(64, 4), Some(16));
        assert_eq!(ats.sampling_factor(), 4.0);
        let sampled = (0..64)
            .filter(|&s| ats.samples_line(LineAddr::new(s)))
            .count();
        assert_eq!(sampled, 16);
    }

    #[test]
    fn sampled_sets_are_evenly_strided() {
        // The sampled sets are exactly the multiples of the stride — the
        // selection rule must survive any layout change, because the
        // estimators scale sampled counts assuming even coverage.
        let ats = AuxiliaryTagStore::new(CacheGeometry::new(128, 4), Some(32));
        assert_eq!(ats.sampled_sets(), 32);
        for s in 0..128u64 {
            assert_eq!(
                ats.samples_line(LineAddr::new(s)),
                s.is_multiple_of(4),
                "set {s}"
            );
        }
    }

    #[test]
    fn unsampled_set_returns_none() {
        let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(64, 4), Some(16));
        assert!(ats.access(LineAddr::new(1)).is_none());
        assert!(ats.access(LineAddr::new(0)).is_some());
        assert_eq!(ats.accesses(), 1);
    }

    #[test]
    fn lru_behaviour_matches_alone_cache() {
        let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(4, 2), None);
        let l = |k: u64| LineAddr::new(k * 4); // all map to set 0
        ats.access(l(0));
        ats.access(l(1));
        ats.access(l(2)); // evicts l(0)
        assert!(!ats.access(l(0)).unwrap().hit);
    }

    #[test]
    fn eviction_order_is_exact_lru() {
        // Fill a 4-way set, reorder it with a touch, then overflow: the
        // eviction must take exactly the LRU line, and every survivor must
        // report the exact stack position the reordering implies.
        let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(4, 4), None);
        let l = |k: u64| LineAddr::new(k * 4);
        for k in 0..4 {
            ats.access(l(k));
        }
        // Stack (MRU..LRU): 3 2 1 0. Touch 1 → 1 3 2 0.
        assert_eq!(ats.access(l(1)).unwrap().recency, Some(2));
        // Overflow evicts the LRU (0) → 4 1 3 2.
        assert!(!ats.access(l(4)).unwrap().hit);
        // Survivors sit exactly where the stack says they do.
        assert_eq!(ats.access(l(1)).unwrap().recency, Some(1)); // 1 4 3 2
        assert_eq!(ats.access(l(3)).unwrap().recency, Some(2)); // 3 1 4 2
        assert_eq!(ats.access(l(2)).unwrap().recency, Some(3)); // 2 3 1 4
        // And the victim really was 0, not any of the survivors.
        assert!(!ats.access(l(0)).unwrap().hit);
    }

    #[test]
    fn position_hits_build_utility_curve() {
        let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(4, 4), None);
        let l = |k: u64| LineAddr::new(k * 4);
        // Fill 4 lines, then hit them at controlled positions.
        for k in 0..4 {
            ats.access(l(k));
        }
        ats.access(l(3)); // MRU hit, position 0
        ats.access(l(0)); // was LRU, position 3
        assert_eq!(ats.hits_with_ways(1), 1);
        assert_eq!(ats.hits_with_ways(4), 2);
        assert_eq!(ats.misses(), 4);
        assert_eq!(ats.accesses(), 6);
    }

    #[test]
    fn reset_preserves_tags_but_clears_counts() {
        let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(4, 2), None);
        let line = LineAddr::new(5);
        ats.access(line);
        ats.reset_counters();
        assert_eq!(ats.accesses(), 0);
        assert_eq!(ats.misses(), 0);
        // The tag survives the reset: this is still a hit.
        assert!(ats.access(line).unwrap().hit);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn rejects_non_dividing_sample_count() {
        let _ = AuxiliaryTagStore::new(CacheGeometry::new(64, 4), Some(48));
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut ats = AuxiliaryTagStore::new(CacheGeometry::new(16, 4), None);
        let mut rng = asm_simcore::SimRng::seed_from(1);
        for _ in 0..1000 {
            ats.access(LineAddr::new(rng.gen_range(128)));
        }
        assert_eq!(ats.hits() + ats.misses(), ats.accesses());
    }
}
