//! Set-scan primitives shared by the flat tag stores.
//!
//! [`crate::SetAssocCache`] and [`crate::AuxiliaryTagStore`] keep each
//! set's tags and recency ranks in contiguous rows (DESIGN.md §8
//! "Tag-store memory layout"), so the two operations every access
//! performs — "which way holds this tag?" and "which way holds this
//! rank?" — are short fixed-width searches. These helpers compile them
//! to a handful of vector or SWAR instructions instead of scalar
//! byte/word loops; they run on the hottest paths in the simulator.

use crate::geometry::CacheGeometry;

/// Rank byte of an empty (invalid) way. Real ranks are `< ways ≤ 255`.
pub(crate) const NO_RANK: u8 = u8::MAX;

/// Resolves the way count for a `const W`-specialised hot path: `W == 0`
/// means "read it from the geometry" (the dynamic fallback); any other
/// value is a compile-time constant the optimiser unrolls and vectorises
/// the per-set loops against.
#[inline(always)]
pub(crate) fn ways_of<const W: usize>(geometry: CacheGeometry) -> usize {
    if W == 0 {
        geometry.ways()
    } else {
        debug_assert_eq!(geometry.ways(), W);
        W
    }
}

/// Dispatches a `const W`-generic method over the common associativities
/// (L1 = 4-way, LLC/ATS = 16-way, Table 2) so the per-set byte loops on
/// the hot paths compile to fixed-length, fully unrolled vector code
/// instead of paying runtime-length dispatch per call; anything else
/// takes the dynamic `W = 0` fallback. The match is one
/// perfectly-predicted branch (a tag store's way count never changes).
/// Works on any receiver with a `geometry: CacheGeometry` field.
macro_rules! by_ways {
    ($self:ident, $method:ident ( $($arg:expr),* )) => {
        match $self.geometry.ways() {
            4 => $self.$method::<4>($($arg),*),
            8 => $self.$method::<8>($($arg),*),
            16 => $self.$method::<16>($($arg),*),
            _ => $self.$method::<0>($($arg),*),
        }
    };
}
pub(crate) use by_ways;

/// Index of the first zero byte of `v` (little-endian byte order), or
/// `None`. The classic SWAR detector: bit 7 of `(b - 1) & !b` is set iff
/// byte `b` is zero, and the borrow cannot fabricate a set bit *below*
/// the first zero byte, so `trailing_zeros` lands on the first match.
#[inline(always)]
fn first_zero_byte(v: u64) -> Option<usize> {
    let z = v.wrapping_sub(0x0101_0101_0101_0101) & !v & 0x8080_8080_8080_8080;
    (z != 0).then(|| (z.trailing_zeros() / 8) as usize)
}

/// Index of the first byte of `ranks` equal to `needle`.
///
/// `W` is the compile-time way count (0 = dynamic): the 16- and 8-way
/// rows are searched as one or two registers with the SWAR zero-byte
/// trick, anything else by a branchless reverse fold. "First" keeps the
/// empty-way choice deterministic.
///
/// # Panics
///
/// Debug-asserts that a match exists (callers search for ranks the set
/// invariants guarantee: the LRU rank in a full set, [`NO_RANK`] in a
/// non-full one).
#[inline]
pub(crate) fn first_byte_match<const W: usize>(ranks: &[u8], needle: u8) -> usize {
    if W == 16 {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{
                __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8,
            };
            debug_assert_eq!(ranks.len(), 16);
            // SAFETY: SSE2 is part of the x86_64 baseline and the load
            // reads 16 bytes inside the length-checked slice. One compare
            // plus a movemask is fully branchless — the SWAR fallback
            // below branches on which 8-byte half holds the match, which
            // a victim search hits with data-dependent (mispredicted)
            // probability.
            let m = unsafe {
                let row = _mm_loadu_si128(ranks.as_ptr().cast::<__m128i>());
                let eq = _mm_cmpeq_epi8(row, _mm_set1_epi8(needle as i8));
                _mm_movemask_epi8(eq) as u32
            };
            debug_assert!(m != 0, "no way has rank {needle}");
            return m.trailing_zeros() as usize;
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let bytes: [u8; 16] = ranks
                .try_into()
                .expect("W = 16 callers pass a 16-way rank row");
            // SWAR byte scan over an in-memory rank row.
            let x = u128::from_le_bytes(bytes) ^ (u128::from(needle) * (u128::MAX / 0xFF));
            return match first_zero_byte(x as u64) {
                Some(w) => w,
                None => 8 + first_zero_byte((x >> 64) as u64).expect("no way has the rank"),
            };
        }
    }
    if W == 8 {
        let bytes: [u8; 8] = ranks
            .try_into()
            .expect("W = 8 callers pass an 8-way rank row");
        // SWAR byte scan over an in-memory rank row.
        let x = u64::from_le_bytes(bytes) ^ (u64::from(needle) * (u64::MAX / 0xFF));
        return first_zero_byte(x).expect("no way has the rank");
    }
    let mut found = usize::MAX;
    let mut w = ranks.len();
    while w > 0 {
        w -= 1;
        found = if ranks[w] == needle { w } else { found };
    }
    debug_assert!(found != usize::MAX, "no way has rank {needle}");
    found
}

/// Bumps every rank byte below `limit` one position deeper. Branch-free
/// (a `wrapping_add` of a bool compiles to vector compares) — this runs
/// on every hit, fill, and eviction. Empty ways carry [`NO_RANK`]
/// (= 255), which is never below a real rank and never reaches 255 via
/// the guarded add, so no validity check is needed; `limit == NO_RANK`
/// bumps every *valid* rank (the fill path).
#[inline]
pub(crate) fn bump_ranks_below(ranks: &mut [u8], limit: u8) {
    for r in ranks {
        *r = r.wrapping_add(u8::from(*r < limit));
    }
}

/// SSE2 tag search over a full 16-way set: the way index holding `tag`
/// with a valid rank, or `None`. One vector compare per tag pair plus one
/// byte compare over the rank row replaces a 16-iteration scalar loop on
/// the hottest path in the simulator (every cache access scans a set).
///
/// SSE2 has no 64-bit lane equality, so each `pcmpeqd` result is ANDed
/// with its half-swapped self (`shuffle 0xB1`): a 64-bit lane is all-ones
/// iff both 32-bit halves matched. Stale tags in empty ways are masked
/// out via the rank row ([`NO_RANK`] bytes), exactly like the scalar
/// path's validity check.
#[cfg(target_arch = "x86_64")]
#[inline]
fn find_way16_sse2(tags: &[u64], ranks: &[u8], tag: u64) -> Option<usize> {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_castsi128_pd, _mm_cmpeq_epi8, _mm_cmpeq_epi32,
        _mm_loadu_si128, _mm_movemask_epi8, _mm_movemask_pd, _mm_set1_epi8, _mm_set1_epi64x,
        _mm_shuffle_epi32,
    };
    debug_assert_eq!(tags.len(), 16);
    debug_assert_eq!(ranks.len(), 16);
    // SAFETY: SSE2 is part of the x86_64 baseline, and every unaligned
    // load reads 16 bytes inside the length-checked slices above.
    unsafe {
        let needle = _mm_set1_epi64x(tag as i64);
        let mut mask = 0u32;
        for j in 0..8 {
            let pair = _mm_loadu_si128(tags.as_ptr().add(2 * j).cast::<__m128i>());
            let eq32 = _mm_cmpeq_epi32(pair, needle);
            let eq64 = _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0b1011_0001));
            mask |= (_mm_movemask_pd(_mm_castsi128_pd(eq64)) as u32) << (2 * j);
        }
        let rank_row = _mm_loadu_si128(ranks.as_ptr().cast::<__m128i>());
        let empty = _mm_movemask_epi8(_mm_cmpeq_epi8(rank_row, _mm_set1_epi8(-1))) as u32;
        let hit = mask & !empty;
        // At most one valid way carries the tag, so the lowest set bit is
        // *the* match.
        (hit != 0).then(|| hit.trailing_zeros() as usize)
    }
}

/// The way index in a set whose tag row holds `tag` at a valid rank, or
/// `None`. `W` is the compile-time way count (0 = dynamic); the 16-way
/// shape takes the SSE2 path on x86_64, everything else a branchless
/// conditional-move fold (at most one valid way can match, so
/// accumulating the index beats an early-exit loop — misses scan the
/// whole set anyway, and hits skip the mispredicted exit branch).
#[inline]
pub(crate) fn find_way<const W: usize>(tags: &[u64], ranks: &[u8], tag: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if W == 16 {
        return find_way16_sse2(tags, ranks, tag);
    }
    let mut found = usize::MAX;
    for (w, (&t, &r)) in tags.iter().zip(ranks).enumerate() {
        let hit = (t == tag) & (r != NO_RANK);
        found = if hit { w } else { found };
    }
    (found != usize::MAX).then_some(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_byte_match_finds_first_of_duplicates() {
        let ranks = [7u8, 3, 9, 3, 1, 3, 0, 2, 4, 5, 6, 8, 10, 11, 12, 3];
        assert_eq!(first_byte_match::<16>(&ranks, 3), 1);
        assert_eq!(first_byte_match::<0>(&ranks, 3), 1);
        assert_eq!(first_byte_match::<16>(&ranks, 12), 14);
        let eight = [9u8, 9, 2, 9, 9, 9, 9, 2];
        assert_eq!(first_byte_match::<8>(&eight, 2), 2);
    }

    #[test]
    fn find_way_matches_scalar_reference() {
        // Cross-check of the SSE2 path against a scalar reference,
        // including stale duplicate tags in empty ways (tag uniqueness is
        // only guaranteed among *valid* ways — the cache invariant).
        let mut tags = [0u64; 16];
        let mut ranks = [NO_RANK; 16];
        for (w, t) in tags.iter_mut().enumerate() {
            *t = (w as u64) % 5; // duplicates land in invalid ways only
        }
        for valid in [0usize, 3, 7, 9] {
            ranks[valid] = valid as u8;
        }
        for probe in 0..6u64 {
            let scalar = tags
                .iter()
                .zip(&ranks)
                .position(|(&t, &r)| t == probe && r != NO_RANK);
            assert_eq!(find_way::<16>(&tags, &ranks, probe), scalar, "probe {probe}");
            assert_eq!(find_way::<0>(&tags, &ranks, probe), scalar, "probe {probe}");
        }
    }

    #[test]
    fn bump_only_touches_ranks_below_limit() {
        let mut ranks = [0u8, 1, 2, 3, NO_RANK, NO_RANK];
        bump_ranks_below(&mut ranks, 2);
        assert_eq!(ranks, [1, 2, 2, 3, NO_RANK, NO_RANK]);
        let mut all = [0u8, 1, 2, NO_RANK];
        bump_ranks_below(&mut all, NO_RANK);
        assert_eq!(all, [1, 2, 3, NO_RANK]);
    }
}
