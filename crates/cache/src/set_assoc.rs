//! A set-associative cache with true-LRU replacement, per-application line
//! ownership, and optional way partitioning.
//!
//! The same structure models both the private L1 caches and the shared
//! last-level cache of the paper's system (Table 2). For the shared cache,
//! each line remembers the application that inserted it, which enables
//! - way-partition *enforcement* (UCP-style: an application that reaches its
//!   way quota in a set replaces its own LRU line),
//! - pollution detection (an eviction caused by a *different* application
//!   feeds FST's pollution filter).
//!
//! # Memory layout
//!
//! The tag store is a flat structure-of-arrays arena (DESIGN.md §8
//! "Tag-store memory layout"): one contiguous `Box<[u64]>` of tags, one
//! packed per-line metadata word (`valid | dirty | owner`), and one
//! recency-rank byte per line. Way `w` of set `s` lives at flat index
//! `s * ways + w`, so a set's tags occupy a couple of cache lines and a
//! lookup is a short linear scan with no pointer chasing. Recency is
//! encoded as per-line *ranks* (0 = MRU … fill-1 = LRU) instead of a
//! physically ordered stack: promoting a line renumbers a few rank bytes
//! and never moves tag or metadata payloads. Rank order is exactly the
//! LRU-stack order of the previous `Vec<Vec<Way>>` representation, so
//! every hit/miss outcome, recency position and victim choice is
//! bit-identical (pinned against the retained stack model,
//! `tests/reference/`, by the model-based differential tests).

use asm_simcore::{AppId, LineAddr};

use crate::geometry::CacheGeometry;
use crate::partition::WayPartition;
use crate::scan::{by_ways, find_way, first_byte_match, ways_of, NO_RANK};

/// A line evicted by an insertion, reported so the owner can be credited
/// with a writeback and/or a pollution-filter update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The address of the evicted line.
    pub line: LineAddr,
    /// The application that owned the evicted line.
    pub owner: AppId,
    /// Whether the line was dirty (requires a writeback to memory).
    pub dirty: bool,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// On a hit, the LRU-stack position of the line (0 = most recently
    /// used). `None` on a miss.
    pub hit_recency: Option<usize>,
    /// On a miss that displaced a valid line, the displaced line.
    pub eviction: Option<EvictedLine>,
}

/// A resident line reported by [`SetAssocCache::lines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentLine {
    /// The line's address.
    pub line: LineAddr,
    /// The application that inserted it.
    pub owner: AppId,
    /// Whether the line is dirty.
    pub dirty: bool,
    /// The set the line resides in.
    pub set: usize,
    /// The line's LRU-stack position within its set (0 = MRU).
    pub recency: usize,
}

/// An opaque handle to a resident line, returned by
/// [`SetAssocCache::find`] and consumed by [`SetAssocCache::promote`].
///
/// The handle stays valid across *promotions* of other lines (hits and
/// write-hit absorptions reorder ranks but never move payloads in the
/// flat arena); it is invalidated by any insertion or invalidation in the
/// same set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef {
    /// Flat index of the set's first way (pre-computed so `promote` does
    /// no division).
    base: usize,
    /// Flat index of the line itself.
    slot: usize,
}

/// Packed metadata word: `valid | dirty | owner` (owner in the high bits).
const VALID: u32 = 1;
const DIRTY: u32 = 1 << 1;
const OWNER_SHIFT: u32 = 2;

/// A set-associative cache with true-LRU replacement.
///
/// Lines are inserted at access time (allocate-on-miss); the *timing* of the
/// fill is modelled by the surrounding system, which keeps the tag state
/// deterministic and independent of memory latency.
///
/// # Examples
///
/// ```
/// use asm_cache::{CacheGeometry, SetAssocCache};
/// use asm_simcore::{AppId, LineAddr};
///
/// let mut c = SetAssocCache::new(CacheGeometry::new(4, 2), 1);
/// let app = AppId::new(0);
/// assert!(!c.access(LineAddr::new(0), app, false).hit);
/// assert!(!c.access(LineAddr::new(4), app, false).hit); // same set
/// assert!(c.access(LineAddr::new(0), app, false).hit);
/// // Inserting a third line in the 2-way set evicts the LRU line (4).
/// let out = c.access(LineAddr::new(8), app, false);
/// assert_eq!(out.eviction.unwrap().line, LineAddr::new(4));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Tags, way `w` of set `s` at flat index `s * ways + w`.
    tags: Box<[u64]>,
    /// Packed `valid | dirty | owner` word per line, same indexing.
    meta: Box<[u32]>,
    /// Recency rank per line: 0 = MRU, `fill - 1` = LRU, [`NO_RANK`] when
    /// the way is empty. Within a set the valid ranks are always a
    /// permutation of `0..fill`.
    rank: Box<[u8]>,
    /// Valid lines per set.
    fill: Box<[u8]>,
    partition: Option<WayPartition>,
    app_count: usize,
    /// Lines currently owned per application, maintained incrementally at
    /// every insertion, eviction, ownerless replacement, and invalidation
    /// so [`occupancy`](Self::occupancy) is O(1) instead of a full-cache
    /// scan (it is consulted on mechanism hot paths every quantum).
    occupancy: Vec<usize>,
    /// Reusable per-application set-occupancy scratch for partitioned
    /// victim selection — sized to the partition's app count, zeroed per
    /// use, so the miss path never allocates.
    victim_scratch: Vec<usize>,
}

impl SetAssocCache {
    /// Creates an empty cache for a system with `app_count` applications.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 255 (recency ranks are stored
    /// as single bytes).
    #[must_use]
    pub fn new(geometry: CacheGeometry, app_count: usize) -> Self {
        assert!(
            geometry.ways() <= usize::from(u8::MAX),
            "associativity above 255 does not fit the rank-byte encoding"
        );
        let lines = geometry.sets() * geometry.ways();
        SetAssocCache {
            geometry,
            tags: vec![0; lines].into_boxed_slice(),
            meta: vec![0; lines].into_boxed_slice(),
            rank: vec![NO_RANK; lines].into_boxed_slice(),
            fill: vec![0; geometry.sets()].into_boxed_slice(),
            partition: None,
            app_count,
            occupancy: vec![0; app_count],
            victim_scratch: Vec::new(),
        }
    }

    /// Returns the cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Installs (or clears, with `None`) a way partition. Enforcement is
    /// lazy, as in UCP: resident lines are not flushed; instead replacement
    /// decisions steer each application toward its quota.
    ///
    /// # Panics
    ///
    /// Panics if the partition was built for a different way count or
    /// application count.
    pub fn set_partition(&mut self, partition: Option<WayPartition>) {
        if let Some(p) = &partition {
            assert_eq!(
                p.total_ways(),
                self.geometry.ways(),
                "partition way count mismatch"
            );
            assert_eq!(
                p.app_count(),
                self.app_count,
                "partition app count mismatch"
            );
        }
        self.partition = partition;
    }

    /// Returns the active partition, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&WayPartition> {
        self.partition.as_ref()
    }

    /// Accesses `line` on behalf of `app`, updating LRU state and inserting
    /// the line on a miss. Returns hit/miss, the hit's recency position, and
    /// any eviction the insertion caused. Fused: the set index, tag, and
    /// set base are computed once and feed both the hit and the miss half
    /// (the split [`touch`](Self::touch)/[`insert_absent`](Self::insert_absent)
    /// pair recomputes them between the halves).
    #[inline]
    pub fn access(&mut self, line: LineAddr, app: AppId, is_write: bool) -> AccessOutcome {
        by_ways!(self, access_w(line, app, is_write))
    }

    #[inline]
    fn access_w<const W: usize>(
        &mut self,
        line: LineAddr,
        app: AppId,
        is_write: bool,
    ) -> AccessOutcome {
        let set_idx = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let ways = ways_of::<W>(self.geometry);
        let base = set_idx * ways;
        let found = find_way::<W>(
            &self.tags[base..base + ways],
            &self.rank[base..base + ways],
            tag,
        );
        if let Some(w) = found {
            return AccessOutcome {
                hit: true,
                hit_recency: Some(self.promote_slot::<W>(base, base + w, is_write)),
                eviction: None,
            };
        }
        AccessOutcome {
            hit: false,
            hit_recency: None,
            eviction: self.fill_absent::<W>(set_idx, tag, app, is_write),
        }
    }

    /// Scans `line`'s set for a resident copy, returning the set's base
    /// and the line's flat index. Sub-slices keep the per-way loads free
    /// of bounds checks; the search itself is [`find_way`].
    #[inline]
    fn scan_w<const W: usize>(&self, line: LineAddr) -> Option<(usize, usize)> {
        let base = self.geometry.set_index(line) * ways_of::<W>(self.geometry);
        let tag = self.geometry.tag(line);
        let ways = ways_of::<W>(self.geometry);
        find_way::<W>(
            &self.tags[base..base + ways],
            &self.rank[base..base + ways],
            tag,
        )
        .map(|w| (base, base + w))
    }

    /// Dynamically-sized [`scan_w`](Self::scan_w) for the cold paths.
    #[inline]
    fn scan(&self, line: LineAddr) -> Option<(usize, usize)> {
        self.scan_w::<0>(line)
    }

    /// Bumps every rank below `limit` in the set at `base` one deeper
    /// ([`crate::scan::bump_ranks_below`] over the set's rank row).
    #[inline]
    fn bump_ranks_below<const W: usize>(&mut self, base: usize, limit: u8) {
        let ways = ways_of::<W>(self.geometry);
        crate::scan::bump_ranks_below(&mut self.rank[base..base + ways], limit);
    }

    /// Flat index of the first way in the set at `base` whose rank equals
    /// `needle` — the victim search (rank `ways - 1`) and the empty-way
    /// search ([`NO_RANK`]), via [`first_byte_match`].
    #[inline]
    fn first_rank_match<const W: usize>(&self, base: usize, needle: u8) -> usize {
        let ways = ways_of::<W>(self.geometry);
        base + first_byte_match::<W>(&self.rank[base..base + ways], needle)
    }

    /// Promotes the line at flat index `i` (in the set at `base`) to MRU,
    /// returning its previous rank. Only rank bytes move; tags and
    /// metadata stay put. Re-touching the MRU line (the common case in
    /// looping access streams) skips the rank renumbering entirely.
    #[inline]
    fn promote_slot<const W: usize>(&mut self, base: usize, i: usize, is_write: bool) -> usize {
        let old = self.rank[i];
        if is_write {
            self.meta[i] |= DIRTY;
        }
        if old != 0 {
            self.bump_ranks_below::<W>(base, old);
            self.rank[i] = 0;
        }
        old as usize
    }

    /// The hit half of [`access`](Self::access): if `line` is resident,
    /// promotes it to MRU (marking it dirty on a write) and returns its
    /// previous LRU-stack position; if absent, mutates nothing and returns
    /// `None`. One set scan — callers that would otherwise
    /// [`probe`](Self::probe) and then `access` on a hit (the L1 fast path)
    /// do half the work.
    #[inline]
    pub fn touch(&mut self, line: LineAddr, is_write: bool) -> Option<usize> {
        by_ways!(self, touch_w(line, is_write))
    }

    #[inline]
    fn touch_w<const W: usize>(&mut self, line: LineAddr, is_write: bool) -> Option<usize> {
        let (base, i) = self.scan_w::<W>(line)?;
        Some(self.promote_slot::<W>(base, i, is_write))
    }

    /// Locates `line` without mutating any state, returning a handle that
    /// [`promote`](Self::promote) turns into the hit half of an access.
    /// Splitting lookup from promotion lets a caller interleave a
    /// side-effect check (e.g. the LLC stall check) between the two
    /// without paying for a second set scan.
    #[inline]
    #[must_use]
    pub fn find(&self, line: LineAddr) -> Option<LineRef> {
        by_ways!(self, scan_w(line)).map(|(base, slot)| LineRef { base, slot })
    }

    /// Promotes the line behind `handle` to MRU (marking it dirty on a
    /// write) and returns its LRU-stack position at promotion time —
    /// exactly what [`touch`](Self::touch) would have returned. The handle
    /// must come from [`find`](Self::find) with no intervening insertion
    /// or invalidation in the same set (promotions of other lines are
    /// fine; they shuffle ranks, not payloads).
    #[inline]
    pub fn promote(&mut self, handle: LineRef, is_write: bool) -> usize {
        debug_assert!(
            self.rank[handle.slot] != NO_RANK,
            "promote on a stale handle: the slot was re-filled or invalidated"
        );
        by_ways!(self, promote_slot(handle.base, handle.slot, is_write))
    }

    /// The miss half of [`access`](Self::access): inserts `line` — which
    /// must not be resident — at MRU for `app`, returning the displaced
    /// line if the set was full. Skips the residency scan, so callers that
    /// already established absence (via [`probe`](Self::probe) or
    /// [`touch`](Self::touch)) do not pay for it again.
    #[inline]
    pub fn insert_absent(
        &mut self,
        line: LineAddr,
        app: AppId,
        is_write: bool,
    ) -> Option<EvictedLine> {
        by_ways!(self, insert_absent_w(line, app, is_write))
    }

    #[inline]
    fn insert_absent_w<const W: usize>(
        &mut self,
        line: LineAddr,
        app: AppId,
        is_write: bool,
    ) -> Option<EvictedLine> {
        debug_assert!(
            self.scan(line).is_none(),
            "insert_absent on a resident line"
        );
        self.fill_absent::<W>(self.geometry.set_index(line), self.geometry.tag(line), app, is_write)
    }

    /// The allocation itself: inserts the (absent) line with tag `tag`
    /// into set `set_idx` at MRU for `app`. Takes the decomposed address
    /// so the fused [`access`](Self::access) path computes it exactly
    /// once.
    #[inline]
    fn fill_absent<const W: usize>(
        &mut self,
        set_idx: usize,
        tag: u64,
        app: AppId,
        is_write: bool,
    ) -> Option<EvictedLine> {
        let ways = ways_of::<W>(self.geometry);
        let base = set_idx * ways;
        let new_meta = VALID | (u32::from(is_write) * DIRTY) | ((app.index() as u32) << OWNER_SHIFT);
        if let Some(c) = self.occupancy.get_mut(app.index()) {
            *c += 1;
        }

        if usize::from(self.fill[set_idx]) < ways {
            // Room left: claim the first empty way, push every resident
            // line one rank deeper and enter at MRU. A `NO_RANK` limit
            // bumps exactly the valid ranks.
            let slot = self.first_rank_match::<W>(base, NO_RANK);
            self.bump_ranks_below::<W>(base, NO_RANK);
            self.tags[slot] = tag;
            self.meta[slot] = new_meta;
            self.rank[slot] = 0;
            self.fill[set_idx] += 1;
            return None;
        }

        let victim = self.pick_victim::<W>(base, app);
        let victim_meta = self.meta[victim];
        let victim_tag = self.tags[victim];
        let victim_owner = AppId::new((victim_meta >> OWNER_SHIFT) as usize);
        // Re-rank as if the victim's stack slot were vacated and the new
        // line entered at MRU: everything above the victim moves one
        // deeper, the victim's way is re-filled at rank 0.
        let victim_rank = self.rank[victim];
        self.bump_ranks_below::<W>(base, victim_rank);
        self.tags[victim] = tag;
        self.meta[victim] = new_meta;
        self.rank[victim] = 0;
        if let Some(c) = self.occupancy.get_mut(victim_owner.index()) {
            *c -= 1;
        }
        Some(EvictedLine {
            line: Self::reconstruct(self.geometry, victim_tag, set_idx),
            owner: victim_owner,
            dirty: victim_meta & DIRTY != 0,
        })
    }

    /// Checks residency without updating any state.
    #[inline]
    #[must_use]
    pub fn probe(&self, line: LineAddr) -> bool {
        by_ways!(self, scan_w(line)).is_some()
    }

    /// Removes `line` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (base, i) = self.scan(line)?;
        let ways = self.geometry.ways();
        let gone = self.rank[i];
        self.rank[i] = NO_RANK;
        // Close the rank gap so valid ranks stay a permutation of 0..fill.
        for r in &mut self.rank[base..base + ways] {
            *r = r.wrapping_sub(u8::from(*r != NO_RANK && *r > gone));
        }
        let meta = self.meta[i];
        self.meta[i] = 0;
        self.fill[self.geometry.set_index(line)] -= 1;
        let owner = AppId::new((meta >> OWNER_SHIFT) as usize);
        if let Some(c) = self.occupancy.get_mut(owner.index()) {
            *c -= 1;
        }
        Some(meta & DIRTY != 0)
    }

    /// Returns how many lines `app` currently holds across the whole cache.
    /// O(1): read from the incrementally maintained per-application
    /// counters (cross-checked against [`occupancy_scan`]
    /// (Self::occupancy_scan) by randomized tests).
    #[must_use]
    #[inline]
    pub fn occupancy(&self, app: AppId) -> usize {
        self.occupancy.get(app.index()).copied().unwrap_or(0)
    }

    /// Recomputes `app`'s occupancy by scanning every set. Linear in cache
    /// size — the reference implementation the O(1) counters are validated
    /// against.
    #[must_use]
    pub fn occupancy_scan(&self, app: AppId) -> usize {
        self.lines().filter(|l| l.owner == app).count()
    }

    /// Iterates over every resident line (set order, way order within a
    /// set) with its owner, dirtiness, and LRU-stack position. This is the
    /// inspection surface of the flat arena: tests, the occupancy
    /// cross-check, and any mechanism that wants to audit cache contents
    /// read it instead of poking at the raw arrays.
    pub fn lines(&self) -> impl Iterator<Item = ResidentLine> + '_ {
        let ways = self.geometry.ways();
        (0..self.tags.len()).filter_map(move |i| {
            let r = self.rank[i];
            if r == NO_RANK {
                return None;
            }
            let set = i / ways;
            let meta = self.meta[i];
            Some(ResidentLine {
                line: Self::reconstruct(self.geometry, self.tags[i], set),
                owner: AppId::new((meta >> OWNER_SHIFT) as usize),
                dirty: meta & DIRTY != 0,
                set,
                recency: r as usize,
            })
        })
    }

    /// Picks the victim's flat index for an insertion by `app` into the
    /// full set starting at `base`.
    ///
    /// Without a partition this is the global LRU way. With a partition it
    /// follows UCP's enforcement: if the inserting application has reached
    /// its quota in this set, it victimises its own LRU line; otherwise the
    /// LRU line of any application holding more than its quota; otherwise
    /// the global LRU line. "LRU-most matching line" is the match with the
    /// maximum rank — the rank order *is* the old representation's stack
    /// order, which is what keeps victim choices bit-identical.
    fn pick_victim<const W: usize>(&mut self, base: usize, app: AppId) -> usize {
        let ways = ways_of::<W>(self.geometry);
        if self.partition.is_none() {
            // Global LRU. The set is full (pick_victim only runs then), so
            // the LRU line is exactly the one at rank `ways - 1`: a single
            // byte search instead of a rank/meta max-scan.
            return self.first_rank_match::<W>(base, (ways - 1) as u8);
        }
        let partition = self.partition.as_ref().expect("checked above");
        let own_quota = partition.ways_for(app);
        let metas = &self.meta[base..base + ways];
        let own_occupancy = metas
            .iter()
            .filter(|&&m| m >> OWNER_SHIFT == app.index() as u32)
            .count();
        if own_occupancy >= own_quota && own_occupancy > 0 {
            // At (or over) quota: replace own LRU line. This also confines
            // zero-quota applications to at most one transient line per set.
            return self.max_rank_where::<W>(base, |m| m >> OWNER_SHIFT == app.index() as u32);
        }
        // Replace the LRU line of an over-quota application.
        self.victim_scratch.clear();
        self.victim_scratch.resize(partition.app_count(), 0);
        for &m in metas {
            self.victim_scratch[(m >> OWNER_SHIFT) as usize] += 1;
        }
        let scratch = std::mem::take(&mut self.victim_scratch);
        let partition = self.partition.as_ref().expect("checked above");
        let over_quota =
            |m: u32| scratch[(m >> OWNER_SHIFT) as usize] > partition.ways_for(AppId::new((m >> OWNER_SHIFT) as usize));
        let victim = if self.meta[base..base + ways].iter().any(|&m| over_quota(m)) {
            self.max_rank_where::<W>(base, over_quota)
        } else {
            self.max_rank_where::<W>(base, |_| true)
        };
        self.victim_scratch = scratch;
        victim
    }

    /// The flat index with the deepest rank among ways of the full set at
    /// `base` whose metadata satisfies `pred`. Must have a match. Within a
    /// full set ranks are unique, so first-match vs last-match on ties
    /// cannot arise.
    fn max_rank_where<const W: usize>(&self, base: usize, pred: impl Fn(u32) -> bool) -> usize {
        let ways = ways_of::<W>(self.geometry);
        let metas = &self.meta[base..base + ways];
        let ranks = &self.rank[base..base + ways];
        let mut best = usize::MAX;
        let mut best_rank = 0u8;
        for (w, (&m, &r)) in metas.iter().zip(ranks).enumerate() {
            if pred(m) && (best == usize::MAX || r >= best_rank) {
                best = w;
                best_rank = r;
            }
        }
        debug_assert!(best != usize::MAX, "victim predicate matched nothing");
        base + best
    }

    fn reconstruct(geometry: CacheGeometry, tag: u64, set_idx: usize) -> LineAddr {
        LineAddr::new((tag << geometry.sets().trailing_zeros()) | set_idx as u64)
    }
}

impl SetAssocCache {
    fn check_restored(&self) -> Result<(), asm_simcore::persist::PersistError> {
        let fits = self.partition.as_ref().is_none_or(|p| {
            p.app_count() == self.app_count
                && p.as_slice().iter().try_fold(0usize, |a, &w| a.checked_add(w))
                    == Some(self.geometry.ways())
        });
        asm_simcore::persist::ensure(fits, "partition shape mismatch")
    }
}

// Tags, metadata, recency ranks, set fills, occupancy counters and the
// active partition; geometry and application count are structural.
asm_simcore::persist_fields!(SetAssocCache {
    tags,
    meta,
    rank,
    fill,
    [occupancy],
    partition,
} => SetAssocCache::check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize, apps: usize) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(sets, ways), apps)
    }

    fn same_set_line(sets: usize, set: usize, k: u64) -> LineAddr {
        LineAddr::new(k * sets as u64 + set as u64)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(8, 2, 1);
        let a = AppId::new(0);
        let l = LineAddr::new(42);
        assert!(!c.access(l, a, false).hit);
        let out = c.access(l, a, false);
        assert!(out.hit);
        assert_eq!(out.hit_recency, Some(0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(4, 2, 1);
        let a = AppId::new(0);
        let l0 = same_set_line(4, 1, 0);
        let l1 = same_set_line(4, 1, 1);
        let l2 = same_set_line(4, 1, 2);
        c.access(l0, a, false);
        c.access(l1, a, false);
        c.access(l0, a, false); // l1 becomes LRU
        let out = c.access(l2, a, false);
        assert_eq!(out.eviction.unwrap().line, l1);
        assert!(c.probe(l0));
        assert!(!c.probe(l1));
    }

    #[test]
    fn hit_recency_reports_stack_position() {
        let mut c = cache(4, 4, 1);
        let a = AppId::new(0);
        let lines: Vec<_> = (0..4).map(|k| same_set_line(4, 0, k)).collect();
        for &l in &lines {
            c.access(l, a, false);
        }
        // lines[0] is now at LRU position 3.
        assert_eq!(c.access(lines[0], a, false).hit_recency, Some(3));
        // And after that access, it's MRU.
        assert_eq!(c.access(lines[0], a, false).hit_recency, Some(0));
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = cache(4, 1, 1);
        let a = AppId::new(0);
        let l0 = same_set_line(4, 2, 0);
        let l1 = same_set_line(4, 2, 1);
        c.access(l0, a, true);
        let ev = c.access(l1, a, false).eviction.unwrap();
        assert_eq!(ev.line, l0);
        assert!(ev.dirty);
    }

    #[test]
    fn read_then_write_hit_dirties_line() {
        let mut c = cache(4, 2, 1);
        let a = AppId::new(0);
        let l0 = same_set_line(4, 0, 0);
        let l1 = same_set_line(4, 0, 1);
        c.access(l0, a, false);
        c.access(l0, a, true); // dirty via write hit
        c.access(l1, a, false);
        let ev = c.access(same_set_line(4, 0, 2), a, false).eviction.unwrap();
        assert_eq!(ev.line, l0);
        assert!(ev.dirty);
    }

    #[test]
    fn eviction_reports_original_owner() {
        let mut c = cache(4, 1, 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        c.access(same_set_line(4, 0, 0), a0, false);
        let ev = c
            .access(same_set_line(4, 0, 1), a1, false)
            .eviction
            .unwrap();
        assert_eq!(ev.owner, a0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache(4, 2, 1);
        let a = AppId::new(0);
        let l = LineAddr::new(9);
        c.access(l, a, true);
        assert_eq!(c.invalidate(l), Some(true));
        assert!(!c.probe(l));
        assert_eq!(c.invalidate(l), None);
    }

    #[test]
    fn partition_confines_over_quota_app() {
        let mut c = cache(1, 4, 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        c.set_partition(Some(WayPartition::new(vec![2, 2])));
        // app0 fills its 2 ways, then keeps inserting: it must victimise
        // itself, never touching app1's lines.
        c.access(LineAddr::new(0), a0, false);
        c.access(LineAddr::new(1), a0, false);
        c.access(LineAddr::new(2), a1, false);
        c.access(LineAddr::new(3), a1, false);
        for k in 4..10 {
            let ev = c.access(LineAddr::new(k), a0, false).eviction.unwrap();
            assert_eq!(ev.owner, a0, "app0 should evict only its own lines");
        }
        assert!(c.probe(LineAddr::new(2)));
        assert!(c.probe(LineAddr::new(3)));
    }

    #[test]
    fn partition_reclaims_from_over_quota_app() {
        let mut c = cache(1, 4, 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        // app0 fills all 4 ways without a partition.
        for k in 0..4 {
            c.access(LineAddr::new(k), a0, false);
        }
        // Now partition 2/2: app1's inserts must reclaim from app0.
        c.set_partition(Some(WayPartition::new(vec![2, 2])));
        let ev = c.access(LineAddr::new(100), a1, false).eviction.unwrap();
        assert_eq!(ev.owner, a0);
        let ev = c.access(LineAddr::new(101), a1, false).eviction.unwrap();
        assert_eq!(ev.owner, a0);
        // app1 at quota: next insert victimises its own lines.
        let ev = c.access(LineAddr::new(102), a1, false).eviction.unwrap();
        assert_eq!(ev.owner, a1);
    }

    #[test]
    fn zero_quota_app_still_makes_progress() {
        // An app with a zero allocation replaces the LRU of over-quota apps
        // (or global LRU) rather than deadlocking.
        let mut c = cache(1, 2, 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        c.set_partition(Some(WayPartition::new(vec![2, 0])));
        c.access(LineAddr::new(0), a0, false);
        c.access(LineAddr::new(1), a0, false);
        let out = c.access(LineAddr::new(2), a1, false);
        assert!(!out.hit);
        assert!(out.eviction.is_some());
    }

    #[test]
    #[should_panic(expected = "partition way count mismatch")]
    fn partition_way_count_validated() {
        let mut c = cache(4, 4, 2);
        c.set_partition(Some(WayPartition::new(vec![1, 2])));
    }

    #[test]
    fn occupancy_counters_match_scan_under_random_traffic() {
        use asm_simcore::SimRng;
        let mut rng = SimRng::seed_from(0xC0FFEE);
        let apps = 4;
        let mut c = cache(64, 8, apps);
        let check = |c: &SetAssocCache| {
            for a in 0..apps {
                let app = AppId::new(a);
                assert_eq!(
                    c.occupancy(app),
                    c.occupancy_scan(app),
                    "counter drifted from scan for app {a}"
                );
            }
        };
        for i in 0..50_000u64 {
            let app = AppId::new((rng.next_u64() % apps as u64) as usize);
            let line = LineAddr::new(rng.next_u64() % 4_096);
            match rng.next_u64() % 16 {
                0 => {
                    let _ = c.invalidate(line);
                }
                1 => {
                    let _ = c.touch(line, rng.next_u64() % 2 == 0);
                }
                2 => {
                    if !c.probe(line) {
                        let _ = c.insert_absent(line, app, rng.next_u64() % 2 == 0);
                    }
                }
                3 => {
                    // Partition churn: quotas must not desync the counters.
                    let quotas = match rng.next_u64() % 3 {
                        0 => vec![2, 2, 2, 2],
                        1 => vec![5, 1, 1, 1],
                        _ => vec![8, 0, 0, 0],
                    };
                    let p = (rng.next_u64() % 2 == 0).then(|| WayPartition::new(quotas));
                    c.set_partition(p);
                }
                _ => {
                    let _ = c.access(line, app, rng.next_u64() % 2 == 0);
                }
            }
            if i % 1_000 == 0 {
                check(&c);
            }
        }
        check(&c);
    }

    #[test]
    fn touch_plus_insert_absent_equals_access() {
        use asm_simcore::SimRng;
        // The split fast path (probe/touch + insert_absent) must evolve the
        // cache exactly like the fused `access` — same hits, recencies,
        // evictions, and final contents.
        let mut rng = SimRng::seed_from(0x5117);
        let mut fused = cache(16, 4, 2);
        let mut split = cache(16, 4, 2);
        for _ in 0..20_000u64 {
            let app = AppId::new((rng.next_u64() % 2) as usize);
            let line = LineAddr::new(rng.next_u64() % 512);
            let is_write = rng.next_u64() % 2 == 0;
            let a = fused.access(line, app, is_write);
            let b = match split.touch(line, is_write) {
                Some(pos) => AccessOutcome {
                    hit: true,
                    hit_recency: Some(pos),
                    eviction: None,
                },
                None => AccessOutcome {
                    hit: false,
                    hit_recency: None,
                    eviction: split.insert_absent(line, app, is_write),
                },
            };
            assert_eq!(a, b);
        }
        for l in 0..512 {
            let line = LineAddr::new(l);
            assert_eq!(fused.probe(line), split.probe(line));
        }
    }

    #[test]
    fn find_promote_equals_touch() {
        use asm_simcore::SimRng;
        // The handle-based hit path (find + promote) must evolve the cache
        // exactly like the fused `touch` — this is the LLC fast path in
        // `asm-core`'s issue().
        let mut rng = SimRng::seed_from(0xF15D);
        let mut fused = cache(16, 4, 2);
        let mut split = cache(16, 4, 2);
        for _ in 0..20_000u64 {
            let app = AppId::new((rng.next_u64() % 2) as usize);
            let line = LineAddr::new(rng.next_u64() % 512);
            let is_write = rng.next_u64() % 2 == 0;
            let a = fused.access(line, app, is_write);
            let b = match split.find(line) {
                Some(handle) => AccessOutcome {
                    hit: true,
                    hit_recency: Some(split.promote(handle, is_write)),
                    eviction: None,
                },
                None => AccessOutcome {
                    hit: false,
                    hit_recency: None,
                    eviction: split.insert_absent(line, app, is_write),
                },
            };
            assert_eq!(a, b);
        }
    }

    #[test]
    fn handle_survives_other_line_promotions() {
        // A LineRef stays valid across promotions of *other* lines in the
        // same set (the L1-victim-writeback interleaving in issue()).
        let mut c = cache(4, 4, 1);
        let a = AppId::new(0);
        let l0 = same_set_line(4, 0, 0);
        let l1 = same_set_line(4, 0, 1);
        c.access(l0, a, false);
        c.access(l1, a, false); // stack: [l1, l0]
        let h = c.find(l0).unwrap();
        c.touch(l1, true); // promote the other line; stack unchanged order
        assert_eq!(c.promote(h, false), 1);
        assert_eq!(c.access(l0, a, false).hit_recency, Some(0));
    }

    #[test]
    fn occupancy_counts_lines_per_app() {
        let mut c = cache(8, 2, 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        c.access(LineAddr::new(0), a0, false);
        c.access(LineAddr::new(1), a0, false);
        c.access(LineAddr::new(2), a1, false);
        assert_eq!(c.occupancy(a0), 2);
        assert_eq!(c.occupancy(a1), 1);
    }

    #[test]
    fn lines_iterator_reports_full_state() {
        let mut c = cache(8, 2, 2);
        let a0 = AppId::new(0);
        let a1 = AppId::new(1);
        c.access(LineAddr::new(0), a0, true);
        c.access(LineAddr::new(8), a1, false); // same set as 0
        let mut lines: Vec<_> = c.lines().collect();
        lines.sort_by_key(|l| l.line.raw());
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].line, LineAddr::new(0));
        assert_eq!(lines[0].owner, a0);
        assert!(lines[0].dirty);
        assert_eq!(lines[0].recency, 1); // displaced from MRU by line 8
        assert_eq!(lines[1].line, LineAddr::new(8));
        assert_eq!(lines[1].owner, a1);
        assert!(!lines[1].dirty);
        assert_eq!(lines[1].recency, 0);
        assert_eq!(lines[0].set, lines[1].set);
    }

    #[test]
    fn ranks_stay_a_permutation_per_set() {
        use asm_simcore::SimRng;
        let mut rng = SimRng::seed_from(0xBEEF);
        let mut c = cache(8, 4, 2);
        for _ in 0..10_000u64 {
            let app = AppId::new((rng.next_u64() % 2) as usize);
            let line = LineAddr::new(rng.next_u64() % 256);
            match rng.next_u64() % 8 {
                0 => {
                    let _ = c.invalidate(line);
                }
                _ => {
                    let _ = c.access(line, app, rng.next_u64() % 2 == 0);
                }
            }
        }
        for set in 0..8 {
            let mut ranks: Vec<_> = c.lines().filter(|l| l.set == set).map(|l| l.recency).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..ranks.len()).collect::<Vec<_>>(), "set {set}");
        }
    }

    #[test]
    fn reconstructed_eviction_address_is_exact() {
        let mut c = cache(8, 1, 1);
        let a = AppId::new(0);
        let l = LineAddr::new(0xABCD_EF01);
        c.access(l, a, false);
        let conflicting = LineAddr::new(l.raw() + 8); // same set, different tag
        let ev = c.access(conflicting, a, false).eviction.unwrap();
        assert_eq!(ev.line, l);
    }
}
