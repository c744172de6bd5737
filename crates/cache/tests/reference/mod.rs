//! Executable reference models for the flat tag stores.
//!
//! These are the *previous* representations — per-set LRU stacks held as
//! `Vec`s, index 0 = MRU, promotions done by physically reordering the
//! stack — retained verbatim in behaviour so the structure-of-arrays
//! rewrite of [`asm_cache::SetAssocCache`] and
//! [`asm_cache::AuxiliaryTagStore`] can be pinned against them: the
//! model-based differential tests (`flat_vs_reference.rs`, which this
//! module belongs to) drive both implementations with identical operation
//! streams and require identical outcomes, recencies, victims and final
//! contents.
//!
//! They are deliberately simple rather than fast, and are test code only:
//! the shipping crate does not export them.

use asm_simcore::{AppId, LineAddr};

use asm_cache::{AccessOutcome, AtsOutcome, CacheGeometry, EvictedLine, WayPartition};

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    owner: AppId,
    dirty: bool,
}

/// The reference LRU-stack cache: each set is a `Vec<Way>` ordered MRU
/// first, exactly the representation [`asm_cache::SetAssocCache`] used before
/// the flat rewrite.
#[derive(Debug, Clone)]
pub struct RefLruCache {
    geometry: CacheGeometry,
    /// Each set is an LRU stack: index 0 is the most recently used way.
    sets: Vec<Vec<Way>>,
    partition: Option<WayPartition>,
    app_count: usize,
}

impl RefLruCache {
    /// Creates an empty reference cache for `app_count` applications.
    #[must_use]
    pub fn new(geometry: CacheGeometry, app_count: usize) -> Self {
        RefLruCache {
            geometry,
            sets: vec![Vec::new(); geometry.sets()],
            partition: None,
            app_count,
        }
    }

    /// Installs (or clears) a way partition; same contract as
    /// [`asm_cache::SetAssocCache::set_partition`].
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

    /// Reference access: identical semantics to
    /// [`asm_cache::SetAssocCache::access`].
    pub fn access(&mut self, line: LineAddr, app: AppId, is_write: bool) -> AccessOutcome {
        if let Some(pos) = self.touch(line, is_write) {
            return AccessOutcome {
                hit: true,
                hit_recency: Some(pos),
                eviction: None,
            };
        }
        AccessOutcome {
            hit: false,
            hit_recency: None,
            eviction: self.insert_absent(line, app, is_write),
        }
    }

    /// Reference hit half: promote to MRU by rotating the stack prefix.
    pub fn touch(&mut self, line: LineAddr, is_write: bool) -> Option<usize> {
        let set = &mut self.sets[self.geometry.set_index(line)];
        let tag = self.geometry.tag(line);
        let pos = set.iter().position(|w| w.tag == tag)?;
        set[..=pos].rotate_right(1);
        set[0].dirty |= is_write;
        Some(pos)
    }

    /// Reference miss half: insert at MRU, shifting the stack.
    pub fn insert_absent(
        &mut self,
        line: LineAddr,
        app: AppId,
        is_write: bool,
    ) -> Option<EvictedLine> {
        let set_idx = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let ways = self.geometry.ways();
        let set = &mut self.sets[set_idx];

        let new_way = Way {
            tag,
            owner: app,
            dirty: is_write,
        };
        if set.len() < ways {
            set.push(new_way);
            set.rotate_right(1);
            return None;
        }

        let victim_pos = Self::pick_victim(set, app, self.partition.as_ref());
        let victim = set[victim_pos];
        set[..=victim_pos].rotate_right(1);
        set[0] = new_way;
        Some(EvictedLine {
            line: Self::reconstruct(self.geometry, victim.tag, set_idx),
            owner: victim.owner,
            dirty: victim.dirty,
        })
    }

    /// Reference residency check.
    #[must_use]
    pub fn probe(&self, line: LineAddr) -> bool {
        let set = &self.sets[self.geometry.set_index(line)];
        let tag = self.geometry.tag(line);
        set.iter().any(|w| w.tag == tag)
    }

    /// Reference invalidation.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set_idx = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|w| w.tag == tag)?;
        Some(set.remove(pos).dirty)
    }

    /// Reference occupancy: full scan.
    #[must_use]
    pub fn occupancy(&self, app: AppId) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.owner == app).count())
            .sum()
    }

    /// Every resident line as `(line, owner, dirty, set, recency)`, in
    /// set order then stack order — the comparison surface for the
    /// differential tests (sorted before comparison against
    /// [`asm_cache::SetAssocCache::lines`], whose way order differs).
    #[must_use]
    pub fn contents(&self) -> Vec<(LineAddr, AppId, bool, usize, usize)> {
        let mut out = Vec::new();
        for (set_idx, set) in self.sets.iter().enumerate() {
            for (pos, w) in set.iter().enumerate() {
                out.push((
                    Self::reconstruct(self.geometry, w.tag, set_idx),
                    w.owner,
                    w.dirty,
                    set_idx,
                    pos,
                ));
            }
        }
        out
    }

    // Reference model — kept for differential tests against the flat
    // arena tag store, never instantiated in measured runs; clarity is
    // worth the occupancy scratch vector here.
    fn pick_victim(set: &[Way], app: AppId, partition: Option<&WayPartition>) -> usize {
        let Some(partition) = partition else {
            return set.len() - 1;
        };
        let own_quota = partition.ways_for(app);
        let own_occupancy = set.iter().filter(|w| w.owner == app).count();
        if own_occupancy >= own_quota && own_occupancy > 0 {
            if let Some(rpos) = set.iter().rposition(|w| w.owner == app) {
                return rpos;
            }
        }
        let mut occupancy = vec![0usize; partition.app_count()];
        for w in set {
            occupancy[w.owner.index()] += 1;
        }
        if let Some(rpos) = set
            .iter()
            .rposition(|w| occupancy[w.owner.index()] > partition.ways_for(w.owner))
        {
            return rpos;
        }
        set.len() - 1
    }

    fn reconstruct(geometry: CacheGeometry, tag: u64, set_idx: usize) -> LineAddr {
        LineAddr::new((tag << geometry.sets().trailing_zeros()) | set_idx as u64)
    }
}

/// The reference auxiliary tag store: per sampled set a `Vec<u64>` tag
/// stack, MRU first — the representation [`asm_cache::AuxiliaryTagStore`]
/// used before the flat rewrite, with the same counters.
#[derive(Debug, Clone)]
pub struct RefAts {
    geometry: CacheGeometry,
    stride: usize,
    sets: Vec<Vec<u64>>,
    position_hits: Vec<u64>,
    misses: u64,
    sampled_accesses: u64,
}

impl RefAts {
    /// Creates a reference ATS; same contract as
    /// [`asm_cache::AuxiliaryTagStore::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the production constructor.
    #[must_use]
    pub fn new(geometry: CacheGeometry, sampled_sets: Option<usize>) -> Self {
        let sampled = sampled_sets.unwrap_or(geometry.sets());
        assert!(sampled > 0, "must sample at least one set");
        assert!(
            sampled <= geometry.sets() && geometry.sets().is_multiple_of(sampled),
            "sampled set count {sampled} must evenly divide total sets {}",
            geometry.sets()
        );
        let stride = geometry.sets() / sampled;
        RefAts {
            geometry,
            stride,
            sets: vec![Vec::new(); sampled],
            position_hits: vec![0; geometry.ways()],
            misses: 0,
            sampled_accesses: 0,
        }
    }

    /// Reference demand access.
    pub fn access(&mut self, line: LineAddr) -> Option<AtsOutcome> {
        self.update(line, true)
    }

    /// Reference counter-free touch.
    pub fn touch(&mut self, line: LineAddr) -> Option<AtsOutcome> {
        self.update(line, false)
    }

    fn update(&mut self, line: LineAddr, count: bool) -> Option<AtsOutcome> {
        let set_idx = self.geometry.set_index(line);
        if !set_idx.is_multiple_of(self.stride) {
            return None;
        }
        let tag = self.geometry.tag(line);
        let ways = self.geometry.ways();
        let set = &mut self.sets[set_idx / self.stride];
        if count {
            self.sampled_accesses += 1;
        }

        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.insert(0, tag);
            if count {
                self.position_hits[pos] += 1;
            }
            return Some(AtsOutcome {
                hit: true,
                recency: Some(pos),
            });
        }

        if set.len() >= ways {
            set.pop();
        }
        set.insert(0, tag);
        if count {
            self.misses += 1;
        }
        Some(AtsOutcome {
            hit: false,
            recency: None,
        })
    }

    /// Hits at each recency position since construction.
    #[must_use]
    pub fn position_hits(&self) -> &[u64] {
        &self.position_hits
    }

    /// Sampled misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Sampled accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.sampled_accesses
    }

}
