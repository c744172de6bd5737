//! Model-based differential test: the flat structure-of-arrays tag stores
//! against the retained LRU-stack reference models.
//!
//! The flat rewrite of `SetAssocCache` and `AuxiliaryTagStore` claims
//! *bitwise-identical* behaviour: same hit/miss outcomes, same victim
//! choices, same recency positions. These properties drive both
//! implementations with identical randomized operation streams — mixed
//! app counts, partitions on and off, dirty and clean accesses,
//! invalidations, and the split `find`/`promote` hit path — and require
//! the outcomes and the complete final cache contents to agree.

mod reference;

use asm_cache::{AuxiliaryTagStore, CacheGeometry, SetAssocCache, WayPartition};
use asm_simcore::{AppId, LineAddr};
use proptest::prelude::*;
use reference::{RefAts, RefLruCache};

fn contents_of(cache: &SetAssocCache) -> Vec<(u64, usize, bool, usize, usize)> {
    let mut v: Vec<_> = cache
        .lines()
        .map(|l| (l.line.raw(), l.owner.index(), l.dirty, l.set, l.recency))
        .collect();
    v.sort_unstable();
    v
}

fn ref_contents_of(cache: &RefLruCache) -> Vec<(u64, usize, bool, usize, usize)> {
    let mut v: Vec<_> = cache
        .contents()
        .into_iter()
        .map(|(line, owner, dirty, set, recency)| (line.raw(), owner.index(), dirty, set, recency))
        .collect();
    v.sort_unstable();
    v
}

/// Drives one operation (selected by `sel`) through both implementations
/// and asserts identical outcomes.
fn step(
    flat: &mut SetAssocCache,
    reference: &mut RefLruCache,
    sel: u8,
    line: u64,
    app: AppId,
    write: bool,
) {
    let line_addr = LineAddr::new(line);
    match sel {
        // Weight the mix toward full accesses: they exercise promotion,
        // fill, and victim choice at once.
        0..=4 => {
            let a = flat.access(line_addr, app, write);
            let b = reference.access(line_addr, app, write);
            prop_assert_eq!(a, b, "access({}) diverged", line);
        }
        5 => {
            let a = flat.touch(line_addr, write);
            let b = reference.touch(line_addr, write);
            prop_assert_eq!(a, b, "touch({}) diverged", line);
        }
        6 => {
            // The split hit path the simulator core uses.
            match flat.find(line_addr) {
                Some(handle) => {
                    let pos = flat.promote(handle, write);
                    let b = reference.touch(line_addr, write);
                    prop_assert_eq!(Some(pos), b, "promote({}) diverged", line);
                }
                None => {
                    prop_assert_eq!(None, reference.touch(line_addr, write));
                    let a = flat.insert_absent(line_addr, app, write);
                    let b = reference.insert_absent(line_addr, app, write);
                    prop_assert_eq!(a, b, "insert_absent({}) diverged", line);
                }
            }
        }
        _ => {
            let a = flat.invalidate(line_addr);
            let b = reference.invalidate(line_addr);
            prop_assert_eq!(a, b, "invalidate({}) diverged", line);
        }
    }
    prop_assert_eq!(flat.probe(line_addr), reference.probe(line_addr));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: arbitrary operation mixes over arbitrary
    /// geometries, app counts and partitions produce identical outcomes
    /// and identical final state in the flat cache and the reference
    /// LRU-stack model.
    #[test]
    fn flat_cache_matches_reference(
        lines in prop::collection::vec(0u64..512, 50..500),
        sels in prop::collection::vec(0u8..8, 50..500),
        app_picks in prop::collection::vec(0usize..8, 50..500),
        writes in prop::collection::vec(0u8..2, 50..500),
        sets_log in 0u32..4,
        ways in 1usize..9,
        apps in 1usize..5,
        partitioned in 0u8..2,
    ) {
        let geom = CacheGeometry::new(1 << sets_log, ways);
        let mut flat = SetAssocCache::new(geom, apps);
        let mut reference = RefLruCache::new(geom, apps);

        let stream: Vec<(u64, u8, AppId, bool)> = lines
            .iter()
            .zip(&sels)
            .zip(&app_picks)
            .zip(&writes)
            .map(|(((&l, &s), &a), &w)| (l, s, AppId::new(a % apps), w == 1))
            .collect();

        // First half unpartitioned, second half (optionally) partitioned,
        // so the partition is installed over organically grown state.
        let split = stream.len() / 2;
        for &(line, sel, app, write) in &stream[..split] {
            step(&mut flat, &mut reference, sel, line, app, write);
        }
        if partitioned == 1 && apps <= ways {
            let quota = WayPartition::even(ways, apps);
            flat.set_partition(Some(quota.clone()));
            reference.set_partition(Some(quota));
        }
        for &(line, sel, app, write) in &stream[split..] {
            step(&mut flat, &mut reference, sel, line, app, write);
        }

        for a in 0..apps {
            prop_assert_eq!(
                flat.occupancy(AppId::new(a)),
                reference.occupancy(AppId::new(a)),
                "occupancy({}) diverged", a
            );
        }
        prop_assert_eq!(contents_of(&flat), ref_contents_of(&reference));
    }

    /// Skewed partitions (not just even splits) must agree on victim
    /// choice: quota enforcement reclaims from over-quota apps in exact
    /// LRU order.
    #[test]
    fn skewed_partitions_match_reference(
        lines in prop::collection::vec(0u64..256, 50..400),
        writes in prop::collection::vec(0u8..2, 50..400),
        app_picks in prop::collection::vec(0usize..8, 50..400),
        extra in prop::collection::vec(1usize..8, 4..5),
        ways in 2usize..9,
        apps_raw in 2usize..5,
    ) {
        let apps = apps_raw.min(ways);
        let geom = CacheGeometry::new(4, ways);
        let mut flat = SetAssocCache::new(geom, apps);
        let mut reference = RefLruCache::new(geom, apps);

        // A skewed but feasible quota: one way each, the rest handed out
        // by the generated weights.
        let mut alloc = vec![1usize; apps];
        let mut remaining = ways - apps;
        let mut i = 0;
        while remaining > 0 {
            let grant = extra[i % extra.len()].min(remaining);
            alloc[i % apps] += grant;
            remaining -= grant;
            i += 1;
        }
        let quota = WayPartition::new(alloc);
        flat.set_partition(Some(quota.clone()));
        reference.set_partition(Some(quota));

        for ((&line, &w), &a) in lines.iter().zip(&writes).zip(&app_picks) {
            let app = AppId::new(a % apps);
            let out = flat.access(LineAddr::new(line), app, w == 1);
            let expect = reference.access(LineAddr::new(line), app, w == 1);
            prop_assert_eq!(out, expect, "access({}) diverged", line);
        }
        prop_assert_eq!(contents_of(&flat), ref_contents_of(&reference));
    }

    /// The flat ATS agrees with the reference ATS on every outcome,
    /// every counter, and the final tag state — across sampling ratios.
    #[test]
    fn flat_ats_matches_reference(
        lines in prop::collection::vec(0u64..2048, 50..600),
        sels in prop::collection::vec(0u8..8, 50..600),
        ways in 1usize..9,
        sample_log in 0u32..4,
    ) {
        let geom = CacheGeometry::new(8, ways);
        let sampled = (8usize >> sample_log.min(3)).max(1);
        let mut flat = AuxiliaryTagStore::new(geom, Some(sampled));
        let mut reference = RefAts::new(geom, Some(sampled));

        for (&line, &sel) in lines.iter().zip(&sels) {
            let line_addr = LineAddr::new(line);
            let (a, b) = if sel < 6 {
                (flat.access(line_addr), reference.access(line_addr))
            } else {
                (flat.touch(line_addr), reference.touch(line_addr))
            };
            prop_assert_eq!(a.map(|o| (o.hit, o.recency)), b.map(|o| (o.hit, o.recency)));
        }

        prop_assert_eq!(flat.position_hits(), reference.position_hits());
        prop_assert_eq!(flat.misses(), reference.misses());
        prop_assert_eq!(flat.accesses(), reference.accesses());
        // Probing every line as a counter-free touch on clones reveals
        // the full tag state: identical stacks answer identically for
        // every line (the touch itself would perturb state, hence the
        // per-probe clones).
        for probe in 0..2048u64 {
            let line_addr = LineAddr::new(probe);
            let mut fa = flat.clone();
            let mut fb = reference.clone();
            prop_assert_eq!(
                fa.touch(line_addr).map(|o| (o.hit, o.recency)),
                fb.touch(line_addr).map(|o| (o.hit, o.recency)),
                "tag state diverged at line {}", probe
            );
        }
    }
}
