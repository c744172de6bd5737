//! Random multi-programmed workload construction (§5, Workloads).

use asm_cpu::AppProfile;
use asm_simcore::SimRng;

use crate::suite;

/// Draws one `count`-application workload, sampling uniformly from the
/// SPEC-like + NAS-like suite (applications may repeat across slots, as in
/// the paper's random mixes).
///
/// # Examples
///
/// ```
/// use asm_simcore::SimRng;
/// let mut rng = SimRng::seed_from(1);
/// let mix = asm_workloads::mix::random_mix(4, &mut rng);
/// assert_eq!(mix.len(), 4);
/// ```
#[must_use]
pub fn random_mix(count: usize, rng: &mut SimRng) -> Vec<AppProfile> {
    let pool = suite::all();
    (0..count)
        .map(|_| pool[rng.gen_range(pool.len() as u64) as usize].clone())
        .collect()
}

/// Draws `workloads` independent workloads of `count` applications each,
/// deterministically from `seed`.
#[must_use]
pub fn random_mixes(workloads: usize, count: usize, seed: u64) -> Vec<Vec<AppProfile>> {
    let mut rng = SimRng::seed_from(seed);
    (0..workloads)
        .map(|_| random_mix(count, &mut rng))
        .collect()
}

/// Draws workloads binned by memory intensity, cycling through target
/// fractions of memory-intensive applications (25% / 50% / 75% / 100%) —
/// the workload-construction methodology of §5 ("workloads with varying
/// memory intensity") made explicit.
///
/// An application is classed memory-intensive when its `mem_per_kilo` is
/// at or above the suite median.
///
/// # Examples
///
/// ```
/// let mixes = asm_workloads::mix::binned_mixes(4, 4, 7);
/// assert_eq!(mixes.len(), 4);
/// ```
#[must_use]
pub fn binned_mixes(workloads: usize, count: usize, seed: u64) -> Vec<Vec<AppProfile>> {
    let mut pool = suite::all();
    pool.sort_by_key(AppProfile::mem_per_kilo);
    let split = pool.len() / 2;
    let (light, heavy) = pool.split_at(split);
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let mut rng = SimRng::seed_from(seed);
    (0..workloads)
        .map(|w| {
            let frac = fractions[w % fractions.len()];
            let heavy_slots = ((count as f64 * frac).round() as usize).min(count);
            let mut mix: Vec<AppProfile> = Vec::with_capacity(count);
            for _ in 0..heavy_slots {
                mix.push(heavy[rng.gen_range(heavy.len() as u64) as usize].clone());
            }
            for _ in heavy_slots..count {
                mix.push(light[rng.gen_range(light.len() as u64) as usize].clone());
            }
            rng.shuffle(&mut mix);
            mix
        })
        .collect()
}

/// Draws workloads from a specific pool (used for the database-workload
/// accuracy study, which mixes DB profiles with the main suite).
#[must_use]
pub fn mixes_from_pool(
    pool: &[AppProfile],
    workloads: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<AppProfile>> {
    assert!(!pool.is_empty(), "pool must be non-empty");
    let mut rng = SimRng::seed_from(seed);
    (0..workloads)
        .map(|_| {
            (0..count)
                .map(|_| pool[rng.gen_range(pool.len() as u64) as usize].clone())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic() {
        let a = random_mixes(3, 4, 9);
        let b = random_mixes(3, 4, 9);
        let names = |m: &Vec<Vec<AppProfile>>| -> Vec<String> {
            m.iter()
                .flat_map(|w| w.iter().map(|p| p.name().to_owned()))
                .collect()
        };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_mixes(5, 4, 1);
        let b = random_mixes(5, 4, 2);
        let flat = |m: &Vec<Vec<AppProfile>>| -> Vec<String> {
            m.iter()
                .flat_map(|w| w.iter().map(|p| p.name().to_owned()))
                .collect()
        };
        assert_ne!(flat(&a), flat(&b));
    }

    #[test]
    fn mix_covers_suite_over_many_draws() {
        let mixes = random_mixes(100, 4, 3);
        let mut seen = std::collections::HashSet::new();
        for w in &mixes {
            for p in w {
                seen.insert(p.name().to_owned());
            }
        }
        // 400 draws from 33 profiles should see most of them.
        assert!(seen.len() > 25, "saw only {} profiles", seen.len());
    }

    #[test]
    fn pool_mixes_respect_pool() {
        let pool = suite::db();
        let mixes = mixes_from_pool(&pool, 4, 4, 5);
        for w in &mixes {
            for p in w {
                assert!(p.name().contains("tpcc") || p.name().contains("ycsb"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pool_rejected() {
        let _ = mixes_from_pool(&[], 1, 1, 1);
    }

    #[test]
    fn binned_mixes_cycle_intensity_fractions() {
        let mixes = binned_mixes(4, 4, 11);
        let median = {
            let mut v: Vec<u32> = suite::all().iter().map(AppProfile::mem_per_kilo).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let heavy_counts: Vec<usize> = mixes
            .iter()
            .map(|w| w.iter().filter(|p| p.mem_per_kilo() >= median).count())
            .collect();
        // Fractions 25/50/75/100 of 4 slots, in order (pre-shuffle the
        // counts are fixed; shuffling only permutes slots).
        assert_eq!(heavy_counts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn binned_mixes_deterministic() {
        let names = |m: Vec<Vec<AppProfile>>| -> Vec<String> {
            m.into_iter()
                .flatten()
                .map(|p| p.name().to_owned())
                .collect()
        };
        assert_eq!(names(binned_mixes(6, 4, 3)), names(binned_mixes(6, 4, 3)));
    }
}
