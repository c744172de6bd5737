//! Deterministic pseudo-random number generation for reproducible simulation.
//!
//! Every stochastic decision in the simulator — synthetic address streams,
//! epoch-owner assignment, workload-mix sampling — draws from a [`SimRng`]
//! seeded from the experiment configuration, so a whole-system run is a pure
//! function of its seed. We implement the generator ourselves (SplitMix64
//! for seeding, xoshiro256++ for the stream) rather than depending on the
//! `rand` crate for the hot path, both for speed and so results cannot shift
//! under a dependency upgrade.

/// A deterministic pseudo-random number generator (xoshiro256++ seeded via
/// SplitMix64).
///
/// # Examples
///
/// ```
/// use asm_simcore::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // reproducible
/// let x = a.gen_range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift reduction; the tiny modulo bias is
    /// irrelevant at simulation scales.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Picks an index in `0..weights.len()` with probability proportional to
    /// `weights[i]`. Zero or negative weights are treated as zero.
    ///
    /// Returns `None` if `weights` is empty or sums to a non-positive value.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 || total.is_nan() {
            return None;
        }
        let mut target = self.gen_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point rounding can leave a sliver; attribute it to the
        // last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

// The generator's exact position in its stream: the four xoshiro256++
// state words. A restored generator continues bitwise identically.
crate::persist_fields!(SimRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SimRng::seed_from(9);
        for bound in [1u64, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(42);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut rng = SimRng::seed_from(5);
        let mut buckets = [0u32; 4];
        for _ in 0..40_000 {
            buckets[rng.gen_range(4) as usize] += 1;
        }
        for b in buckets {
            // Each bucket expects 10_000; allow 10% slack.
            assert!((9_000..11_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn pick_weighted_follows_weights() {
        let mut rng = SimRng::seed_from(77);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.pick_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pick_weighted_empty_or_zero_is_none() {
        let mut rng = SimRng::seed_from(1);
        assert_eq!(rng.pick_weighted(&[]), None);
        assert_eq!(rng.pick_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.pick_weighted(&[-1.0]), None);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::seed_from(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
