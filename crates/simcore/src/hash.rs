//! Deterministic hashing for simulation-state maps.
//!
//! `std::collections::HashMap`'s default `RandomState` seeds itself from OS
//! entropy, which would make map-dependent behaviour differ between runs —
//! unacceptable in a simulator whose outputs must be reproducible from a
//! seed (and banned by the determinism policy, DESIGN.md §8). The maps used on simulation hot
//! paths (MSHR, per-core token tables) are keyed by `u64` and never
//! iterated, so a fixed-seed hasher changes no observable behaviour while
//! replacing `BTreeMap`'s pointer-chasing with O(1) probes.
//!
//! The mixer is the `splitmix64` finaliser (Steele+, "Fast splittable
//! pseudorandom number generators", OOPSLA 2014) — two xor-shift-multiply
//! rounds, enough to spread the low-entropy line addresses and monotonic
//! token ids these maps are keyed with.
//!
//! # Examples
//!
//! ```
//! use asm_simcore::hash::DetHashMap;
//!
//! let mut m: DetHashMap<u64, &str> = DetHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with a fixed, deterministic hash function.
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher: iteration order is identical across processes, the property the ban protects"
)]
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// A `HashSet` with a fixed, deterministic hash function.
#[expect(clippy::disallowed_types, reason = "fixed-seed hasher, see DetHashMap")]
pub type DetHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<DetHasher>>;

/// Fixed-seed hasher: splitmix64 finaliser over a running state.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let mut z = self.state.wrapping_add(word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            // Explicit LE keeps digests platform-stable.
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        // Widening usize→u64 is lossless on every supported target.
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_hash_across_maps() {
        let mut a = DetHasher::default();
        let mut b = DetHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn nearby_keys_spread() {
        let hash = |k: u64| {
            let mut h = DetHasher::default();
            h.write_u64(k);
            h.finish()
        };
        let mut seen = DetHashSet::default();
        for k in 0..10_000u64 {
            seen.insert(hash(k));
        }
        assert_eq!(seen.len(), 10_000, "sequential keys must not collide");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: DetHashMap<u64, u64> = DetHashMap::default();
        for k in 0..1_000u64 {
            m.insert(k * 64, k);
        }
        for k in 0..1_000u64 {
            assert_eq!(m.remove(&(k * 64)), Some(k));
        }
        assert!(m.is_empty());
    }
}
