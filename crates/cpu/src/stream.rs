//! Deterministic address-stream generation from an [`AppProfile`].
//!
//! The stream alternates *bursts* of sequential line accesses (producing
//! DRAM row-buffer hits and prefetcher-friendly strides) with jumps to a
//! random location — either in the small *hot region* (producing cache
//! hits) or anywhere in the working set (producing cache misses). Each
//! application's lines live in a disjoint address region so
//! multi-programmed workloads never share data, as with the paper's
//! single-threaded benchmark mixes.

use asm_simcore::{LineAddr, SimRng};

use crate::appmodel::AppProfile;

/// Bits of line-address space reserved per application (2^30 lines = 64 GB
/// of address space each).
const APP_REGION_SHIFT: u32 = 30;

/// A generated memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// The line accessed.
    pub line: LineAddr,
    /// Whether the operation is a store.
    pub is_write: bool,
}

/// Deterministic per-application address stream.
///
/// # Examples
///
/// ```
/// use asm_cpu::{AddressStream, AppProfile};
///
/// let p = AppProfile::builder("toy").working_set_lines(1024).build();
/// let mut a = AddressStream::new(&p, 0, 7);
/// let mut b = AddressStream::new(&p, 0, 7);
/// assert_eq!(a.next_op(), b.next_op()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct AddressStream {
    rng: SimRng,
    base: u64,
    working_set: u64,
    hot_lines: u64,
    hot_frac: f64,
    seq_run: u32,
    write_frac: f64,
    cursor: u64,
    remaining_run: u32,
}

impl AddressStream {
    /// Creates the stream for application slot `app_index`, seeded with
    /// `seed`.
    #[must_use]
    pub fn new(profile: &AppProfile, app_index: usize, seed: u64) -> Self {
        let mut rng =
            SimRng::seed_from(seed ^ (app_index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let working_set = profile.working_set_lines();
        let cursor = rng.gen_range(working_set);
        AddressStream {
            rng,
            base: (app_index as u64) << APP_REGION_SHIFT,
            working_set,
            hot_lines: profile.hot_lines().max(1),
            hot_frac: profile.hot_frac(),
            seq_run: profile.seq_run(),
            write_frac: profile.write_frac(),
            cursor,
            remaining_run: 0,
        }
    }

    /// Generates the next memory operation.
    pub fn next_op(&mut self) -> MemOp {
        if self.remaining_run == 0 {
            // Start a new burst at a random location: hot region with
            // probability hot_frac, anywhere otherwise.
            self.cursor = if self.rng.gen_bool(self.hot_frac) {
                self.rng.gen_range(self.hot_lines)
            } else {
                self.rng.gen_range(self.working_set)
            };
            // Burst length uniform in [1, 2*seq_run): mean ~seq_run.
            self.remaining_run = 1 + self.rng.gen_range(u64::from(self.seq_run) * 2 - 1) as u32;
        }
        let line = LineAddr::new(self.base + self.cursor);
        self.cursor = (self.cursor + 1) % self.working_set;
        self.remaining_run -= 1;
        let is_write = self.rng.gen_bool(self.write_frac);
        MemOp { line, is_write }
    }
}

// The stream's dynamic position; the profile-derived parameters are
// structural.
asm_simcore::persist_fields!(AddressStream { rng, cursor, remaining_run } => |s: &AddressStream| {
    asm_simcore::persist::ensure(s.cursor < s.working_set, "cursor out of range")
});

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ws: u64, hot: u64, hot_frac: f64, run: u32) -> AppProfile {
        AppProfile::builder("t")
            .working_set_lines(ws)
            .hot_lines(hot)
            .hot_frac(hot_frac)
            .seq_run(run)
            .build()
    }

    #[test]
    fn stays_within_app_region() {
        let p = profile(4096, 64, 0.5, 8);
        let mut s = AddressStream::new(&p, 3, 1);
        let base = 3u64 << APP_REGION_SHIFT;
        for _ in 0..10_000 {
            let op = s.next_op();
            assert!(op.line.raw() >= base);
            assert!(op.line.raw() < base + 4096);
        }
    }

    #[test]
    fn different_apps_never_collide() {
        let p = profile(1 << 20, 64, 0.5, 8);
        let mut a = AddressStream::new(&p, 0, 1);
        let mut b = AddressStream::new(&p, 1, 1);
        for _ in 0..1_000 {
            assert_ne!(
                a.next_op().line.raw() >> APP_REGION_SHIFT,
                b.next_op().line.raw() >> APP_REGION_SHIFT
            );
        }
    }

    #[test]
    fn sequential_bursts_have_expected_mean_length() {
        let p = profile(1 << 20, 64, 0.0, 16);
        let mut s = AddressStream::new(&p, 0, 5);
        let mut seq = 0u64;
        let mut total = 0u64;
        let mut last = s.next_op().line.raw();
        for _ in 0..50_000 {
            let cur = s.next_op().line.raw();
            if cur == last + 1 {
                seq += 1;
            }
            total += 1;
            last = cur;
        }
        let frac = seq as f64 / total as f64;
        // Mean burst 16 -> ~15/16 of transitions sequential.
        assert!(frac > 0.85, "sequential fraction {frac}");
    }

    #[test]
    fn hot_fraction_concentrates_accesses() {
        let p = profile(1 << 16, 64, 0.9, 1);
        let mut s = AddressStream::new(&p, 0, 9);
        let mut hot = 0u64;
        let n = 20_000;
        for _ in 0..n {
            // With seq_run 1 every access starts a burst; hot region is
            // lines [0, 64 + small run spill).
            if s.next_op().line.raw() % (1 << 16) < 128 {
                hot += 1;
            }
        }
        assert!(
            hot as f64 / n as f64 > 0.7,
            "hot share {}",
            hot as f64 / n as f64
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let p = AppProfile::builder("t").write_frac(0.3).build();
        let mut s = AddressStream::new(&p, 0, 2);
        let writes = (0..20_000).filter(|_| s.next_op().is_write).count();
        let frac = writes as f64 / 20_000.0;
        assert!((0.25..0.35).contains(&frac), "write frac {frac}");
    }

    #[test]
    fn cursor_wraps_at_working_set_boundary() {
        let p = profile(8, 1, 0.0, 32);
        let mut s = AddressStream::new(&p, 0, 3);
        for _ in 0..100 {
            let op = s.next_op();
            assert!(op.line.raw() < 8);
        }
    }
}
