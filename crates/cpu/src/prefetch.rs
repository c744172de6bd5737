//! The stride prefetcher of the Figure 5 experiment.
//!
//! A degree-4, distance-24 stride prefetcher [Baer & Chen; §6.2]: it
//! watches an application's demand line addresses, detects a stable stride,
//! and — once confident — issues `degree` prefetches starting `distance`
//! lines ahead of the demand stream.

use asm_simcore::LineAddr;

/// Per-application stride prefetcher.
///
/// # Examples
///
/// ```
/// use asm_cpu::StridePrefetcher;
/// use asm_simcore::LineAddr;
///
/// let mut pf = StridePrefetcher::new(4, 24);
/// pf.observe(LineAddr::new(100));
/// pf.observe(LineAddr::new(101));
/// let prefetches = pf.observe(LineAddr::new(102)); // stride +1 confirmed
/// assert_eq!(prefetches.len(), 4);
/// assert_eq!(prefetches[0], LineAddr::new(102 + 24));
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    degree: u32,
    distance: u32,
    last_line: Option<u64>,
    last_stride: i64,
    confidence: u32,
}

/// Stride confirmations required before prefetching starts (a stride is
/// confirmed once it repeats: three accesses with the same delta).
const CONFIDENCE_THRESHOLD: u32 = 1;

impl StridePrefetcher {
    /// Creates a prefetcher issuing `degree` prefetches `distance` lines
    /// ahead (the paper uses degree 4, distance 24).
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    #[must_use]
    pub fn new(degree: u32, distance: u32) -> Self {
        assert!(degree > 0, "degree must be positive");
        StridePrefetcher {
            degree,
            distance,
            last_line: None,
            last_stride: 0,
            confidence: 0,
        }
    }

    /// Feeds a demand access; returns the prefetch addresses to issue (empty
    /// until a stride is confirmed).
    pub fn observe(&mut self, line: LineAddr) -> Vec<LineAddr> {
        let cur = line.raw();
        let mut out = Vec::new();
        if let Some(last) = self.last_line {
            let stride = cur as i64 - last as i64;
            if stride != 0 && stride == self.last_stride {
                self.confidence = self.confidence.saturating_add(1);
            } else {
                self.last_stride = stride;
                self.confidence = 0;
            }
            if self.confidence >= CONFIDENCE_THRESHOLD {
                for k in 0..self.degree {
                    let target = cur as i64 + self.last_stride * i64::from(self.distance + k);
                    if target >= 0 {
                        out.push(LineAddr::new(target as u64));
                    }
                }
            }
        }
        self.last_line = Some(cur);
        out
    }

    /// The next cycle this prefetcher could act on its own: always `None`.
    /// A stride prefetcher is purely reactive — it only emits work from
    /// inside [`observe`](Self::observe), which runs on the demand path of
    /// a core tick, so it never needs an autonomous wake-up. Part of the
    /// fast-forward next-event contract (DESIGN.md §8).
    #[must_use]
    pub fn next_event(&self, _now: asm_simcore::Cycle) -> Option<asm_simcore::Cycle> {
        None
    }

    /// Forgets the current stream (e.g. at a context boundary).
    pub fn reset(&mut self) {
        self.last_line = None;
        self.last_stride = 0;
        self.confidence = 0;
    }
}

// The stride-detection state; degree and distance are structural.
asm_simcore::persist_fields!(StridePrefetcher { last_line, last_stride, confidence });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetch_before_confidence() {
        let mut pf = StridePrefetcher::new(4, 24);
        assert!(pf.observe(LineAddr::new(10)).is_empty());
        assert!(pf.observe(LineAddr::new(11)).is_empty());
        assert!(!pf.observe(LineAddr::new(12)).is_empty());
    }

    #[test]
    fn prefetches_follow_negative_strides() {
        let mut pf = StridePrefetcher::new(2, 4);
        pf.observe(LineAddr::new(1_000));
        pf.observe(LineAddr::new(998));
        let out = pf.observe(LineAddr::new(996));
        assert_eq!(out[0], LineAddr::new(996 - 8));
        assert_eq!(out[1], LineAddr::new(996 - 10));
    }

    #[test]
    fn random_stream_stays_quiet() {
        let mut pf = StridePrefetcher::new(4, 24);
        let mut rng = asm_simcore::SimRng::seed_from(8);
        let mut issued = 0;
        for _ in 0..1_000 {
            issued += pf.observe(LineAddr::new(rng.next_u64() >> 30)).len();
        }
        // A random walk virtually never repeats a stride twice in a row.
        assert!(issued < 40, "issued {issued} prefetches on random stream");
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = StridePrefetcher::new(4, 24);
        pf.observe(LineAddr::new(0));
        pf.observe(LineAddr::new(1));
        pf.observe(LineAddr::new(2));
        assert!(pf.observe(LineAddr::new(10)).is_empty()); // break
        assert!(pf.observe(LineAddr::new(11)).is_empty()); // new stride, conf 0
        assert!(!pf.observe(LineAddr::new(12)).is_empty()); // stride repeated
    }

    #[test]
    fn negative_targets_are_dropped() {
        let mut pf = StridePrefetcher::new(4, 24);
        pf.observe(LineAddr::new(100));
        pf.observe(LineAddr::new(50));
        let out = pf.observe(LineAddr::new(0)); // stride -50, targets < 0
        assert!(out.is_empty());
    }

    #[test]
    fn reset_clears_state() {
        let mut pf = StridePrefetcher::new(4, 24);
        pf.observe(LineAddr::new(0));
        pf.observe(LineAddr::new(1));
        pf.observe(LineAddr::new(2));
        pf.reset();
        assert!(pf.observe(LineAddr::new(3)).is_empty());
        assert!(pf.observe(LineAddr::new(4)).is_empty());
    }
}
