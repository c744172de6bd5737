//! Small statistics helpers used throughout the simulator: a running mean
//! and fixed-bucket histograms (used for the paper's latency-distribution
//! and error-distribution figures).

use std::fmt;

/// A running mean, updated in place (Welford's update of the mean).
///
/// # Examples
///
/// ```
/// use asm_simcore::RunningStats;
/// let mut s = RunningStats::default();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(x);
/// }
/// assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
}

impl RunningStats {
    /// Adds one sample.
    pub fn add(&mut self, sample: f64) {
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Returns the mean, or `None` if no samples were added.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }
}

/// A histogram over `[0, bucket_width * buckets)` with uniform buckets and an
/// overflow bucket; used for the miss-service-time distributions of Figure 6
/// and the error distribution of Figure 4.
///
/// # Examples
///
/// ```
/// use asm_simcore::Histogram;
/// let mut h = Histogram::new(10.0, 5);
/// h.add(3.0);
/// h.add(12.0);
/// h.add(1000.0); // overflow
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(1), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` uniform buckets of width
    /// `bucket_width` plus an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive or `buckets` is zero.
    #[must_use]
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Reassembles a histogram from its parts (the persistence path of
    /// the alone-run cache). The total is recomputed as the sum of
    /// `counts` and `overflow`, which is exactly what a sequence of
    /// [`add`](Self::add) calls would have left behind.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive or `counts` is empty.
    #[must_use]
    pub fn from_parts(bucket_width: f64, counts: Vec<u64>, overflow: u64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(!counts.is_empty(), "need at least one bucket");
        let total = counts.iter().sum::<u64>() + overflow;
        Histogram {
            bucket_width,
            counts,
            overflow,
            total,
        }
    }

    /// Adds one sample. Negative samples land in bucket 0.
    pub fn add(&mut self, sample: f64) {
        self.total += 1;
        let idx = (sample.max(0.0) / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Returns the count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Returns the count of samples beyond the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Returns the total number of samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns the number of regular buckets.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Returns the width of each regular bucket.
    #[must_use]
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// Returns the inclusive-exclusive range covered by bucket `i`.
    #[must_use]
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        (
            i as f64 * self.bucket_width,
            (i + 1) as f64 * self.bucket_width,
        )
    }

    /// Returns each bucket's share of the total (overflow excluded from the
    /// iteration but included in the denominator). Empty histogram yields
    /// all-zero fractions.
    pub fn fractions(&self) -> impl Iterator<Item = f64> + '_ {
        let total = self.total.max(1) as f64;
        self.counts.iter().map(move |&c| c as f64 / total)
    }

    /// Returns the `q`-quantile (`0 < q <= 1`) under the integer-bucket
    /// midpoint rule: the rank-`ceil(q * total)` sample's bucket (ranks
    /// counted from 1 in bucket order) is located exactly, and the bucket's
    /// midpoint is reported as the quantile value. This is exact at bucket
    /// granularity — no interpolation between buckets, so two histograms
    /// with the same counts always report the same quantiles.
    ///
    /// Returns `None` when the histogram is empty, when `q` is outside
    /// `(0, 1]`, or when the rank falls in the overflow bucket (whose
    /// upper edge, and hence midpoint, is unknown).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i as f64 * self.bucket_width + self.bucket_width / 2.0);
            }
        }
        None // rank lands in the overflow bucket
    }

    /// The median ([`quantile`](Self::quantile) at 0.5).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 95th percentile.
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// The bucket-midpoint mean of the **in-range** samples (overflow
    /// samples carry no value and are excluded from both numerator and
    /// denominator). `None` when no sample landed in a regular bucket.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let in_range = self.total - self.overflow;
        if in_range == 0 {
            return None;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (i as f64 * self.bucket_width + self.bucket_width / 2.0))
            .sum();
        Some(sum / in_range as f64)
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket width or count.
    pub fn merge(&mut self, other: &Histogram) {
        // Same *configured* value, not numerically close: compare bits.
        assert_eq!(
            self.bucket_width.to_bits(),
            other.bucket_width.to_bits(),
            "bucket width mismatch"
        );
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

impl Histogram {
    fn check_restored(&self) -> Result<(), crate::persist::PersistError> {
        use crate::persist::ensure;
        let width = self.bucket_width;
        ensure(width.is_finite() && width > 0.0 && !self.counts.is_empty(), "bad geometry")?;
        let in_buckets = self.counts.iter().try_fold(self.overflow, |a, &c| a.checked_add(c));
        ensure(in_buckets == Some(self.total), "total mismatch")
    }
}

// Geometry travels with the counts: a manifest reloads a histogram with
// no configuration at hand. `Default` is the blank such a load fills in.
crate::persist_fields!(Histogram { bucket_width, counts, overflow, total } => Histogram::check_restored);

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram (bucket width {}):", self.bucket_width)?;
        for (i, c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bucket_range(i);
            writeln!(f, "  [{lo:8.1}, {hi:8.1}): {c}")?;
        }
        write!(f, "  overflow: {}", self.overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_empty() {
        let mut s = RunningStats::default();
        assert_eq!(s.mean(), None);
        for x in [3.0, -1.0, 7.0] {
            s.add(x);
        }
        assert_eq!(s.mean(), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(5.0, 3);
        for x in [0.0, 4.9, 5.0, 14.9, 15.0, 99.0] {
            h.add(x);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_negative_lands_in_first_bucket() {
        let mut h = Histogram::new(1.0, 2);
        h.add(-3.0);
        assert_eq!(h.bucket_count(0), 1);
    }

    #[test]
    fn histogram_fractions_sum_below_one_with_overflow() {
        let mut h = Histogram::new(1.0, 2);
        h.add(0.5);
        h.add(10.0);
        let s: f64 = h.fractions().sum();
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(1.0, 2);
        a.add(0.0);
        let mut b = Histogram::new(1.0, 2);
        b.add(1.5);
        b.add(9.0);
        a.merge(&b);
        assert_eq!(a.bucket_count(0), 1);
        assert_eq!(a.bucket_count(1), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn quantile_follows_midpoint_rule() {
        // 10 samples of value ~2.5 (bucket 0 of width 5), 80 of ~7.5
        // (bucket 1), 10 of ~12.5 (bucket 2).
        let h = Histogram::from_parts(5.0, vec![10, 80, 10], 0);
        assert_eq!(h.p50(), Some(7.5));
        assert_eq!(h.quantile(0.10), Some(2.5));
        // rank(0.90) = 90, cumulative through bucket 1 is exactly 90.
        assert_eq!(h.quantile(0.90), Some(7.5));
        assert_eq!(h.p95(), Some(12.5));
        assert_eq!(h.p99(), Some(12.5));
        assert_eq!(h.quantile(1.0), Some(12.5));
    }

    #[test]
    fn quantile_single_sample_every_q_hits_its_bucket() {
        let mut h = Histogram::new(2.0, 4);
        h.add(5.0); // bucket 2, midpoint 5.0
        for q in [0.001, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(5.0));
        }
    }

    #[test]
    fn quantile_edge_cases_return_none() {
        let empty = Histogram::new(1.0, 4);
        assert_eq!(empty.p50(), None);

        let mut h = Histogram::new(1.0, 2);
        h.add(0.5);
        assert_eq!(h.quantile(0.0), None, "q must be > 0");
        assert_eq!(h.quantile(1.5), None, "q must be <= 1");
        assert_eq!(h.quantile(f64::NAN), None);

        // Half the mass in the overflow bucket: p50 resolvable, p99 not.
        let ov = Histogram::from_parts(1.0, vec![5, 0], 5);
        assert_eq!(ov.p50(), Some(0.5));
        assert_eq!(ov.p99(), None, "rank in overflow has no midpoint");
    }

    #[test]
    fn quantile_empty_histogram_is_none_at_every_q() {
        let empty = Histogram::new(2.0, 3);
        for q in [0.001, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), None, "q = {q}");
        }
        assert_eq!(empty.p95(), None);
        assert_eq!(empty.p99(), None);
    }

    #[test]
    fn quantile_single_bucket_geometry() {
        // One regular bucket of width 4: every in-range sample reports
        // the same midpoint at every q, and the first sample at the
        // bucket's upper edge is already overflow.
        let mut h = Histogram::new(4.0, 1);
        h.add(0.0);
        h.add(3.9);
        for q in [0.001, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(2.0), "q = {q}");
        }
        h.add(4.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.p50(), Some(2.0));
        assert_eq!(h.quantile(1.0), None, "rank 3 falls in the overflow bucket");
    }

    #[test]
    fn quantile_all_mass_in_overflow_is_none_at_every_q() {
        let h = Histogram::from_parts(1.0, vec![0, 0], 9);
        for q in [0.001, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q = {q}");
        }
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(
            h.fractions().sum::<f64>(),
            0.0,
            "all mass in overflow: every regular fraction is 0"
        );
    }

    #[test]
    fn mean_is_midpoint_weighted_over_in_range_samples() {
        let h = Histogram::from_parts(10.0, vec![1, 0, 3], 0);
        // midpoints 5 and 25: (5 + 3*25) / 4
        assert!((h.mean().unwrap() - 20.0).abs() < 1e-12);

        // Overflow samples are excluded entirely.
        let ov = Histogram::from_parts(10.0, vec![2, 0], 7);
        assert!((ov.mean().unwrap() - 5.0).abs() < 1e-12);

        assert_eq!(Histogram::new(1.0, 3).mean(), None);
        assert_eq!(Histogram::from_parts(1.0, vec![0], 4).mean(), None);
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(1.0, 2);
        let b = Histogram::new(2.0, 2);
        a.merge(&b);
    }
}
