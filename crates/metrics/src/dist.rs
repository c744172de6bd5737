//! Error-bucket distributions (Figure 4).

use std::fmt;

/// Buckets slowdown-estimation errors into ranges (Figure 4 uses 10%-wide
/// buckets) and reports the fraction of estimates in each.
///
/// # Examples
///
/// ```
/// use asm_metrics::ErrorDistribution;
/// let mut d = ErrorDistribution::new(10.0, 5);
/// for e in [3.0, 7.0, 15.0, 95.0] {
///     d.add(e);
/// }
/// assert_eq!(d.fraction_within(20.0), 0.75);
/// assert_eq!(d.max_error(), Some(95.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorDistribution {
    hist: asm_simcore::Histogram,
    max_error: Option<f64>,
}

impl ErrorDistribution {
    /// Creates a distribution with `buckets` buckets of `width` percent
    /// each plus an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `width` is non-positive or `buckets` is zero.
    #[must_use]
    pub fn new(width: f64, buckets: usize) -> Self {
        ErrorDistribution {
            hist: asm_simcore::Histogram::new(width, buckets),
            max_error: None,
        }
    }

    /// Adds one error sample (percent; NaN ignored).
    pub fn add(&mut self, error_pct: f64) {
        if !error_pct.is_finite() {
            return;
        }
        self.hist.add(error_pct);
        self.max_error = Some(self.max_error.map_or(error_pct, |m| m.max(error_pct)));
    }

    /// Fraction of samples with error strictly below `threshold_pct`
    /// (threshold must align with a bucket boundary for an exact answer).
    #[must_use]
    pub fn fraction_within(&self, threshold_pct: f64) -> f64 {
        if self.hist.total() == 0 {
            return 0.0;
        }
        let buckets = (threshold_pct / self.hist.bucket_width()) as usize;
        let within: u64 = (0..buckets.min(self.hist.buckets()))
            .map(|i| self.hist.bucket_count(i))
            .sum();
        within as f64 / self.hist.total() as f64
    }

    /// The largest error seen.
    #[must_use]
    pub fn max_error(&self) -> Option<f64> {
        self.max_error
    }

    /// Per-bucket (range, fraction) pairs, then the overflow fraction.
    #[must_use]
    pub fn buckets(&self) -> Vec<((f64, f64), f64)> {
        let total = self.hist.total().max(1) as f64;
        let mut out: Vec<((f64, f64), f64)> = (0..self.hist.buckets())
            .map(|i| {
                (
                    self.hist.bucket_range(i),
                    self.hist.bucket_count(i) as f64 / total,
                )
            })
            .collect();
        let last = self.hist.buckets() as f64 * self.hist.bucket_width();
        out.push(((last, f64::INFINITY), self.hist.overflow() as f64 / total));
        out
    }
}

impl fmt::Display for ErrorDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ((lo, hi), frac) in self.buckets() {
            if hi.is_infinite() {
                writeln!(f, "  >{lo:5.0}%      : {:5.1}%", frac * 100.0)?;
            } else {
                writeln!(f, "  [{lo:3.0}%, {hi:3.0}%): {:5.1}%", frac * 100.0)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_accumulate() {
        let mut d = ErrorDistribution::new(10.0, 4);
        for e in [1.0, 2.0, 11.0, 25.0, 55.0] {
            d.add(e);
        }
        assert!((d.fraction_within(10.0) - 0.4).abs() < 1e-12);
        assert!((d.fraction_within(30.0) - 0.8).abs() < 1e-12);
        assert_eq!(d.hist.total(), 5);
    }

    #[test]
    fn nan_samples_ignored() {
        let mut d = ErrorDistribution::new(10.0, 4);
        d.add(f64::NAN);
        assert_eq!(d.hist.total(), 0);
        assert_eq!(d.max_error(), None);
    }

    #[test]
    fn overflow_fraction_reported() {
        let mut d = ErrorDistribution::new(10.0, 2);
        d.add(5.0);
        d.add(500.0);
        let buckets = d.buckets();
        let overflow = buckets.last().unwrap();
        assert!(overflow.0 .1.is_infinite());
        assert!((overflow.1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_is_zero_within() {
        let d = ErrorDistribution::new(10.0, 2);
        assert_eq!(d.fraction_within(10.0), 0.0);
    }
}
