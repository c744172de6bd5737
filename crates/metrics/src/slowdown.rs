//! Slowdown-estimation accuracy (§5, Metrics).

use asm_simcore::RunningStats;

/// The paper's error metric:
/// `|Estimated − Actual| / Actual × 100%`.
///
/// Returns `f64::NAN` if `actual` is not positive (no valid ground truth).
///
/// # Examples
///
/// ```
/// use asm_metrics::estimation_error_pct;
/// assert_eq!(estimation_error_pct(1.1, 1.0), 10.000000000000009);
/// assert_eq!(estimation_error_pct(0.9, 1.0), 9.999999999999998);
/// ```
#[must_use]
pub fn estimation_error_pct(estimated: f64, actual: f64) -> f64 {
    if actual <= 0.0 {
        return f64::NAN;
    }
    ((estimated - actual) / actual).abs() * 100.0
}

/// Aggregates samples into a mean error — the per-benchmark bars of
/// Figures 2/3.
#[derive(Debug, Clone, Default)]
pub struct ErrorAggregate {
    stats: RunningStats,
}

impl ErrorAggregate {
    /// Creates an empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a raw error percentage.
    pub fn add_error_pct(&mut self, e: f64) {
        if e.is_finite() {
            self.stats.add(e);
        }
    }

    /// Mean error in percent, or `None` if empty.
    #[must_use]
    pub fn mean_pct(&self) -> Option<f64> {
        self.stats.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_symmetric_in_magnitude() {
        let over = estimation_error_pct(1.2, 1.0);
        let under = estimation_error_pct(0.8, 1.0);
        assert!((over - 20.0).abs() < 1e-9);
        assert!((under - 20.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_estimate_is_zero_error() {
        assert_eq!(estimation_error_pct(2.5, 2.5), 0.0);
    }

    #[test]
    fn invalid_actual_is_nan() {
        assert!(estimation_error_pct(1.0, 0.0).is_nan());
        assert!(estimation_error_pct(1.0, -1.0).is_nan());
    }

    #[test]
    fn aggregate_tracks_mean_and_max() {
        let mut agg = ErrorAggregate::new();
        for (e, a) in [(1.1, 1.0), (1.3, 1.0)] {
            agg.add_error_pct(estimation_error_pct(e, a));
        }
        assert!((agg.mean_pct().unwrap() - 20.0).abs() < 1e-9);
        assert!((agg.stats.max().unwrap() - 30.0).abs() < 1e-9);
        assert_eq!(agg.stats.count(), 2);
    }

    #[test]
    fn aggregate_skips_nan() {
        let mut agg = ErrorAggregate::new();
        agg.add_error_pct(estimation_error_pct(1.0, 0.0));
        assert_eq!(agg.stats.count(), 0);
    }
}
