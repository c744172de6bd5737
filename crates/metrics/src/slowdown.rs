//! Slowdown-estimation accuracy (§5, Metrics).

use asm_simcore::RunningStats;

/// One quantum's slowdown estimate for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownSample {
    /// Profile name of the application.
    pub app_name: String,
    /// The model's estimated slowdown.
    pub estimated: f64,
    /// The measured slowdown (`IPC_alone / IPC_shared` over the same work).
    pub actual: f64,
}

impl SlowdownSample {
    /// This sample's estimation error in percent.
    #[must_use]
    pub fn error_pct(&self) -> f64 {
        estimation_error_pct(self.estimated, self.actual)
    }
}

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

/// Aggregates samples into mean error, standard deviation, and maximum —
/// the per-benchmark bars of Figures 2/3 and the spread bars of Figures
/// 5/7/8.
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

    /// Adds one sample (ignored if its error is NaN).
    pub fn add(&mut self, sample: &SlowdownSample) {
        let e = sample.error_pct();
        if e.is_finite() {
            self.stats.add(e);
        }
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

    /// Largest observed error.
    #[must_use]
    pub fn max_pct(&self) -> Option<f64> {
        self.stats.max()
    }

    /// Number of samples aggregated.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stats.count()
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
            agg.add(&SlowdownSample {
                app_name: "x".into(),
                estimated: e,
                actual: a,
            });
        }
        assert!((agg.mean_pct().unwrap() - 20.0).abs() < 1e-9);
        assert!((agg.max_pct().unwrap() - 30.0).abs() < 1e-9);
        assert_eq!(agg.count(), 2);
    }

    #[test]
    fn aggregate_skips_nan() {
        let mut agg = ErrorAggregate::new();
        agg.add(&SlowdownSample {
            app_name: "x".into(),
            estimated: 1.0,
            actual: 0.0,
        });
        assert_eq!(agg.count(), 0);
    }
}
