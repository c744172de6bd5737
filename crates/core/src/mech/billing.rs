//! Fair pricing in consolidated cloud systems (§7.4).
//!
//! Cloud pricing schemes bill by resource allocation and wall-clock run
//! length, which silently charges tenants for the interference their
//! co-tenants caused. With an online slowdown estimate, the provider can
//! bill for *alone-equivalent* time instead: a job that ran three hours at
//! an estimated 3x slowdown is billed one hour.

// Billing/accounting arithmetic: every `as` cast is justified or replaced
// by a lossless conversion (DESIGN.md §8, policy R5).
#![deny(clippy::as_conversions)]

use std::time::Duration;

/// A tenant's usage over a billing period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageRecord {
    /// Wall-clock time the job ran while consolidated.
    pub wall_time: Duration,
    /// The mean slowdown estimated over the period (≥ 1).
    pub estimated_slowdown: f64,
}

impl UsageRecord {
    /// The alone-equivalent time to bill: `wall_time / slowdown`.
    ///
    /// Slowdowns below 1 (estimator noise) are clamped to 1, so a tenant
    /// is never billed more than wall time.
    ///
    /// # Examples
    ///
    /// ```
    /// use asm_core::mech::billing::UsageRecord;
    /// use std::time::Duration;
    /// let rec = UsageRecord {
    ///     wall_time: Duration::from_secs(3 * 3600),
    ///     estimated_slowdown: 3.0,
    /// };
    /// assert_eq!(rec.billable_time(), Duration::from_secs(3600));
    /// ```
    #[must_use]
    pub fn billable_time(&self) -> Duration {
        let slowdown = self.estimated_slowdown.max(1.0);
        Duration::from_secs_f64(self.wall_time.as_secs_f64() / slowdown)
    }
}

/// Aggregates per-quantum slowdown estimates into one billing-period mean,
/// weighting each quantum equally (quanta have fixed length).
///
/// Returns `None` when `estimates` is empty or contains non-finite values.
#[must_use]
pub fn mean_slowdown(estimates: &[f64]) -> Option<f64> {
    if estimates.is_empty() || estimates.iter().any(|s| !s.is_finite()) {
        return None;
    }
    #[expect(
        clippy::as_conversions,
        reason = "a billing period holds far fewer than 2^53 quanta, so the usize→f64 conversion of the count is exact"
    )]
    let quanta = estimates.len() as f64;
    Some(estimates.iter().sum::<f64>() / quanta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_interference_bills_wall_time() {
        let rec = UsageRecord {
            wall_time: Duration::from_secs(100),
            estimated_slowdown: 1.0,
        };
        assert_eq!(rec.billable_time(), Duration::from_secs(100));
    }

    #[test]
    fn sub_unity_slowdown_clamped() {
        let rec = UsageRecord {
            wall_time: Duration::from_secs(100),
            estimated_slowdown: 0.5,
        };
        assert_eq!(rec.billable_time(), Duration::from_secs(100));
    }

    #[test]
    fn discount_matches_slowdown() {
        let rec = UsageRecord {
            wall_time: Duration::from_secs(100),
            estimated_slowdown: 4.0,
        };
        assert_eq!(rec.billable_time(), Duration::from_secs(25));
    }

    #[test]
    fn mean_slowdown_validates_input() {
        assert_eq!(mean_slowdown(&[]), None);
        assert_eq!(mean_slowdown(&[1.0, f64::NAN]), None);
        assert_eq!(mean_slowdown(&[1.0, 3.0]), Some(2.0));
    }
}
