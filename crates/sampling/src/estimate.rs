//! Weighted estimates with confidence intervals.
//!
//! Every figure metric the sampled tier reports is an [`Estimate`]: a
//! value plus a half-width `ci` such that `value ± ci` is (approximately)
//! a 95% confidence interval under the stratified-sampling model of
//! DESIGN.md §12. Exact quantities — full runs, singleton strata —
//! carry `ci = 0`.

/// z-score of the two-sided 95% confidence interval.
pub const Z95: f64 = 1.959_963_985_987;

/// A metric value with a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// The point estimate.
    pub value: f64,
    /// Half-width of the 95% confidence interval (0 for exact values).
    pub ci: f64,
}

asm_simcore::persist_fields!(Estimate { value, ci });

impl Estimate {
    /// An exact value (zero-width interval).
    #[must_use]
    pub fn exact(value: f64) -> Self {
        Estimate { value, ci: 0.0 }
    }

    /// Renders `value ±ci` with `decimals` fractional digits — the cell
    /// format of the sampled tier's tables.
    #[must_use]
    pub fn cell(&self, decimals: usize) -> String {
        format!(
            "{:.d$} ±{:.d$}",
            self.value,
            self.ci,
            d = decimals
        )
    }

    /// The maximum by value (unfairness over per-app slowdowns), carrying
    /// the winner's interval. Non-finite values are skipped; `None` if
    /// nothing survives. Ties keep the earliest entry, matching
    /// `asm_metrics::max_slowdown` on the values alone.
    #[must_use]
    pub fn max_of(estimates: &[Estimate]) -> Option<Estimate> {
        estimates
            .iter()
            .filter(|e| e.value.is_finite())
            .fold(None, |acc: Option<Estimate>, e| match acc {
                Some(best) if best.value >= e.value => Some(best),
                _ => Some(*e),
            })
    }

    /// Harmonic speedup `n / Σ slowdown_i` over per-app slowdowns, with
    /// the interval propagated by the delta method:
    /// `∂h/∂S_i = -h² / n`, so `ci_h = (h²/n)·sqrt(Σ ci_i²)`. Mirrors
    /// `asm_metrics::harmonic_speedup`: `None` for an empty slice or any
    /// non-positive slowdown; non-finite values disqualify the metric the
    /// same way they would the underlying sum.
    #[must_use]
    pub fn harmonic_speedup_of(estimates: &[Estimate]) -> Option<Estimate> {
        let vals: Vec<f64> = estimates
            .iter()
            .map(|e| e.value)
            .filter(|v| v.is_finite())
            .collect();
        let h = asm_metrics::harmonic_speedup(&vals)?;
        let n = vals.len() as f64;
        let var: f64 = estimates
            .iter()
            .filter(|e| e.value.is_finite())
            .map(|e| e.ci * e.ci)
            .sum();
        Some(Estimate {
            value: h,
            ci: h * h / n * var.sqrt(),
        })
    }

    /// The mean, with independent-error propagation
    /// `ci = sqrt(Σ ci_i²) / n`. Non-finite values are skipped; `None`
    /// if nothing survives.
    #[must_use]
    pub fn mean_of(estimates: &[Estimate]) -> Option<Estimate> {
        let kept: Vec<&Estimate> = estimates.iter().filter(|e| e.value.is_finite()).collect();
        if kept.is_empty() {
            return None;
        }
        let n = kept.len() as f64;
        let sum: f64 = kept.iter().map(|e| e.value).sum();
        let var: f64 = kept.iter().map(|e| e.ci * e.ci).sum();
        Some(Estimate {
            value: sum / n,
            ci: var.sqrt() / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats_value_and_halfwidth() {
        let e = Estimate {
            value: 2.345,
            ci: 0.0678,
        };
        assert_eq!(e.cell(2), "2.35 ±0.07");
        assert_eq!(Estimate::exact(1.0).cell(3), "1.000 ±0.000");
    }

    #[test]
    fn max_of_carries_the_winners_interval() {
        let v = [
            Estimate { value: 1.5, ci: 0.1 },
            Estimate { value: 3.0, ci: 0.4 },
            Estimate {
                value: f64::NAN,
                ci: 9.0,
            },
        ];
        let m = Estimate::max_of(&v).unwrap();
        assert!((m.value - 3.0).abs() < 1e-12);
        assert!((m.ci - 0.4).abs() < 1e-12);
        assert!(Estimate::max_of(&[]).is_none());
    }

    #[test]
    fn harmonic_speedup_matches_metrics_crate_on_values() {
        let v = [
            Estimate { value: 2.0, ci: 0.0 },
            Estimate { value: 2.0, ci: 0.0 },
        ];
        let h = Estimate::harmonic_speedup_of(&v).unwrap();
        assert!((h.value - 0.5).abs() < 1e-12);
        assert!(h.ci.abs() < 1e-12);
    }

    #[test]
    fn harmonic_speedup_propagates_ci() {
        let v = [
            Estimate { value: 2.0, ci: 0.2 },
            Estimate { value: 4.0, ci: 0.0 },
        ];
        let h = Estimate::harmonic_speedup_of(&v).unwrap();
        // h = 2/6 = 1/3; ci = h²/2 · 0.2
        assert!((h.value - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.ci - (1.0 / 9.0) / 2.0 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn mean_of_averages_and_shrinks_ci() {
        let v = [
            Estimate { value: 1.0, ci: 0.3 },
            Estimate { value: 3.0, ci: 0.4 },
        ];
        let m = Estimate::mean_of(&v).unwrap();
        assert!((m.value - 2.0).abs() < 1e-12);
        assert!((m.ci - 0.25).abs() < 1e-12);
    }
}
