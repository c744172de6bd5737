//! Terminal bar charts for experiment output.
//!
//! The paper's figures are bar charts; rendering them directly in the
//! terminal makes `asm-experiments` output self-contained (CSV export
//! remains available for real plotting).

use std::fmt;

/// A horizontal bar chart with labelled bars, optionally grouped.
///
/// # Examples
///
/// ```
/// use asm_metrics::BarChart;
/// let mut c = BarChart::new("slowdown estimation error (%)");
/// c.bar("FST", 29.4);
/// c.bar("PTCA", 40.4);
/// c.bar("ASM", 9.9);
/// let s = c.to_string();
/// assert!(s.contains("ASM"));
/// assert!(s.contains('█'));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BarChart {
    title: String,
    bars: Vec<(String, f64)>,
    width: usize,
}

impl BarChart {
    /// Creates an empty chart with a title.
    #[must_use]
    pub fn new(title: &str) -> Self {
        BarChart {
            title: title.to_owned(),
            bars: Vec::new(),
            width: 50,
        }
    }

    /// Sets the maximum bar width in characters (default 50).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn set_width(&mut self, width: usize) {
        assert!(width > 0, "width must be positive");
        self.width = width;
    }

    /// Appends one bar. Negative or non-finite values render as empty bars.
    pub fn bar(&mut self, label: &str, value: f64) {
        self.bars.push((label.to_owned(), value));
    }

    /// Number of bars.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bars.len()
    }

    /// Whether the chart has no bars.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bars.is_empty()
    }
}

impl fmt::Display for BarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let max = self
            .bars
            .iter()
            .map(|(_, v)| if v.is_finite() { v.max(0.0) } else { 0.0 })
            .fold(0.0f64, f64::max);
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, value) in &self.bars {
            let v = if value.is_finite() {
                value.max(0.0)
            } else {
                0.0
            };
            let chars = if max > 0.0 {
                ((v / max) * self.width as f64).round() as usize
            } else {
                0
            };
            writeln!(f, "  {label:<label_w$} |{} {v:.2}", "█".repeat(chars))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_the_maximum() {
        let mut c = BarChart::new("t");
        c.set_width(10);
        c.bar("a", 5.0);
        c.bar("b", 10.0);
        let s = c.to_string();
        let bar_len = |label: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with(label))
                .map(|l| l.matches('█').count())
                .unwrap()
        };
        assert_eq!(bar_len("b"), 10);
        assert_eq!(bar_len("a"), 5);
    }

    #[test]
    fn degenerate_values_render_empty() {
        let mut c = BarChart::new("t");
        c.bar("nan", f64::NAN);
        c.bar("neg", -3.0);
        let s = c.to_string();
        assert!(!s.contains('█'));
    }

    #[test]
    fn empty_chart_is_just_the_title() {
        let c = BarChart::new("only title");
        assert!(c.is_empty());
        assert_eq!(c.to_string().trim(), "only title");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let mut c = BarChart::new("t");
        c.set_width(0);
    }
}
