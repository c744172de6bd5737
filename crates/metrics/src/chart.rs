//! Terminal bar charts for experiment output.
//!
//! The paper's figures are bar charts; rendering them directly in the
//! terminal makes `asm-experiments` output self-contained (CSV export
//! remains available for real plotting).

use std::fmt;

/// Width of the longest bar, in characters.
const WIDTH: usize = 50;

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
}

impl BarChart {
    /// Creates an empty chart with a title.
    #[must_use]
    pub fn new(title: &str) -> Self {
        BarChart {
            title: title.to_owned(),
            bars: Vec::new(),
        }
    }

    /// Appends one bar. Negative or non-finite values render as empty bars.
    pub fn bar(&mut self, label: &str, value: f64) {
        self.bars.push((label.to_owned(), value));
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
                ((v / max) * WIDTH as f64).round() as usize
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
        c.bar("a", 25.0);
        c.bar("b", 50.0);
        let s = c.to_string();
        let bar_len = |label: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with(label))
                .map(|l| l.matches('█').count())
                .unwrap()
        };
        assert_eq!(bar_len("b"), WIDTH);
        assert_eq!(bar_len("a"), WIDTH / 2);
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
        assert!(c.bars.is_empty());
        assert_eq!(c.to_string().trim(), "only title");
    }
}
