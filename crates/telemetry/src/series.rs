//! Named time series keyed on simulation cycles: a plain, ordered
//! `name → samples` container. Nothing is pushed into it while a run
//! executes; the simulator renders a whole run's series into one of these
//! when telemetry is taken (`asm_core::System::take_telemetry`), from the
//! per-quantum records it keeps anyway.

use asm_simcore::Cycle;

/// An ordered collection of named `(cycle, value)` series.
///
/// # Examples
///
/// ```
/// use asm_telemetry::SeriesSet;
/// let mut s = SeriesSet::default();
/// s.push("app0.est_slowdown".to_owned(), vec![(5_000_000, 1.25)]);
/// assert_eq!(s.get("app0.est_slowdown"), Some(&[(5_000_000, 1.25)][..]));
/// assert_eq!(s.iter().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    series: Vec<(String, Vec<(Cycle, f64)>)>,
}

impl SeriesSet {
    /// Appends the series `name` with its chronological `samples`; a
    /// series without samples is still listed.
    pub fn push(&mut self, name: String, samples: Vec<(Cycle, f64)>) {
        self.series.push((name, samples));
    }

    /// Every series with its samples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[(Cycle, f64)])> {
        self.series.iter().map(|(n, s)| (n.as_str(), s.as_slice()))
    }

    /// The samples of the series `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&[(Cycle, f64)]> {
        self.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_in_order() {
        let mut s = SeriesSet::default();
        s.push("b".to_owned(), vec![(0, 0.0), (10, 1.0)]);
        s.push("a".to_owned(), Vec::new());
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(s.get("b"), Some(&[(0, 0.0), (10, 1.0)][..]));
        assert_eq!(s.get("a"), Some(&[][..]));
        assert_eq!(s.get("missing"), None);
    }
}
