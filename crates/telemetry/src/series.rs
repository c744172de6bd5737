//! Per-quantum/epoch time series in fixed-capacity ring buffers, keyed on
//! simulation cycles.
//!
//! A disabled [`SeriesSet`] hands out a sentinel [`SeriesId`] that targets
//! no buffer, so pushes are no-ops without an enabled-flag branch at the
//! call site (the `get_mut` miss *is* the branch, and it is the same code
//! path an out-of-range id would take).

use asm_simcore::Cycle;

/// Handle to one registered series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

/// One named time series: parallel (cycle, value) rings.
#[derive(Debug, Clone)]
struct Series {
    name: String,
    cycles: Vec<Cycle>,
    values: Vec<f64>,
    /// Ring start index once the buffer has wrapped.
    start: usize,
    /// Samples evicted because the ring was full.
    dropped: u64,
}

/// A collection of sim-time series sharing one ring capacity.
///
/// # Examples
///
/// ```
/// use asm_telemetry::SeriesSet;
/// let mut s = SeriesSet::enabled(8);
/// let id = s.register("app0.est_slowdown");
/// s.push(id, 5_000_000, 1.25);
/// assert_eq!(s.samples(id), vec![(5_000_000, 1.25)]);
/// ```
#[derive(Debug, Clone)]
pub struct SeriesSet {
    enabled: bool,
    capacity: usize,
    series: Vec<Series>,
}

impl SeriesSet {
    /// A set that records nothing; registrations return a sentinel id and
    /// pushes are no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        SeriesSet {
            enabled: false,
            capacity: 0,
            series: Vec::new(),
        }
    }

    /// A live set whose rings hold up to `capacity` samples each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "series capacity must be positive");
        SeriesSet {
            enabled: true,
            capacity,
            series: Vec::new(),
        }
    }

    /// Whether this set records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a series (idempotent per name) and returns its handle.
    pub fn register(&mut self, name: &str) -> SeriesId {
        if !self.enabled {
            return SeriesId(u32::MAX);
        }
        if let Some(i) = self.series.iter().position(|s| s.name == name) {
            return SeriesId(i as u32);
        }
        let id = self.series.len() as u32;
        self.series.push(Series {
            name: name.to_owned(),
            cycles: Vec::new(),
            values: Vec::new(),
            start: 0,
            dropped: 0,
        });
        SeriesId(id)
    }

    /// Appends a sample; evicts the oldest when the ring is full. No-op on
    /// a disabled set (the sentinel id resolves to no buffer).
    pub fn push(&mut self, id: SeriesId, cycle: Cycle, value: f64) {
        let cap = self.capacity;
        let Some(s) = self.series.get_mut(id.0 as usize) else {
            return;
        };
        if s.cycles.len() < cap {
            s.cycles.push(cycle);
            s.values.push(value);
        } else {
            s.cycles[s.start] = cycle;
            s.values[s.start] = value;
            s.start = (s.start + 1) % cap;
            s.dropped += 1;
        }
    }

    /// Registered series names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.series.iter().map(|s| s.name.as_str()).collect()
    }

    /// The handle for `name`, if registered.
    #[must_use]
    pub fn id_of(&self, name: &str) -> Option<SeriesId> {
        self.series
            .iter()
            .position(|s| s.name == name)
            .map(|i| SeriesId(i as u32))
    }

    /// The series' samples in chronological order (unwrapping the ring).
    #[must_use]
    pub fn samples(&self, id: SeriesId) -> Vec<(Cycle, f64)> {
        let Some(s) = self.series.get(id.0 as usize) else {
            return Vec::new();
        };
        let n = s.cycles.len();
        (0..n)
            .map(|k| {
                let i = (s.start + k) % n.max(1);
                (s.cycles[i], s.values[i])
            })
            .collect()
    }

    /// Just the values, chronological (for sparkline rendering).
    #[must_use]
    pub fn values(&self, id: SeriesId) -> Vec<f64> {
        self.samples(id).into_iter().map(|(_, v)| v).collect()
    }

    /// Samples evicted from the named ring so far.
    #[must_use]
    pub fn dropped(&self, id: SeriesId) -> u64 {
        self.series.get(id.0 as usize).map_or(0, |s| s.dropped)
    }

    /// Names of series whose rings have wrapped (evicted at least one
    /// sample), in registration order. A wrapped ring silently loses its
    /// oldest samples, so any consumer reconstructing a whole-run
    /// aggregate from `samples` — the sampling tier's per-interval
    /// fingerprint features, say — is reading a truncated history;
    /// callers surface these names as a warning.
    #[must_use]
    pub fn wrapped_names(&self) -> Vec<&str> {
        self.series
            .iter()
            .filter(|s| s.dropped > 0)
            .map(|s| s.name.as_str())
            .collect()
    }
}

impl SeriesSet {
    fn check_restored(&self) -> Result<(), asm_simcore::persist::PersistError> {
        use asm_simcore::persist::ensure;
        for s in &self.series {
            ensure(
                s.cycles.len() == s.values.len() && s.cycles.len() <= self.capacity,
                "ring shape mismatch",
            )?;
            ensure(s.start == 0 || s.start < s.cycles.len(), "ring start out of range")?;
        }
        Ok(())
    }
}

// As with `Registry`, names travel as a cross-check against the restore
// target's own registrations.
asm_simcore::persist_fields!(Series { (= name), cycles, values, start, dropped });
asm_simcore::persist_fields!(SeriesSet { (= enabled), [series] } => SeriesSet::check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_in_order() {
        let mut s = SeriesSet::enabled(4);
        let id = s.register("x");
        for k in 0..3u64 {
            s.push(id, k * 10, k as f64);
        }
        assert_eq!(s.samples(id), vec![(0, 0.0), (10, 1.0), (20, 2.0)]);
        assert_eq!(s.dropped(id), 0);
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let mut s = SeriesSet::enabled(3);
        let id = s.register("x");
        for k in 0..5u64 {
            s.push(id, k, k as f64);
        }
        assert_eq!(s.samples(id), vec![(2, 2.0), (3, 3.0), (4, 4.0)]);
        assert_eq!(s.dropped(id), 2);
    }

    #[test]
    fn wrapped_names_lists_only_wrapped_rings() {
        let mut s = SeriesSet::enabled(2);
        let a = s.register("a");
        let b = s.register("b");
        for k in 0..3u64 {
            s.push(a, k, k as f64);
        }
        s.push(b, 0, 0.0);
        assert_eq!(s.wrapped_names(), vec!["a"]);
        // Exactly at capacity is not a wrap: no sample was lost.
        s.push(b, 1, 1.0);
        assert_eq!(s.wrapped_names(), vec!["a"]);
    }

    #[test]
    fn wrap_state_survives_save_restore() {
        use asm_simcore::persist::Persist as _;
        let mut s = SeriesSet::enabled(2);
        let id = s.register("x");
        for k in 0..4u64 {
            s.push(id, k, k as f64);
        }
        let mut w = asm_simcore::persist::StateWriter::new("series-test", 1);
        s.save(&mut w);
        let bytes = w.finish();

        let mut t = SeriesSet::enabled(2);
        let tid = t.register("x");
        let mut r = asm_simcore::persist::StateReader::new(&bytes, "series-test", 1)
            .expect("fresh artefact parses");
        t.restore(&mut r).expect("same registrations restore");
        assert_eq!(t.dropped(tid), 2);
        assert_eq!(t.wrapped_names(), vec!["x"]);
        assert_eq!(t.samples(tid), s.samples(id));
    }

    #[test]
    fn disabled_set_is_a_total_no_op() {
        let mut s = SeriesSet::disabled();
        let id = s.register("x");
        s.push(id, 1, 1.0);
        assert!(s.samples(id).is_empty());
        assert!(s.names().is_empty());
    }

    #[test]
    fn register_is_idempotent_per_name() {
        let mut s = SeriesSet::enabled(2);
        let a = s.register("same");
        let b = s.register("same");
        assert_eq!(a, b);
        assert_eq!(s.names(), vec!["same"]);
    }

    #[test]
    fn id_of_finds_registered_series() {
        let mut s = SeriesSet::enabled(2);
        let a = s.register("a");
        assert_eq!(s.id_of("a"), Some(a));
        assert_eq!(s.id_of("missing"), None);
    }
}
