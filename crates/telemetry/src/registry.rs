//! The counter/gauge registry: flat `u64` arena + static handle
//! registration.
//!
//! Probe sites hold a [`CounterId`] and call [`Registry::add`] — one
//! bounds-checked indexed add, no name lookup, no branching on whether
//! telemetry is enabled. A disabled registry aliases every handle onto a
//! single scratch slot whose value is never observable (snapshots are
//! empty), so the enabled and disabled hot paths execute the *same*
//! instruction sequence; only what is reported differs.

/// Handle to one registered counter. Obtained from
/// [`Registry::register`]; cheap to copy and store in per-app vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// A hierarchical-name counter registry over a flat `u64` arena.
///
/// # Examples
///
/// ```
/// use asm_telemetry::Registry;
/// let mut r = Registry::enabled();
/// let hits = r.register("llc.app0.hits");
/// r.add(hits, 3);
/// assert_eq!(r.snapshot(), vec![("llc.app0.hits".to_string(), 3)]);
///
/// let mut off = Registry::disabled();
/// let h = off.register("llc.app0.hits");
/// off.add(h, 3); // same indexed add, lands in the scratch slot
/// assert!(off.snapshot().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: bool,
    /// Registered names, parallel to `values` when enabled. Disabled
    /// registries keep this empty (and `values` holds one scratch slot).
    names: Vec<String>,
    values: Vec<u64>,
}

impl Registry {
    /// A registry that records nothing: every registration returns a
    /// handle onto one shared scratch slot and snapshots are empty.
    #[must_use]
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            names: Vec::new(),
            values: vec![0],
        }
    }

    /// A live registry.
    #[must_use]
    pub fn enabled() -> Self {
        Registry {
            enabled: true,
            names: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers `name` and returns its handle. Registering the same name
    /// twice returns the existing handle (registration is setup-time code;
    /// the linear scan never runs on the simulation path).
    pub fn register(&mut self, name: &str) -> CounterId {
        if !self.enabled {
            return CounterId(0);
        }
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return CounterId(i as u32);
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.values.push(0);
        CounterId(id)
    }

    /// Adds `n` to the counter — one indexed add, enabled or not.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id.0 as usize] += n;
    }

    /// Sets the counter to an absolute value (gauge semantics).
    #[inline]
    pub fn set(&mut self, id: CounterId, v: u64) {
        self.values[id.0 as usize] = v;
    }

    /// Registers `name` (if needed) and sets it — convenience for
    /// end-of-run gauges pulled from component state.
    pub fn set_named(&mut self, name: &str, v: u64) {
        let id = self.register(name);
        self.set(id, v);
    }

    /// The counter's current value (0 when disabled: the scratch slot is
    /// not readable through this API).
    #[must_use]
    pub fn get(&self, id: CounterId) -> u64 {
        if self.enabled {
            self.values[id.0 as usize]
        } else {
            0
        }
    }

    /// All `(name, value)` pairs, sorted by name. Empty when disabled.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        if !self.enabled {
            return Vec::new();
        }
        let mut out: Vec<(String, u64)> = self
            .names
            .iter()
            .cloned()
            .zip(self.values.iter().copied())
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

// The names travel as a cross-check: the restore target re-registered
// the same counters during construction, so they are compared, not rebuilt.
asm_simcore::persist_fields!(Registry { (= enabled), (= names), [values] });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_registry_counts_per_handle() {
        let mut r = Registry::enabled();
        let a = r.register("a.x");
        let b = r.register("a.y");
        r.add(a, 2);
        r.add(b, 5);
        r.add(a, 1);
        assert_eq!(r.get(a), 3);
        assert_eq!(r.get(b), 5);
        assert_eq!(
            r.snapshot(),
            vec![("a.x".to_string(), 3), ("a.y".to_string(), 5)]
        );
    }

    #[test]
    fn duplicate_registration_returns_same_handle() {
        let mut r = Registry::enabled();
        let a = r.register("dup");
        let b = r.register("dup");
        assert_eq!(a, b);
        r.add(a, 1);
        r.add(b, 1);
        assert_eq!(r.get(a), 2);
    }

    #[test]
    fn disabled_registry_aliases_the_scratch_slot_and_reports_nothing() {
        let mut r = Registry::disabled();
        let a = r.register("a");
        let b = r.register("b");
        assert_eq!(a, b);
        r.add(a, 10);
        r.add(b, 10);
        assert_eq!(r.get(a), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_name_sorted_not_registration_ordered() {
        let mut r = Registry::enabled();
        r.register("z.last");
        r.register("a.first");
        r.set_named("m.mid", 7);
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn gauge_set_overwrites() {
        let mut r = Registry::enabled();
        let g = r.register("gauge");
        r.set(g, 100);
        r.set(g, 42);
        assert_eq!(r.get(g), 42);
    }
}
