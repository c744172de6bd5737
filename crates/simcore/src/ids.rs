//! Identifiers for applications (hardware contexts) in the simulated system.

use std::fmt;

/// Identifies one application / hardware context in a multi-programmed
/// workload. In this reproduction each core runs exactly one single-threaded
/// application, so `AppId` doubles as the core identifier.
///
/// # Examples
///
/// ```
/// use asm_simcore::AppId;
/// let id = AppId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(format!("{id}"), "app3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(u16);

impl AppId {
    /// Creates an identifier for the application at position `index` in the
    /// workload (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 16 bits (the simulator supports at
    /// most 65,535 contexts, far beyond the paper's 16-core evaluations).
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(index <= u16::MAX as usize, "AppId index {index} too large");
        AppId(index as u16)
    }

    /// Returns the 0-based position of this application in the workload.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the first `count` application ids, `app0..appN`.
    ///
    /// ```
    /// use asm_simcore::AppId;
    /// let ids: Vec<_> = AppId::first(3).collect();
    /// assert_eq!(ids, vec![AppId::new(0), AppId::new(1), AppId::new(2)]);
    /// ```
    pub fn first(count: usize) -> impl Iterator<Item = AppId> {
        (0..count).map(AppId::new)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl From<AppId> for usize {
    fn from(id: AppId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        for i in [0usize, 1, 7, 15, 65535] {
            assert_eq!(AppId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn rejects_oversized_index() {
        let _ = AppId::new(70_000);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(AppId::new(1) < AppId::new(2));
    }

    #[test]
    fn first_yields_sequential_ids() {
        let ids: Vec<_> = AppId::first(4).map(|a| a.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(AppId::new(12).to_string(), "app12");
    }
}
