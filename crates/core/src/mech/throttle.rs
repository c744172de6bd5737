//! FST-style source throttling [Ebrahimi+, ASPLOS 2010] (§8 "source
//! throttling").
//!
//! FST's *actuator*: when estimated unfairness (max slowdown / min
//! slowdown) exceeds a threshold, the least-slowed-down memory-intensive
//! application — the one causing the interference — has its memory request
//! rate throttled down (here: its outstanding-miss budget is cut through
//! FST's discrete throttle levels). When unfairness recedes, applications
//! are released one level per quantum.

/// FST's throttle levels, as fractions of the application's full MLP
/// (100% / 50% / 25% / 10%, matching the paper's aggressive steps).
pub const LEVELS: &[f64] = &[1.0, 0.5, 0.25, 0.1];

/// Per-application throttle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrottleState {
    /// Index into [`LEVELS`] per application (0 = unthrottled).
    levels: Vec<usize>,
}

impl ThrottleState {
    /// All applications unthrottled.
    #[must_use]
    pub fn new(apps: usize) -> Self {
        ThrottleState {
            levels: vec![0; apps],
        }
    }

    /// The current level index of application `i`.
    #[must_use]
    pub fn level(&self, i: usize) -> usize {
        self.levels.get(i).copied().unwrap_or(0)
    }

    /// The outstanding-miss cap for application `i` given its intrinsic
    /// `full_mlp` (never below 1).
    #[must_use]
    pub fn mlp_cap(&self, i: usize, full_mlp: u32) -> u32 {
        let frac = LEVELS[self.level(i)];
        ((f64::from(full_mlp) * frac).round() as u32).max(1)
    }

    /// One quantum's throttling decision, FST-style: if
    /// `max(slowdowns) / min(slowdowns) > threshold`, throttle the least
    /// slowed-down application one level further; otherwise release every
    /// application one level. Returns the index of the newly throttled
    /// application, if any.
    ///
    /// Applications with non-finite slowdown estimates are ignored.
    // Allocation cadence (R9): quantum boundary — the throttling decision is
    // made once per quantum from `end_quantum`, not per cycle
    pub fn update(&mut self, slowdowns: &[f64], threshold: f64) -> Option<usize> {
        let valid: Vec<(usize, f64)> = slowdowns
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| s.is_finite() && *s >= 1.0)
            .collect();
        let (Some(max), Some(min)) = (
            valid
                .iter()
                .map(|(_, s)| *s)
                .fold(None, |a: Option<f64>, s| Some(a.map_or(s, |a| a.max(s)))),
            valid
                .iter()
                .map(|(_, s)| *s)
                .fold(None, |a: Option<f64>, s| Some(a.map_or(s, |a| a.min(s)))),
        ) else {
            return None;
        };
        if min > 0.0 && max / min > threshold {
            // Throttle the interferer: the least slowed-down application.
            let culprit = valid
                .iter()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| *i)?;
            let level = &mut self.levels[culprit];
            if *level + 1 < LEVELS.len() {
                *level += 1;
            }
            Some(culprit)
        } else {
            for level in &mut self.levels {
                *level = level.saturating_sub(1);
            }
            None
        }
    }
}

asm_simcore::persist_fields!(ThrottleState { [levels] } => |t: &ThrottleState| {
    asm_simcore::persist::ensure(t.levels.iter().all(|&l| l < LEVELS.len()), "level out of range")
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfairness_throttles_the_least_slowed_app() {
        let mut st = ThrottleState::new(3);
        let culprit = st.update(&[3.0, 1.1, 2.0], 1.5);
        assert_eq!(culprit, Some(1));
        assert_eq!(st.level(1), 1);
        assert_eq!(st.level(0), 0);
    }

    #[test]
    fn fairness_releases_everyone() {
        let mut st = ThrottleState::new(2);
        st.update(&[3.0, 1.0], 1.5);
        st.update(&[3.0, 1.0], 1.5);
        assert_eq!(st.level(1), 2);
        st.update(&[1.2, 1.1], 1.5);
        assert_eq!(st.level(1), 1);
        st.update(&[1.2, 1.1], 1.5);
        assert_eq!(st.level(1), 0);
    }

    #[test]
    fn level_saturates_at_deepest() {
        let mut st = ThrottleState::new(2);
        for _ in 0..10 {
            st.update(&[5.0, 1.0], 1.5);
        }
        assert_eq!(st.level(1), LEVELS.len() - 1);
    }

    #[test]
    fn mlp_cap_follows_levels_and_never_hits_zero() {
        let mut st = ThrottleState::new(1);
        assert_eq!(st.mlp_cap(0, 12), 12);
        st.levels[0] = 1;
        assert_eq!(st.mlp_cap(0, 12), 6);
        st.levels[0] = 3;
        assert_eq!(st.mlp_cap(0, 12), 1); // 10% of 12 rounds to 1
        assert_eq!(st.mlp_cap(0, 1), 1);
    }

    #[test]
    fn invalid_estimates_are_ignored() {
        let mut st = ThrottleState::new(3);
        let culprit = st.update(&[f64::NAN, 3.0, 1.0], 1.5);
        assert_eq!(culprit, Some(2));
    }

    #[test]
    fn empty_or_all_invalid_is_noop() {
        let mut st = ThrottleState::new(2);
        assert_eq!(st.update(&[f64::NAN, f64::INFINITY], 1.5), None);
        assert_eq!(st.level(0), 0);
    }
}
