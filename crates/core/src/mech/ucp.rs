//! Utility-based Cache Partitioning [Qureshi & Patt, MICRO 2006].
//!
//! UCP's utility of giving an application `n` ways is the number of its
//! accesses that would hit with `n` ways — read directly off the ATS's
//! per-recency-position hit counters. The look-ahead algorithm then
//! maximises total marginal utility. The paper's critique (§7.1.2): miss
//! counts are only a *proxy* for performance, blind to how much each miss
//! actually costs each application.

use asm_cache::{lookahead_partition, AuxiliaryTagStore, BenefitCurves, WayPartition};

/// Computes the UCP partition from this quantum's ATS hit curves.
///
/// # Panics
///
/// Panics if `ats` is empty or has more entries than `ways` (every
/// application is reserved one way).
#[must_use]
pub fn partition(ats: &[AuxiliaryTagStore], ways: usize) -> WayPartition {
    let mut benefit = BenefitCurves::new(ats.len(), ways + 1);
    for (a, t) in ats.iter().enumerate() {
        fill_hit_curve(t, benefit.row_mut(a));
    }
    lookahead_partition(&benefit, ways, 1)
}

/// Writes the cumulative-hits utility curve into `row`: `row[n]` =
/// sampled accesses that would hit with `n` ways.
pub fn fill_hit_curve(ats: &AuxiliaryTagStore, row: &mut [f64]) {
    for (n, v) in row.iter_mut().enumerate() {
        *v = ats.hits_with_ways(n.min(ats.geometry().ways())) as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mech::testutil::ats_with_curve;

    #[test]
    fn cache_hungry_app_gets_more_ways() {
        // App 0 re-hits 8 distinct depths many times; app 1 barely reuses.
        let ats = vec![ats_with_curve(16, 8, 20), ats_with_curve(16, 2, 1)];
        let p = partition(&ats, 16);
        assert!(p.ways_for(asm_simcore::AppId::new(0)) > p.ways_for(asm_simcore::AppId::new(1)));
        assert_eq!(p.total_ways(), 16);
    }

    #[test]
    fn hit_curve_is_monotone() {
        let ats = ats_with_curve(16, 8, 5);
        let mut c = vec![0.0; 17];
        fill_hit_curve(&ats, &mut c);
        for w in c.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(c.len(), 17);
    }

    #[test]
    fn every_app_keeps_at_least_one_way() {
        let ats = vec![
            ats_with_curve(16, 12, 50),
            ats_with_curve(16, 1, 0),
            ats_with_curve(16, 1, 0),
            ats_with_curve(16, 1, 0),
        ];
        let p = partition(&ats, 16);
        for i in 0..4 {
            assert!(p.ways_for(asm_simcore::AppId::new(i)) >= 1);
        }
    }
}
