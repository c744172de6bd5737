//! Way partitions and the UCP look-ahead allocation algorithm.
//!
//! Utility-based Cache Partitioning [Qureshi & Patt, MICRO 2006] allocates
//! cache ways greedily by *marginal utility*: repeatedly give the ways that
//! buy the largest per-way benefit. The paper's ASM-Cache (§7.1) reuses the
//! same look-ahead loop but replaces miss utility with *slowdown utility*,
//! so [`lookahead_partition`] is generic over the per-application benefit
//! curve.

use asm_simcore::AppId;

/// An allocation of the shared cache's ways among applications.
///
/// # Examples
///
/// ```
/// use asm_cache::WayPartition;
/// use asm_simcore::AppId;
/// let p = WayPartition::new(vec![10, 2, 2, 2]);
/// assert_eq!(p.total_ways(), 16);
/// assert_eq!(p.ways_for(AppId::new(0)), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WayPartition {
    ways: Vec<usize>,
}

impl WayPartition {
    /// Creates a partition giving `ways[i]` ways to application `i`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is empty.
    #[must_use]
    pub fn new(ways: Vec<usize>) -> Self {
        assert!(!ways.is_empty(), "partition must cover at least one app");
        WayPartition { ways }
    }

    /// Creates an equal split of `total_ways` among `apps` applications
    /// (remainder ways go to the lowest-numbered applications).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is zero.
    #[must_use]
    pub fn even(total_ways: usize, apps: usize) -> Self {
        assert!(apps > 0, "need at least one app");
        let base = total_ways / apps;
        let extra = total_ways % apps;
        WayPartition {
            ways: (0..apps).map(|i| base + usize::from(i < extra)).collect(),
        }
    }

    /// The number of ways allocated to `app` (zero for apps beyond the
    /// partition's range).
    #[must_use]
    pub fn ways_for(&self, app: AppId) -> usize {
        self.ways.get(app.index()).copied().unwrap_or(0)
    }

    /// The number of applications covered.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.ways.len()
    }

    /// The total number of ways distributed.
    #[must_use]
    pub fn total_ways(&self) -> usize {
        self.ways.iter().sum()
    }

    /// The raw allocation vector.
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.ways
    }
}

/// Per-application benefit curves stored as one flat row-major matrix.
///
/// Row `a` holds application `a`'s benefit at each way count (column 0 =
/// zero ways). Every mechanism that drives [`lookahead_partition`] rebuilds
/// its curves each quantum, so the matrix keeps them in one contiguous
/// allocation that is reused across quanta via [`reset`](Self::reset)
/// instead of reallocating a `Vec<Vec<f64>>`.
///
/// # Examples
///
/// ```
/// use asm_cache::BenefitCurves;
/// let mut curves = BenefitCurves::new(2, 5);
/// curves.row_mut(1).copy_from_slice(&[0.0, 5.0, 10.0, 15.0, 20.0]);
/// assert_eq!(curves.row(1)[4], 20.0);
/// assert_eq!(curves.row(0), &[0.0; 5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenefitCurves {
    values: Vec<f64>,
    points: usize,
}

impl BenefitCurves {
    /// Creates a zero-filled matrix of `apps` curves with `points` entries
    /// each (use `total_ways + 1` points for a full curve).
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    #[must_use]
    pub fn new(apps: usize, points: usize) -> Self {
        assert!(points > 0, "curves need at least one point");
        BenefitCurves {
            values: vec![0.0; apps * points],
            points,
        }
    }

    /// Builds a matrix by evaluating `f(app, ways)` at every point.
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    #[must_use]
    pub fn from_fn(apps: usize, points: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut curves = Self::new(apps, points);
        for a in 0..apps {
            let row = curves.row_mut(a);
            for (n, v) in row.iter_mut().enumerate() {
                *v = f(a, n);
            }
        }
        curves
    }

    /// Number of applications (rows).
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.values.len() / self.points
    }

    /// Number of points per curve (columns).
    #[must_use]
    pub fn points(&self) -> usize {
        self.points
    }

    /// Application `a`'s curve.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn row(&self, a: usize) -> &[f64] {
        &self.values[a * self.points..(a + 1) * self.points]
    }

    /// Mutable view of application `a`'s curve.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn row_mut(&mut self, a: usize) -> &mut [f64] {
        &mut self.values[a * self.points..(a + 1) * self.points]
    }
}

/// Allocates `total_ways` ways among applications using UCP's look-ahead
/// algorithm.
///
/// `benefit.row(a)[n]` is the benefit application `a` obtains from `n` ways
/// (index 0 = zero ways); the curves must have at least `total_ways + 1`
/// points and should be non-decreasing (e.g. cumulative hits for UCP, or
/// `-slowdown_n` for ASM-Cache, whose *marginal slowdown utility* is the
/// decrease in slowdown per extra way).
///
/// Each application receives at least `min_ways` ways (UCP deployments
/// reserve one way per application so no application starves; pass 0 for
/// the textbook algorithm).
///
/// # Panics
///
/// Panics if `benefit` has no applications, curves are shorter than
/// `total_ways + 1`, or `min_ways * benefit.app_count() > total_ways`.
///
/// # Examples
///
/// ```
/// use asm_cache::{lookahead_partition, BenefitCurves};
/// // App 0 saturates after 1 way; app 1 keeps benefiting.
/// let mut benefit = BenefitCurves::new(2, 5);
/// benefit.row_mut(0).copy_from_slice(&[0.0, 10.0, 10.0, 10.0, 10.0]);
/// benefit.row_mut(1).copy_from_slice(&[0.0, 5.0, 10.0, 15.0, 20.0]);
/// let p = lookahead_partition(&benefit, 4, 1);
/// assert_eq!(p.as_slice(), &[1, 3]);
/// ```
#[must_use]
pub fn lookahead_partition(
    benefit: &BenefitCurves,
    total_ways: usize,
    min_ways: usize,
) -> WayPartition {
    let apps = benefit.app_count();
    assert!(apps > 0, "need at least one application");
    assert!(
        benefit.points() > total_ways,
        "benefit curves have {} entries, need {}",
        benefit.points(),
        total_ways + 1
    );
    assert!(
        min_ways * apps <= total_ways,
        "cannot reserve {min_ways} ways for each of {apps} apps out of {total_ways}"
    );

    let mut alloc = vec![min_ways; apps];
    let mut remaining = total_ways - min_ways * apps;

    while remaining > 0 {
        // For each app, find the k (1..=remaining) maximising marginal
        // utility (benefit[n+k] - benefit[n]) / k.
        let mut best: Option<(usize, usize, f64)> = None; // (app, k, utility)
        for a in 0..apps {
            let curve = benefit.row(a);
            let n = alloc[a];
            let max_k = remaining.min(total_ways - n);
            for k in 1..=max_k {
                let utility = (curve[n + k] - curve[n]) / k as f64;
                let better = match best {
                    None => true,
                    Some((_, _, u)) => utility > u,
                };
                if better {
                    best = Some((a, k, utility));
                }
            }
        }
        match best {
            Some((a, k, _)) => {
                alloc[a] += k;
                remaining -= k;
            }
            None => {
                // All applications are at the way limit; spread the rest
                // round-robin (cannot happen when curves are full length).
                let a = alloc
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| **n)
                    .map(|(a, _)| a)
                    .unwrap_or(0);
                alloc[a] += 1;
                remaining -= 1;
            }
        }
    }

    WayPartition::new(alloc)
}

// `Default` (no applications covered) is only the blank a restore fills
// in; whoever owns the partition checks its shape afterwards.
asm_simcore::persist_fields!(WayPartition { ways });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_distributes_remainder() {
        let p = WayPartition::even(16, 3);
        assert_eq!(p.as_slice(), &[6, 5, 5]);
        assert_eq!(p.total_ways(), 16);
    }

    #[test]
    fn ways_for_out_of_range_app_is_zero() {
        let p = WayPartition::new(vec![4, 4]);
        assert_eq!(p.ways_for(AppId::new(9)), 0);
    }

    #[test]
    fn lookahead_all_ways_allocated() {
        let benefit = BenefitCurves::from_fn(4, 17, |a, n| match a {
            0 => (n as f64).sqrt(),
            1 => n as f64,
            2 => 0.0,
            _ => n as f64 * 0.5,
        });
        let p = lookahead_partition(&benefit, 16, 1);
        assert_eq!(p.total_ways(), 16);
        for a in 0..4 {
            assert!(p.ways_for(AppId::new(a)) >= 1);
        }
    }

    #[test]
    fn lookahead_favours_steeper_curve() {
        let benefit =
            BenefitCurves::from_fn(2, 9, |a, n| if a == 0 { n as f64 * 10.0 } else { n as f64 });
        let p = lookahead_partition(&benefit, 8, 1);
        assert!(p.ways_for(AppId::new(0)) > p.ways_for(AppId::new(1)));
    }

    #[test]
    fn lookahead_sees_delayed_utility() {
        // App 0 gains nothing until it has 4 ways, then a huge jump
        // (classic look-ahead test: greedy single-way allocation would
        // starve it).
        let benefit = BenefitCurves::from_fn(2, 9, |a, n| match a {
            0 if n >= 4 => 100.0,
            0 => 0.0,
            _ => n as f64,
        });
        let p = lookahead_partition(&benefit, 8, 0);
        assert!(p.ways_for(AppId::new(0)) >= 4, "got {:?}", p.as_slice());
    }

    #[test]
    fn lookahead_flat_curves_still_allocate_everything() {
        let benefit = BenefitCurves::new(2, 17);
        let p = lookahead_partition(&benefit, 16, 0);
        assert_eq!(p.total_ways(), 16);
    }

    #[test]
    #[should_panic(expected = "cannot reserve")]
    fn lookahead_rejects_infeasible_min() {
        let benefit = BenefitCurves::new(20, 17);
        let _ = lookahead_partition(&benefit, 16, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one application")]
    fn lookahead_rejects_empty() {
        let _ = lookahead_partition(&BenefitCurves::new(0, 17), 16, 0);
    }
}
