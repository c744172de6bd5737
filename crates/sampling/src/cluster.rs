//! Deterministic, dependency-free k-means with medoid extraction.
//!
//! The clustering behind representative-interval selection (DESIGN.md
//! §12): feature vectors are min-max normalized per dimension, centers
//! are seeded k-means++-style from a [`SimRng`] stream derived from the
//! experiment configuration (never from wall-clock or thread schedule),
//! and every tie — nearest center, medoid choice, empty-cluster repair —
//! breaks toward the lowest index. The result is a pure function of
//! `(features, k, seed)`, which is what makes interval selection
//! byte-identical across `--jobs` values and across repeated runs.

use asm_simcore::SimRng;

/// Bound on Lloyd iterations. Convergence is typically reached in a
/// handful of rounds at the interval counts this tier sees (tens); the
/// cap only guards against pathological oscillation.
const MAX_ITERS: usize = 32;

/// The output of [`cluster`]: a partition of `n` items into at most `k`
/// groups, each represented by one member (its *medoid*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `assignment[i]` is the cluster index of item `i`.
    pub assignment: Vec<usize>,
    /// `medoids[c]` is the item index representing cluster `c` (the
    /// member closest to the cluster centroid; lowest index on ties).
    /// Sorted ascending, so downstream iteration order is canonical.
    pub medoids: Vec<usize>,
    /// Cluster sizes, aligned with [`Self::medoids`].
    pub sizes: Vec<usize>,
}

impl Clustering {
    /// Cluster weights `|c| / n`, aligned with [`Self::medoids`].
    #[must_use]
    pub fn weights(&self) -> Vec<f64> {
        let n = self.assignment.len().max(1) as f64;
        self.sizes.iter().map(|&s| s as f64 / n).collect()
    }
}

/// Squared Euclidean distance; both rows must have equal length.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Min-max normalizes each feature dimension to `[0, 1]` so no raw scale
/// dominates the distance metric. Constant (or all-non-finite) dimensions
/// map to 0; non-finite entries are treated as 0 before scaling.
fn normalize(features: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = features.len();
    let dim = features.first().map_or(0, Vec::len);
    let mut rows: Vec<Vec<f64>> = features
        .iter()
        .map(|row| {
            assert_eq!(row.len(), dim, "ragged feature matrix");
            row.iter()
                .map(|&v| if v.is_finite() { v } else { 0.0 })
                .collect()
        })
        .collect();
    for d in 0..dim {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &rows {
            lo = lo.min(row[d]);
            hi = hi.max(row[d]);
        }
        let span = hi - lo;
        for row in rows.iter_mut().take(n) {
            row[d] = if span > 0.0 { (row[d] - lo) / span } else { 0.0 };
        }
    }
    rows
}

/// k-means++-style seeding: the first center is a uniform draw, each
/// subsequent center is drawn with probability proportional to its
/// squared distance from the nearest chosen center. All randomness comes
/// from `rng`; degenerate weight vectors (all points coincide) fall back
/// to the lowest unused index.
fn seed_centers(rows: &[Vec<f64>], k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
    let n = rows.len();
    let mut chosen: Vec<usize> = vec![rng.gen_range(n as u64) as usize];
    let mut best_d2: Vec<f64> = rows.iter().map(|r| dist2(r, &rows[chosen[0]])).collect();
    while chosen.len() < k {
        let next = match rng.pick_weighted(&best_d2) {
            Some(i) if !chosen.contains(&i) => i,
            // All remaining mass sits on already-chosen points (or the
            // weights were degenerate): take the lowest unused index.
            _ => (0..n)
                .find(|i| !chosen.contains(i))
                .unwrap_or(chosen[chosen.len() - 1]),
        };
        chosen.push(next);
        for (i, d) in best_d2.iter_mut().enumerate() {
            *d = d.min(dist2(&rows[i], &rows[next]));
        }
    }
    chosen.into_iter().map(|i| rows[i].clone()).collect()
}

/// Index of the center nearest to `row` (strictly-closer wins, so ties
/// keep the lowest index).
fn nearest(centers: &[Vec<f64>], row: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = dist2(center, row);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Clusters `features` into at most `k` groups and picks one medoid per
/// group. Deterministic: the result is a pure function of the arguments
/// (see module docs).
///
/// When `k >= features.len()` every item becomes its own singleton
/// cluster — the degenerate partition under which sampling degrades
/// gracefully to a full run (every interval is simulated, weights `1/n`).
///
/// # Panics
///
/// Panics if `features` is empty, `k` is zero, or rows have unequal
/// lengths.
#[must_use]
pub fn cluster(features: &[Vec<f64>], k: usize, seed: u64) -> Clustering {
    let n = features.len();
    assert!(n > 0, "cannot cluster zero intervals");
    assert!(k > 0, "need at least one cluster");
    if k >= n {
        return Clustering {
            assignment: (0..n).collect(),
            medoids: (0..n).collect(),
            sizes: vec![1; n],
        };
    }

    let rows = normalize(features);
    let mut rng = SimRng::seed_from(seed);
    let mut centers = seed_centers(&rows, k, &mut rng);
    let mut assignment: Vec<usize> = rows.iter().map(|r| nearest(&centers, r)).collect();

    for _ in 0..MAX_ITERS {
        // Recompute centroids as member means.
        let dim = rows[0].len();
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            for d in 0..dim {
                sums[c][d] += rows[i][d];
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: adopt the member farthest from its own
                // centroid (lowest index on ties) so every cluster stays
                // inhabited — deterministically.
                let mut far = 0;
                let mut far_d = f64::NEG_INFINITY;
                for (i, row) in rows.iter().enumerate() {
                    let d = dist2(row, &centers[assignment[i]]);
                    if d > far_d {
                        far_d = d;
                        far = i;
                    }
                }
                assignment[far] = c;
                centers[c] = rows[far].clone();
            } else {
                for d in 0..dim {
                    centers[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }
        let next: Vec<usize> = rows.iter().map(|r| nearest(&centers, r)).collect();
        let converged = next == assignment;
        assignment = next;
        if converged {
            break;
        }
    }

    // Compact away clusters that ended empty, renumbering in first-seen
    // (i.e. lowest-medoid) order, then pick medoids.
    let mut remap = vec![usize::MAX; k];
    let mut live = 0usize;
    for &c in &assignment {
        if remap[c] == usize::MAX {
            remap[c] = live;
            live += 1;
        }
    }
    let assignment: Vec<usize> = assignment.into_iter().map(|c| remap[c]).collect();
    let centers: Vec<Vec<f64>> = {
        let mut out = vec![Vec::new(); live];
        for (old, &new) in remap.iter().enumerate() {
            if new != usize::MAX {
                out[new] = centers[old].clone();
            }
        }
        out
    };

    let mut medoids = vec![usize::MAX; live];
    let mut medoid_d = vec![f64::INFINITY; live];
    let mut sizes = vec![0usize; live];
    for (i, &c) in assignment.iter().enumerate() {
        sizes[c] += 1;
        let d = dist2(&rows[i], &centers[c]);
        if d < medoid_d[c] {
            medoid_d[c] = d;
            medoids[c] = i;
        }
    }

    // Canonicalize: order clusters by medoid index so the output carries
    // no trace of seeding order.
    let mut order: Vec<usize> = (0..live).collect();
    order.sort_by_key(|&c| medoids[c]);
    let mut rank = vec![0usize; live];
    for (new, &old) in order.iter().enumerate() {
        rank[old] = new;
    }
    Clustering {
        assignment: assignment.into_iter().map(|c| rank[c]).collect(),
        medoids: order.iter().map(|&c| medoids[c]).collect(),
        sizes: order.iter().map(|&c| sizes[c]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: f64, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| vec![center + i as f64 * 0.01, center - i as f64 * 0.01])
            .collect()
    }

    #[test]
    fn separated_blobs_are_separated() {
        let mut features = blob(0.0, 5);
        features.extend(blob(100.0, 5));
        let c = cluster(&features, 2, 7);
        assert_eq!(c.medoids.len(), 2);
        let first = c.assignment[0];
        assert!(c.assignment[..5].iter().all(|&a| a == first));
        assert!(c.assignment[5..].iter().all(|&a| a != first));
        let w = c.weights();
        assert!((w[0] - 0.5).abs() < 1e-12 && (w[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_at_least_n_degenerates_to_singletons() {
        let features = blob(1.0, 4);
        for k in [4, 5, 100] {
            let c = cluster(&features, k, 3);
            assert_eq!(c.assignment, vec![0, 1, 2, 3]);
            assert_eq!(c.medoids, vec![0, 1, 2, 3]);
            assert_eq!(c.sizes, vec![1, 1, 1, 1]);
        }
    }

    #[test]
    fn identical_points_collapse_without_panic() {
        let features = vec![vec![2.0, 2.0]; 6];
        let c = cluster(&features, 3, 11);
        assert_eq!(c.assignment.len(), 6);
        let total: usize = c.sizes.iter().sum();
        assert_eq!(total, 6);
        for (&m, &s) in c.medoids.iter().zip(&c.sizes) {
            assert!(m < 6);
            assert!(s >= 1);
        }
    }

    #[test]
    fn same_inputs_same_output_bitwise() {
        let mut features = blob(0.0, 7);
        features.extend(blob(3.0, 6));
        features.extend(blob(9.0, 4));
        let a = cluster(&features, 3, 42);
        let b = cluster(&features, 3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn non_finite_features_are_tolerated() {
        let features = vec![
            vec![f64::NAN, 1.0],
            vec![f64::INFINITY, 2.0],
            vec![0.5, 3.0],
            vec![0.6, 40.0],
        ];
        let c = cluster(&features, 2, 5);
        assert_eq!(c.assignment.len(), 4);
    }

    #[test]
    fn medoids_are_sorted_and_sizes_align() {
        let mut features = blob(0.0, 3);
        features.extend(blob(50.0, 9));
        let c = cluster(&features, 2, 13);
        let mut sorted = c.medoids.clone();
        sorted.sort_unstable();
        assert_eq!(c.medoids, sorted);
        assert_eq!(c.sizes.iter().sum::<usize>(), 12);
    }
}
