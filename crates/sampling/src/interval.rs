//! Interval fingerprinting and the sampled-run estimator.
//!
//! The sampled tier slices a run of `C` cycles into `N = C / (L·Q)`
//! fixed intervals of `L` quanta each, runs one cheap *fingerprint* pass
//! per sweep group under the prefix-neutral configuration
//! ([`asm_core::checkpoint::prefix_config`]), and extracts a per-interval
//! feature vector from the pass's quantum records (estimated slowdowns,
//! CARs, ATS miss rates, interference cycles) plus the interval's work
//! and alone-run cost. Deterministic k-means over those
//! features ([`crate::cluster`]) picks `K` representative intervals with
//! weights; each sweep member then simulates only those `K` intervals
//! cycle-accurately, warmed from snapshots captured at the interval
//! boundaries during the fingerprint pass.
//!
//! The reconstructed metric works on per-interval *alone-run cycles*
//! rather than per-interval slowdown ratios: the alone cost of an
//! instruction window telescopes across intervals
//! (`Σ cycles_between = cycle_at(total)`), so the whole-run slowdown
//! formula of `asm_core::runner` is recovered exactly when every
//! interval is measured — and approximated, with a confidence interval,
//! when only representatives are. See DESIGN.md §12 for the estimator
//! and its blind spots.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_core::checkpoint;
use asm_core::{config_hash, QuantumRecord, System, SystemConfig};
use asm_cpu::{AppProfile, ProgressLog};
use asm_simcore::hash::DetHasher;
use asm_simcore::persist::{self, PersistError};
use asm_simcore::{AppId, Cycle};

use crate::cluster::{cluster, Clustering};
use crate::estimate::{Estimate, Z95};

/// What a fingerprint reads of each quantum record, per application: one
/// mean per interval each, over the quanta where the value exists and is
/// finite (an interval without any contributes 0).
const FEATURES: [fn(&QuantumRecord, usize) -> Option<f64>; 5] = [
    |r, i| Some(r.estimates_of("ASM")?[i]),
    |r, i| Some(r.car_shared[i]),
    |r, i| Some(r.car_alone.as_ref()?[i]),
    QuantumRecord::ats_miss_rate,
    |r, i| Some(r.interference_cycles[i] as f64),
];

/// Snapshot-grid stride for an `n`-interval fingerprint pass: boundary
/// snapshots are captured only at interval indices that are multiples
/// of the stride, capping a pass at ~20 live snapshots. Serializing
/// full system state at *every* boundary dominates the fingerprint
/// pass's overhead over a plain run (and holds `n` snapshots in memory
/// at peak); medoids are snapped onto the grid instead, so a probe
/// restores exactly at the interval it measures and replays nothing. (A
/// restored snapshot carries the *fingerprint* run's microarchitectural
/// state, so the measured interval opens with a transient; measured
/// head-to-head it is negligible at interval granularity — well under
/// the within-cluster sampling noise — while each warm-up interval
/// replayed ahead of it would cost as much as a measured one.)
#[must_use]
pub fn snapshot_stride(n: usize) -> usize {
    n.div_ceil(20).max(1)
}

/// How a sampled run is sliced and how many representatives it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Number of representative intervals `K` (`--sample-intervals`).
    pub intervals: usize,
    /// Interval length in quanta `L` (`--sample-quanta`).
    pub quanta: u64,
}

impl SampleSpec {
    /// Interval length in cycles under `quantum`; `None` when it does not
    /// fit in a [`Cycle`].
    #[must_use]
    pub fn interval_cycles(&self, quantum: Cycle) -> Option<Cycle> {
        self.quanta.max(1).checked_mul(quantum)
    }

    /// Number of intervals a run of `cycles` splits into (0 when the run
    /// does not divide evenly, an overflowing length included — the
    /// caller falls back to a full run).
    #[must_use]
    pub fn interval_count(&self, quantum: Cycle, cycles: Cycle) -> usize {
        match self.interval_cycles(quantum) {
            Some(ic) if ic > 0 && cycles.is_multiple_of(ic) => (cycles / ic) as usize,
            _ => 0,
        }
    }
}

/// The key an interval-boundary snapshot is tagged with: a pure function
/// of the prefix configuration, the mix, the interval index and the
/// interval length — every party that can restore the snapshot can
/// recompute it.
#[must_use]
pub fn interval_key(prefix_hash: u64, mix: &str, index: usize, interval_cycles: Cycle) -> u64 {
    use std::hash::Hasher as _;
    let mut h = DetHasher::default();
    h.write_u64(prefix_hash);
    h.write(mix.as_bytes());
    h.write_u64(index as u64);
    h.write_u64(interval_cycles);
    h.finish()
}

/// The master seed of a group's k-means selection: a pure function of
/// the prefix configuration (its own `seed` field included), the mix,
/// the horizon and the sampling spec — never of execution order, which
/// is what keeps selection byte-identical across `--jobs`.
#[must_use]
pub fn selection_seed(prefix_hash: u64, mix: &str, cycles: Cycle, spec: SampleSpec) -> u64 {
    use std::hash::Hasher as _;
    let mut h = DetHasher::default();
    h.write_u64(prefix_hash);
    h.write(mix.as_bytes());
    h.write_u64(cycles);
    h.write_u64(spec.intervals as u64);
    h.write_u64(spec.quanta);
    h.finish()
}

/// Everything one fingerprint pass learns about a sweep group: the
/// interval partition, the per-interval feature matrix's clustering, the
/// per-interval proxy alone-cycles, and warm-up snapshots for exactly
/// the selected (medoid) interval starts.
#[derive(Debug, Clone)]
pub struct IntervalPlan {
    /// Interval length in cycles (`L · Q`).
    pub interval_cycles: Cycle,
    /// Number of intervals (`run cycles / interval_cycles`).
    pub n_intervals: usize,
    /// [`config_hash`] of the configuration the fingerprint ran under.
    pub prefix_hash: u64,
    /// [`checkpoint::mix_signature`] of the workload.
    pub mix: String,
    /// The representative-interval selection.
    pub clustering: Clustering,
    /// `proxy_alone[k][i]`: alone-run cycles consumed by app `i`'s work
    /// in interval `k` of the fingerprint run (0 when it retired
    /// nothing). Known for *every* interval — the control variate of the
    /// estimator.
    pub proxy_alone: Vec<Vec<f64>>,
    /// Boundary snapshots for the medoid intervals that need one
    /// (interval 0 starts cold and has no entry); medoids sit on the
    /// [`snapshot_stride`] grid the pass captured on.
    pub snapshots: BTreeMap<usize, Vec<u8>>,
}

impl IntervalPlan {
    /// The fingerprint run's own whole-run slowdowns: per-interval alone
    /// cycles telescope (`Σ cycles_between = cycle_at(retired_total)`),
    /// so summing [`Self::proxy_alone`] recovers the whole-run formula of
    /// `asm_core::runner` for the configuration the pass ran under. When
    /// that configuration is itself a sweep member (the starved-class
    /// fingerprint of DESIGN.md §12), this is the member's result for
    /// free — no separate full run.
    #[must_use]
    pub fn proxy_slowdowns(&self) -> Vec<f64> {
        let n_apps = self.proxy_alone.first().map_or(0, Vec::len);
        let total_cycles = self.n_intervals as f64 * self.interval_cycles as f64;
        (0..n_apps)
            .map(|i| {
                let alone_total: f64 = self.proxy_alone.iter().map(|k| k[i]).sum();
                if alone_total <= 0.0 {
                    f64::NAN
                } else {
                    (total_cycles / alone_total.max(1.0)).max(1.0)
                }
            })
            .collect()
    }
}

/// Runs the fingerprint pass for one sweep group: simulates `apps` under
/// `config` (the group's shared prefix configuration — pass the member's
/// own configuration for a group of one) for `cycles`, capturing a
/// boundary snapshot per interval, then clusters the per-interval
/// features and keeps only the medoid snapshots.
///
/// `alone` holds each app's alone-run progress log covering at least
/// `cycles` (from [`asm_core::Runner`]'s cache via
/// `Runner::alone_progress`).
///
/// # Panics
///
/// Panics if `cycles` is not a positive multiple of the interval length,
/// the interval length is not a multiple of the quantum, or `alone` does
/// not have one entry per app.
#[must_use]
pub fn fingerprint(
    apps: &[AppProfile],
    config: &SystemConfig,
    cycles: Cycle,
    spec: SampleSpec,
    alone: &[Arc<ProgressLog>],
) -> IntervalPlan {
    let n_apps = apps.len();
    assert_eq!(alone.len(), n_apps, "one alone progress log per app");
    let n = spec.interval_count(config.quantum, cycles);
    assert!(n > 0, "cycles must be a positive multiple of the interval");
    let interval_cycles = cycles / n as u64;

    let prefix_hash = config_hash(config);
    let mix = checkpoint::mix_signature(apps);

    // One straight-line pass: run interval by interval, reading retired
    // counts and capturing a snapshot at every internal boundary. The
    // boundary quantum is left unfinalised by `run_prefix`, so a restored
    // member replays it under its *own* policies — the same contract as
    // `Runner::warm_snapshot`.
    let stride = snapshot_stride(n);
    let mut sys = System::new(apps, config.clone());
    let mut retired_at: Vec<Vec<u64>> = vec![(0..n_apps).map(|_| 0).collect()];
    let mut snapshots: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    for k in 1..=n {
        sys.run_prefix(interval_cycles);
        retired_at.push((0..n_apps).map(|i| sys.retired(AppId::new(i))).collect());
        if k < n && k.is_multiple_of(stride) {
            let key = interval_key(prefix_hash, &mix, k, interval_cycles);
            snapshots.insert(k, checkpoint::capture(&sys, key, k as u64 * interval_cycles));
        }
    }
    // Finalise the last quantum so its record exists.
    sys.run_for(0);

    // Proxy alone-cycles per interval per app.
    let proxy_alone: Vec<Vec<f64>> = (0..n)
        .map(|k| {
            (0..n_apps)
                .map(|i| {
                    let (from, to) = (retired_at[k][i], retired_at[k + 1][i]);
                    if to > from {
                        alone[i].cycles_between(from, to)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();

    // Feature matrix: per app, the interval means of each record
    // feature plus the interval's work rate and proxy alone-cost rate.
    let mut features = vec![Vec::new(); n];
    for i in 0..n_apps {
        for feature in FEATURES {
            let mut sums = vec![0.0f64; n];
            let mut counts = vec![0u64; n];
            for rec in sys.records() {
                // A quantum closing at cycle c belongs to the interval
                // containing cycle c - 1 (boundaries land on interval
                // ends).
                let k = ((rec.end_cycle.saturating_sub(1)) / interval_cycles) as usize;
                if let Some(value) = feature(rec, i).filter(|v| k < n && v.is_finite()) {
                    sums[k] += value;
                    counts[k] += 1;
                }
            }
            for k in 0..n {
                features[k].push(if counts[k] > 0 {
                    sums[k] / counts[k] as f64
                } else {
                    0.0
                });
            }
        }
        for (k, row) in features.iter_mut().enumerate() {
            let work = retired_at[k + 1][i].saturating_sub(retired_at[k][i]);
            row.push(work as f64 / interval_cycles as f64);
            row.push(proxy_alone[k][i] / interval_cycles as f64);
        }
    }

    let seed = selection_seed(prefix_hash, &mix, cycles, spec);
    let mut clustering = cluster(&features, spec.intervals, seed);

    // Snap each medoid onto the snapshot grid so a probe restores the
    // boundary of exactly the interval it measures. Take the grid interval
    // *nearest in time* to the medoid, preferring the medoid's own
    // cluster — program phases are temporally contiguous, so the
    // index-nearest grid interval shares the medoid's phase where a
    // feature-nearest one can sit in a different region of the run.
    // Ties go to the lower index.
    if stride > 1 {
        for c in 0..clustering.medoids.len() {
            let m = clustering.medoids[c];
            if m.is_multiple_of(stride) {
                continue;
            }
            let pick = |own_cluster: bool| -> Option<usize> {
                (0..n)
                    .step_by(stride)
                    .filter(|&k| !own_cluster || clustering.assignment[k] == c)
                    .min_by_key(|&k| (m.abs_diff(k), k))
            };
            if let Some(snapped) = pick(true).or_else(|| pick(false)) {
                clustering.medoids[c] = snapped;
            }
        }
    }

    // Keep only the snapshots the members will restore: the medoids'.
    snapshots.retain(|k, _| clustering.medoids.contains(k));

    IntervalPlan {
        interval_cycles,
        n_intervals: n,
        prefix_hash,
        mix,
        clustering,
        proxy_alone,
        snapshots,
    }
}

/// Simulates one interval of `apps` under a member's full configuration
/// and returns each app's *alone-run cycles* for the work it retired in
/// the interval — the quantity the estimator aggregates.
///
/// The member restores the fingerprint snapshot captured at the start of
/// `interval` (interval 0 starts cold) and measures from there under its
/// *own* policies.
///
/// # Errors
///
/// Any [`PersistError`] from the snapshot (stale, damaged, or keyed for
/// a different prefix/mix/interval), and `Corrupt` when `plan` holds no
/// snapshot at `interval` — it keeps its medoids', which sit on the
/// snapshot grid. The caller falls back to running the member in full.
///
/// # Panics
///
/// Panics if `alone` does not have one entry per app.
pub fn measure_interval(
    apps: &[AppProfile],
    member_config: &SystemConfig,
    plan: &IntervalPlan,
    interval: usize,
    alone: &[Arc<ProgressLog>],
) -> Result<Vec<f64>, PersistError> {
    let n_apps = apps.len();
    assert_eq!(alone.len(), n_apps, "one alone progress log per app");
    let mut sys = System::new(apps, member_config.clone());
    if interval > 0 {
        let snapshot = plan.snapshots.get(&interval).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "no snapshot at interval {interval}: not a medoid on the snapshot grid"
            ))
        })?;
        let key = interval_key(plan.prefix_hash, &plan.mix, interval, plan.interval_cycles);
        let warm = checkpoint::resume(snapshot, key, &mut sys)?;
        persist::ensure(
            warm == interval as u64 * plan.interval_cycles,
            "snapshot does not cover the interval's start",
        )?;
    }
    let before: Vec<u64> = (0..n_apps).map(|i| sys.retired(AppId::new(i))).collect();
    sys.run_for(plan.interval_cycles);
    Ok((0..n_apps)
        .map(|i| {
            let after = sys.retired(AppId::new(i));
            if after > before[i] {
                alone[i].cycles_between(before[i], after)
            } else {
                0.0
            }
        })
        .collect())
}

/// Folds one member's medoid measurements into per-app whole-run
/// slowdown estimates with 95% confidence intervals.
///
/// `member_alone[c][i]` is app `i`'s alone-cycles in the medoid interval
/// of cluster `c` under the member's own policies
/// ([`measure_interval`]); clusters are in [`Clustering::medoids`]
/// order.
///
/// The estimator is a stratified *combined-ratio* estimator over
/// per-interval alone-cycles `a`: the proxy's full per-interval mass is
/// scaled by the member/proxy ratio pooled across the measured medoids,
///
/// `r̂_i = Σ_c w_c·a_member[c][i] / Σ_c w_c·a_proxy[m_c][i]`
/// `Â_i = r̂_i · Σ_c w_c · mean_{k∈c}(a_proxy[k][i])`
///
/// with slowdown `S_i = C / max(N·Â_i, 1)` clamped to `≥ 1`, exactly the
/// whole-run formula of `asm_core::runner` applied to the estimated
/// total. Boundary policies act multiplicatively on progress, so the
/// ratio form absorbs a uniform policy effect exactly, where a
/// difference estimator would be biased by how far a medoid sits from
/// its cluster's mean; pooling the ratio across clusters (rather than a
/// separate ratio per cluster) averages out single-medoid measurement
/// noise. With singleton clusters the proxy mass telescopes against the
/// pooled denominator and the member measurements are reproduced
/// exactly. When the proxy medoids retired nothing the member's own
/// measurements stand in unscaled.
///
/// The interval uses the within-cluster variance of the proxy, scaled by
/// the squared pooled ratio, as a surrogate for the member's
/// (DESIGN.md §12): `Var(Â_i) = r̂_i²·Σ_c w_c²·σ²_{i,c}`, propagated
/// through `S ∝ 1/Â` by the delta method.
#[must_use]
pub fn estimate_slowdowns(plan: &IntervalPlan, member_alone: &[Vec<f64>]) -> Vec<Estimate> {
    let n = plan.n_intervals;
    let n_apps = plan.proxy_alone.first().map_or(0, Vec::len);
    let weights = plan.clustering.weights();
    assert_eq!(
        member_alone.len(),
        plan.clustering.medoids.len(),
        "one measurement per cluster"
    );
    let total_cycles = n as f64 * plan.interval_cycles as f64;

    (0..n_apps)
        .map(|i| {
            let mut num = 0.0f64; // Σ w·member at medoids
            let mut den = 0.0f64; // Σ w·proxy at medoids
            let mut base = 0.0f64; // Σ w·within-cluster proxy mean
            let mut var_s = 0.0f64; // Σ w²·within-cluster proxy variance
            for (c, (&medoid, &w)) in plan
                .clustering
                .medoids
                .iter()
                .zip(&weights)
                .enumerate()
            {
                // Within-cluster mean and population variance of the proxy.
                let members: Vec<f64> = plan
                    .clustering
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a == c)
                    .map(|(k, _)| plan.proxy_alone[k][i])
                    .collect();
                let m = members.iter().sum::<f64>() / members.len().max(1) as f64;
                let s2 = members.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
                    / members.len().max(1) as f64;
                num += w * member_alone[c][i];
                den += w * plan.proxy_alone[medoid][i];
                base += w * m;
                var_s += w * w * s2;
            }
            let (a_hat, var) = if den > 0.0 {
                let ratio = num / den;
                (ratio * base, ratio * ratio * var_s)
            } else {
                (num, var_s)
            };
            let alone_total = (n as f64 * a_hat).max(0.0);
            if alone_total <= 0.0 {
                return Estimate {
                    value: f64::NAN,
                    ci: 0.0,
                };
            }
            let denom = alone_total.max(1.0);
            let value = (total_cycles / denom).max(1.0);
            let ci_alone = Z95 * (n as f64) * var.sqrt();
            Estimate {
                value,
                ci: value * ci_alone / denom,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;

    fn plan_with(proxy: Vec<Vec<f64>>, clustering: Clustering) -> IntervalPlan {
        IntervalPlan {
            interval_cycles: 1_000,
            n_intervals: proxy.len(),
            prefix_hash: 0xABCD,
            mix: "a+b".to_owned(),
            clustering,
            proxy_alone: proxy,
            snapshots: BTreeMap::new(),
        }
    }

    #[test]
    fn interval_key_separates_all_fields() {
        let keys = [
            interval_key(1, "a+b", 1, 100),
            interval_key(2, "a+b", 1, 100),
            interval_key(1, "a+c", 1, 100),
            interval_key(1, "a+b", 2, 100),
            interval_key(1, "a+b", 1, 200),
        ];
        let unique: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len());
    }

    #[test]
    fn selection_seed_is_a_pure_function_of_inputs() {
        let spec = SampleSpec {
            intervals: 3,
            quanta: 1,
        };
        assert_eq!(
            selection_seed(9, "x+y", 4_000, spec),
            selection_seed(9, "x+y", 4_000, spec)
        );
        assert_ne!(
            selection_seed(9, "x+y", 4_000, spec),
            selection_seed(9, "x+y", 8_000, spec)
        );
    }

    #[test]
    fn spec_interval_count_requires_divisibility() {
        let spec = SampleSpec {
            intervals: 2,
            quanta: 2,
        };
        assert_eq!(spec.interval_count(1_000, 8_000), 4);
        assert_eq!(spec.interval_count(1_000, 9_000), 0);
    }

    #[test]
    fn an_overflowing_interval_length_is_indivisible() {
        // Q x L = 200 000 x (2^58 + 1) wraps to 200 000 in u64; wrapped, it
        // would divide the run into one-quantum intervals.
        let spec = SampleSpec {
            intervals: 2,
            quanta: (1 << 58) + 1,
        };
        assert_eq!(spec.interval_cycles(200_000), None);
        assert_eq!(spec.interval_count(200_000, 4_000_000), 0);
    }

    #[test]
    fn singleton_clusters_reproduce_member_measurements_exactly() {
        // K >= N: every interval its own cluster; with the member
        // measured at every interval the estimate telescopes to
        // total/sum(member) exactly.
        let proxy = vec![vec![100.0], vec![300.0], vec![200.0]];
        let clustering = Clustering {
            assignment: vec![0, 1, 2],
            medoids: vec![0, 1, 2],
            sizes: vec![1, 1, 1],
        };
        let plan = plan_with(proxy, clustering);
        let member = vec![vec![150.0], vec![250.0], vec![200.0]];
        let est = estimate_slowdowns(&plan, &member);
        // total shared = 3000; total member alone = 600.
        assert!((est[0].value - 3_000.0 / 600.0).abs() < 1e-9);
        assert!(est[0].ci.abs() < 1e-12, "singleton strata are exact");
    }

    #[test]
    fn zero_work_app_estimates_nan() {
        let proxy = vec![vec![0.0], vec![0.0]];
        let clustering = Clustering {
            assignment: vec![0, 0],
            medoids: vec![0],
            sizes: vec![2],
        };
        let plan = plan_with(proxy, clustering);
        let est = estimate_slowdowns(&plan, &[vec![0.0]]);
        assert!(est[0].value.is_nan());
    }

    #[test]
    fn wider_within_cluster_spread_widens_the_interval() {
        let tight = vec![vec![200.0], vec![201.0], vec![199.0], vec![200.0]];
        let wide = vec![vec![50.0], vec![350.0], vec![100.0], vec![300.0]];
        let clustering = Clustering {
            assignment: vec![0, 0, 0, 0],
            medoids: vec![0],
            sizes: vec![4],
        };
        let t = estimate_slowdowns(&plan_with(tight, clustering.clone()), &[vec![200.0]]);
        let w = estimate_slowdowns(&plan_with(wide, clustering), &[vec![200.0]]);
        assert!(w[0].ci > t[0].ci);
    }
}
