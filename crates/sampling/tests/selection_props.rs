//! Property tests of the sampling tier's determinism contract:
//!
//! 1. **Bitwise determinism** — clustering the same feature matrix with
//!    the same `k` and seed yields an identical partition, medoids and
//!    sizes, every time. Selection seeds and snapshot keys are pure
//!    functions of their inputs. This is what makes `--tier sampled`
//!    byte-identical across `--jobs` values and repeated runs: nothing
//!    about selection can depend on execution order.
//! 2. **Structural sanity** — assignments are in range, medoids are
//!    sorted members of their own cluster, sizes align and sum to `n`,
//!    weights sum to 1.
//! 3. **K ≥ N degradation** — more representatives than intervals
//!    collapses to the singleton partition, under which the estimator
//!    telescopes to the member's exact measurements (a sampled run
//!    degrades gracefully into a full run, never into nonsense).

use std::collections::BTreeMap;

use asm_sampling::{
    cluster, estimate_slowdowns, interval_key, selection_seed, Clustering, IntervalPlan,
    SampleSpec,
};
use proptest::prelude::*;

/// Reshape a flat draw into an `n × dim` feature matrix (the strategy
/// layer has no flat-map, so the matrix shape is derived in the body).
/// `flat.len() >= dim` is guaranteed by the strategy bounds.
fn reshape(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    let n = flat.len() / dim;
    (0..n).map(|i| flat[i * dim..(i + 1) * dim].to_vec()).collect()
}

fn check_structure(c: &Clustering, n: usize) {
    assert_eq!(c.assignment.len(), n);
    assert_eq!(c.medoids.len(), c.sizes.len());
    let live = c.medoids.len();
    for &a in &c.assignment {
        assert!(a < live, "assignment out of range");
    }
    for (cid, (&m, &s)) in c.medoids.iter().zip(&c.sizes).enumerate() {
        assert!(m < n, "medoid out of range");
        assert_eq!(c.assignment[m], cid, "medoid outside its own cluster");
        assert!(s >= 1, "empty cluster survived compaction");
    }
    let mut sorted = c.medoids.clone();
    sorted.sort_unstable();
    assert_eq!(c.medoids, sorted, "medoids not canonically ordered");
    assert_eq!(c.sizes.iter().sum::<usize>(), n);
    let wsum: f64 = c.weights().iter().sum();
    assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustering_is_bitwise_deterministic(
        dim in 1usize..5,
        flat in prop::collection::vec(
            prop_oneof![
                -1e3..1e3f64,
                -1e3..1e3f64,
                -1e3..1e3f64,
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
            4..120,
        ),
        k in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let feats = reshape(&flat, dim);
        let a = cluster(&feats, k, seed);
        let b = cluster(&feats, k, seed);
        prop_assert_eq!(&a, &b, "same (features, k, seed) diverged");
        check_structure(&a, feats.len());
    }

    #[test]
    fn k_at_least_n_degenerates_to_singletons(
        dim in 1usize..5,
        flat in prop::collection::vec(-1e3..1e3f64, 4..80),
        extra in 0usize..40,
    ) {
        let feats = reshape(&flat, dim);
        let n = feats.len();
        let c = cluster(&feats, n + extra, 17);
        prop_assert_eq!(&c.assignment, &(0..n).collect::<Vec<_>>());
        prop_assert_eq!(&c.medoids, &(0..n).collect::<Vec<_>>());
        prop_assert_eq!(&c.sizes, &vec![1; n]);
    }

    #[test]
    fn singleton_partition_telescopes_to_exact_member_totals(
        member in prop::collection::vec(1.0..1e6f64, 1..24),
    ) {
        // Under the K >= N partition every interval is measured, so the
        // estimate must equal total_cycles / sum(member) with a zero CI
        // regardless of what the proxy saw.
        let n = member.len();
        let proxy: Vec<Vec<f64>> = (0..n).map(|k| vec![(k + 1) as f64 * 10.0]).collect();
        let plan = IntervalPlan {
            interval_cycles: 1_000,
            n_intervals: n,
            prefix_hash: 1,
            mix: "a".to_owned(),
            clustering: Clustering {
                assignment: (0..n).collect(),
                medoids: (0..n).collect(),
                sizes: vec![1; n],
            },
            proxy_alone: proxy,
            snapshots: BTreeMap::new(),
        };
        let rows: Vec<Vec<f64>> = member.iter().map(|&m| vec![m]).collect();
        let est = estimate_slowdowns(&plan, &rows);
        let total: f64 = member.iter().sum();
        let expect = (n as f64 * 1_000.0 / total).max(1.0);
        prop_assert!((est[0].value - expect).abs() <= 1e-9 * expect.max(1.0));
        prop_assert!(est[0].ci.abs() < 1e-9, "singleton strata must be exact");
    }

    #[test]
    fn seeds_and_keys_are_pure_functions(
        prefix in 0u64..u64::MAX,
        mi in 0usize..4,
        cycles in 1u64..1_000_000,
        intervals in 1usize..8,
        quanta in 1u64..8,
        index in 0usize..64,
    ) {
        const MIXES: [&str; 4] = ["a", "a+b", "mcf+lib+sop", "h264+h264"];
        let mix = MIXES[mi];
        let spec = SampleSpec { intervals, quanta };
        prop_assert_eq!(
            selection_seed(prefix, mix, cycles, spec),
            selection_seed(prefix, mix, cycles, spec)
        );
        prop_assert_eq!(
            interval_key(prefix, mix, index, cycles),
            interval_key(prefix, mix, index, cycles)
        );
    }
}
