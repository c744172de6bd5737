//! Property tests of the analytic solver's determinism contract:
//!
//! 1. **Bitwise determinism** — solving the same mix twice, on fresh or
//!    reused solvers, yields bit-identical slowdowns.
//! 2. **Bitwise permutation invariance** — the solve iterates in a
//!    canonical profile-key order internally, so shuffling the mix only
//!    permutes the outputs, bit for bit. This is what makes the
//!    harness's `--jobs` fan-out byte-identical: work order cannot leak
//!    into results.
//! 3. **Physical sanity** — slowdowns are finite and ≥ 1.

use asm_analytic::{AnalyticConfig, MixSolver, ProfileParams, ReuseProfile};
use asm_core::SystemConfig;
use asm_workloads::suite;
use proptest::prelude::*;

/// The full suite as extracted profiles (done once; extraction itself is
/// pinned deterministic by `crates/analytic/src/profile.rs` tests).
fn profiles() -> &'static Vec<ReuseProfile> {
    static CACHE: std::sync::OnceLock<Vec<ReuseProfile>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let params = ProfileParams::from_system(&SystemConfig::default());
        suite::all()
            .iter()
            .map(|p| ReuseProfile::extract(p, &params))
            .collect()
    })
}

fn cfg() -> AnalyticConfig {
    AnalyticConfig::from_system(&SystemConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solve_is_bitwise_deterministic_across_solver_reuse(
        mix in prop::collection::vec(0usize..12, 1..6),
    ) {
        let all = profiles();
        let apps: Vec<&ReuseProfile> = mix.iter().map(|&i| &all[i % all.len()]).collect();
        let mut fresh = MixSolver::new(cfg());
        let mut reused = MixSolver::new(cfg());
        // Dirty the reused solver with a different mix first.
        reused.run(&[&all[0]]);
        let a = fresh.run(&apps);
        let b = reused.run(&apps);
        for i in 0..apps.len() {
            prop_assert_eq!(a.slowdowns[i].to_bits(), b.slowdowns[i].to_bits());
            prop_assert_eq!(a.cpi_shared[i].to_bits(), b.cpi_shared[i].to_bits());
            prop_assert_eq!(a.miss_shared[i].to_bits(), b.miss_shared[i].to_bits());
        }
    }

    #[test]
    fn permutation_only_permutes_results_bitwise(
        mix in prop::collection::vec(0usize..12, 2..6),
        rot in 1usize..5,
    ) {
        let all = profiles();
        let apps: Vec<&ReuseProfile> = mix.iter().map(|&i| &all[i % all.len()]).collect();
        let n = apps.len();
        let rot = rot % n;
        let rotated: Vec<&ReuseProfile> =
            (0..n).map(|i| apps[(i + rot) % n]).collect();
        let mut s = MixSolver::new(cfg());
        let fwd = s.run(&apps);
        let perm = s.run(&rotated);
        for i in 0..n {
            // apps[(i + rot) % n] sits at slot i of the rotated solve.
            prop_assert_eq!(
                fwd.slowdowns[(i + rot) % n].to_bits(),
                perm.slowdowns[i].to_bits(),
                "slot {} of rotation {}", i, rot
            );
        }
    }

    #[test]
    fn slowdowns_are_finite_and_at_least_one(
        mix in prop::collection::vec(0usize..12, 1..6),
    ) {
        let all = profiles();
        let apps: Vec<&ReuseProfile> = mix.iter().map(|&i| &all[i % all.len()]).collect();
        let mut s = MixSolver::new(cfg());
        let sol = s.run(&apps);
        for i in 0..apps.len() {
            prop_assert!(sol.slowdowns[i].is_finite());
            prop_assert!(sol.slowdowns[i] >= 1.0);
            prop_assert!(sol.cpi_shared[i] > 0.0);
            prop_assert!((0.0..=1.0).contains(&sol.miss_shared[i]));
        }
    }
}
