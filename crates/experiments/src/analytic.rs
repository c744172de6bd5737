//! Harness plumbing for the analytical tier (`--tier analytic`).
//!
//! The [`Session`] holds every reuse profile extracted (or loaded from
//! `--profile-cache`) so far. The store is populated *sequentially*
//! before any fan-out: the solve loop then shares an immutable snapshot
//! across worker threads, so the analytic tier needs no locks on its hot
//! path and — because [`crate::pool::run_ordered`] returns results in
//! submission order — its output is byte-identical for every `--jobs`
//! value.

use asm_analytic::{AnalyticConfig, MixSolution, MixSolver, ProfileParams};
use asm_core::SystemConfig;
use asm_cpu::AppProfile;

use crate::pool;
use crate::session::Session;

/// [`solve_mixes_in`] the [`Session::global`] session.
#[must_use]
pub fn solve_mixes(
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    jobs: usize,
) -> Vec<MixSolution> {
    solve_mixes_in(Session::global(), config, workloads, jobs)
}

/// Solves every mix analytically, fanning solves across `jobs` worker
/// threads, and returns the solutions **in workload order** — the
/// analytic arm of [`crate::collect::tier_slowdowns`].
///
/// Profiles are extracted (or fetched from the cache) sequentially
/// up front; the fan-out then reads an immutable snapshot, so the result
/// is bitwise identical for every `jobs` value (pinned by tests).
#[must_use]
pub fn solve_mixes_in(
    session: &Session,
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    jobs: usize,
) -> Vec<MixSolution> {
    let params = ProfileParams::from_system(config);
    let snapshot = {
        let mut s = session.profiles.lock().expect("profile store poisoned");
        for w in workloads {
            for app in w {
                s.ensure(app, &params);
            }
        }
        s.clone()
    };
    let cfg = AnalyticConfig::from_system(config);
    pool::run_ordered(jobs, workloads, |_, w| {
        let profiles: Vec<_> = w
            .iter()
            .map(|a| snapshot.get(a.name()).expect("profile extracted above"))
            .collect();
        MixSolver::new(cfg).run(&profiles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_workloads::mix;

    #[test]
    fn solve_mixes_is_jobs_independent() {
        let config = SystemConfig::default();
        let workloads = mix::random_mixes(6, 3, 17);
        let a = solve_mixes(&config, &workloads, 1);
        let b = solve_mixes(&config, &workloads, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let xb: Vec<u64> = x.slowdowns.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.slowdowns.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb, "slowdowns differ across --jobs");
        }
    }
}
