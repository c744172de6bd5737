//! Harness plumbing for the analytical tier (`--tier analytic`).
//!
//! Mirrors [`crate::collect`]'s alone-run cache: one process-wide
//! [`ProfileStore`] holds every reuse profile extracted this run, an
//! optional `--profile-cache` file persists it across invocations, and a
//! corrupt or stale file is ignored with a warning (results may never
//! depend on cache state).
//!
//! The store is populated *sequentially* before any fan-out: the solve
//! loop then shares an immutable snapshot across worker threads, so the
//! analytic tier needs no locks on its hot path and — because
//! [`crate::pool::run_ordered`] returns results in submission order —
//! its output is byte-identical for every `--jobs` value.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use asm_analytic::{AnalyticConfig, MixSolution, MixSolver, ProfileParams, ProfileStore};
use asm_core::SystemConfig;
use asm_cpu::AppProfile;

use crate::pool;

/// Where to persist reuse profiles (`--profile-cache <path>`), if anywhere.
static PROFILE_CACHE_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Every reuse profile extracted (or loaded) so far this process.
static STORE: OnceLock<Mutex<ProfileStore>> = OnceLock::new();

fn store() -> &'static Mutex<ProfileStore> {
    STORE.get_or_init(|| Mutex::new(ProfileStore::new()))
}

/// Loads (or initializes) the persistent reuse-profile cache at `path`.
/// A missing file starts empty; a corrupt file is ignored with a warning
/// and overwritten on [`save_profile_cache`]. Stale *entries* (parameter
/// or algorithm fingerprint mismatch) are re-extracted individually by
/// `ProfileStore::ensure`. Chatter goes to stderr: stdout must stay
/// byte-identical with and without a cache.
pub fn set_profile_cache_path(path: PathBuf) {
    let (loaded, warning) = ProfileStore::load_or_warn(&path);
    if let Some(w) = warning {
        eprintln!("warning: profile-cache: {w}");
    } else if !loaded.is_empty() {
        eprintln!(
            "profile-cache: loaded {} profile(s) from {}",
            loaded.len(),
            path.display()
        );
    }
    *store().lock().expect("profile store poisoned") = loaded;
    let _ = PROFILE_CACHE_PATH.set(path);
}

/// Writes the reuse-profile cache back to its file, if one was
/// configured. Called once at the end of the CLI run.
pub fn save_profile_cache() {
    if let Some(path) = PROFILE_CACHE_PATH.get() {
        let s = store().lock().expect("profile store poisoned");
        match s.save_to(path) {
            Ok(()) => eprintln!(
                "profile-cache: saved {} profile(s) to {}",
                s.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "warning: profile-cache: could not save {}: {e}",
                path.display()
            ),
        }
    }
}

/// Solves every mix analytically, fanning solves across `jobs` worker
/// threads, and returns the solutions **in workload order** — the
/// analytic arm of [`crate::collect::tier_slowdowns`].
///
/// Profiles are extracted (or fetched from the cache) sequentially
/// up front; the fan-out then reads an immutable snapshot, so the result
/// is bitwise identical for every `jobs` value (pinned by tests).
#[must_use]
pub fn solve_mixes(
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    jobs: usize,
) -> Vec<MixSolution> {
    let params = ProfileParams::from_system(config);
    let snapshot = {
        let mut s = store().lock().expect("profile store poisoned");
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
