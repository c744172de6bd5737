//! Harness plumbing for the analytical tier (`--tier analytic`).
//!
//! The [`Session`] holds every reuse profile extracted (or loaded from
//! `--profile-cache`) so far. A campaign first fits its distinct
//! applications *sequentially*: each profile is fetched from the store (or
//! extracted into it) and solved alone once. The solve loop then shares
//! those immutable fits across worker threads, so the analytic tier needs
//! no locks on its hot path and — because [`crate::pool::run_ordered`]
//! returns results in submission order — its output is byte-identical for
//! every `--jobs` value.

use std::collections::BTreeMap;

use asm_analytic::{AloneFit, AnalyticConfig, MixSolution, MixSolver, ProfileParams, ReuseProfile};
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
/// The campaign's distinct applications are profiled and fitted alone
/// once, up front; the fan-out then reads those immutable fits, so the
/// result is bitwise identical for every `jobs` value (pinned by tests).
#[must_use]
pub fn solve_mixes_in(
    session: &Session,
    config: &SystemConfig,
    workloads: &[Vec<AppProfile>],
    jobs: usize,
) -> Vec<MixSolution> {
    let solver = MixSolver::new(AnalyticConfig::from_system(config));
    let fitted = fit_campaign(session, config, &solver, workloads);
    pool::run_ordered(jobs, workloads, |_, w| {
        let (apps, alone): (Vec<&ReuseProfile>, Vec<AloneFit>) = w
            .iter()
            .map(|a| {
                let (profile, fit) = &fitted[a.name()];
                (profile, *fit)
            })
            .unzip();
        let mut solver = solver.clone();
        solver.solve(&apps, &alone);
        solver.solution(&apps)
    })
}

/// The campaign's distinct applications by name, each with its reuse
/// profile and alone fit. Applications are identified by name, as the
/// session's [`asm_analytic::ProfileStore`] files them: one
/// [`asm_analytic::ProfileStore::ensure`] per name, for the name's last
/// model in workload order.
fn fit_campaign<'w>(
    session: &Session,
    config: &SystemConfig,
    solver: &MixSolver,
    workloads: &'w [Vec<AppProfile>],
) -> BTreeMap<&'w str, (ReuseProfile, AloneFit)> {
    let params = ProfileParams::from_system(config);
    let distinct: BTreeMap<&str, &AppProfile> =
        workloads.iter().flatten().map(|a| (a.name(), a)).collect();
    let mut store = session.profiles.lock().expect("profile store poisoned");
    distinct
        .into_iter()
        .map(|(name, app)| {
            let profile = store.ensure(app, &params).clone();
            #[cfg(test)]
            tests::ALONE_FITS.with(|n| n.set(n.get() + 1));
            let fit = solver.alone(&profile);
            (name, (profile, fit))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::SimRng;
    use asm_workloads::{mix, suite};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Alone fits computed on this thread by [`fit_campaign`].
        pub(super) static ALONE_FITS: Cell<usize> = const { Cell::new(0) };
    }

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

    /// Every float of a solution, as bits, after its names and classes.
    fn bits(s: &MixSolution) -> (Vec<String>, String, Vec<u64>) {
        let floats = [
            &s.slowdowns,
            &s.cpi_alone,
            &s.cpi_shared,
            &s.miss_alone,
            &s.miss_shared,
            &s.car_alone,
            &s.car_shared,
        ];
        let bits = floats
            .iter()
            .flat_map(|v| v.iter().map(|x| x.to_bits()))
            .collect();
        (s.app_names.clone(), format!("{:?}", s.classes), bits)
    }

    #[test]
    fn campaign_fits_each_profile_once_and_matches_per_mix_runs() {
        // Mixes of one to four apps drawn with replacement from six, so
        // twins, repeats across mixes and singletons all occur.
        let pool: Vec<AppProfile> = suite::all().into_iter().step_by(5).take(6).collect();
        let mut rng = SimRng::seed_from(30);
        let mixes: Vec<Vec<AppProfile>> = (0..24)
            .map(|_| {
                let n = 1 + rng.gen_range(4) as usize;
                (0..n)
                    .map(|_| pool[rng.gen_range(6) as usize].clone())
                    .collect()
            })
            .collect();
        let distinct: BTreeSet<&str> = mixes.iter().flatten().map(AppProfile::name).collect();
        assert!(mixes.iter().any(|m| m.len() == 1), "no singleton");
        let has_twins = |m: &Vec<AppProfile>| {
            m.len()
                > m.iter()
                    .map(AppProfile::name)
                    .collect::<BTreeSet<_>>()
                    .len()
        };
        assert!(mixes.iter().any(has_twins), "no twins");

        let config = SystemConfig::default();
        let params = ProfileParams::from_system(&config);
        let expected: Vec<MixSolution> = mixes
            .iter()
            .map(|m| {
                let profiles: Vec<ReuseProfile> = m
                    .iter()
                    .map(|a| ReuseProfile::extract(a, &params))
                    .collect();
                let apps: Vec<&ReuseProfile> = profiles.iter().collect();
                MixSolver::new(AnalyticConfig::from_system(&config)).run(&apps)
            })
            .collect();

        let session = Session::default();
        for jobs in [1, 4] {
            ALONE_FITS.with(|n| n.set(0));
            let got = solve_mixes_in(&session, &config, &mixes, jobs);
            assert_eq!(ALONE_FITS.with(Cell::get), distinct.len(), "jobs {jobs}");
            assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(bits(g), bits(e), "mix {i}, jobs {jobs}");
            }
        }
        assert_eq!(
            session.profiles.lock().expect("store").len(),
            distinct.len()
        );
    }
}
