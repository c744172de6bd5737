//! The sampled-tier campaign driver: representative-interval simulation
//! with confidence intervals (`--tier sampled`, DESIGN.md §12).
//!
//! Like [`crate::plan::run_campaign`], this evaluates a flat list of
//! [`PlannedRun`]s and returns results **in submission order**, so every
//! sequential fold over them is byte-identical for any `--jobs` value.
//! Unlike the planner, members of a sweep group (runs sharing a
//! prefix-relevant configuration, mix and horizon) are not simulated in
//! full: one *fingerprint* pass per group slices the run into intervals,
//! clusters them ([`asm_sampling::fingerprint`]), and every member then
//! simulates only the `K` medoid intervals, reconstructing its whole-run
//! slowdowns as weighted estimates with 95% confidence intervals.
//!
//! Runs that cannot be sampled are *exact members*: groups of one (the
//! fingerprint would cost more than it saves), horizons that do not
//! divide into intervals, `K ≥ N` (sampling every interval is not
//! cheaper than the run, and summing member intervals warmed from
//! *neutral-prefix* snapshots is not bitwise the member's full run — the
//! §12 blind spot), classes no fingerprint amortises for, and members
//! whose interval snapshot fails to restore. They are collected and run
//! as one [`crate::plan`] campaign — trajectories shared, manifests and
//! `campaign:` line as for any cycle-tier campaign — and report exact
//! values (`ci = 0`).
//!
//! ## Trajectory classes
//!
//! A one-interval fork is only accurate from snapshots whose *policy
//! equilibrium* matches the member's: partitioning policies spend many
//! quanta granting victims their hot set back, and a binding QoS bound
//! starves non-targets from the first boundary on, so forks across
//! those classes inherit the wrong compounded cache state. Members are
//! therefore classified ([`TrajectoryClass`]) against the neutral
//! proxy's slowdowns, and each anchor class (neutral, partitioned,
//! starved) gets its own fingerprint pass, run under a deterministic
//! class representative's full configuration; the representative itself
//! reads its exact result straight off the pass
//! ([`IntervalPlan::proxy_slowdowns`]). Borderline QoS bounds — inside
//! the margin band, where the trajectory sits between the partitioned
//! and starved equilibria — are measured from *both* anchor plans and
//! blended ([`blend`]), with the anchor spread folded into the CI. The
//! bind rule and its margin are documented in DESIGN.md §12.
//!
//! With `--checkpoint-dir` each run's estimates are persisted as a
//! manifest (`<dir>/sampled/<key>.bin`, values and CIs as bit
//! patterns); `--resume` replays them byte-identically and skips the
//! fingerprints of fully-replayed groups.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_core::checkpoint;
use asm_core::{config_hash, CachePolicy, RunOptions, Runner, SystemConfig};
use asm_cpu::ProgressLog;
use asm_sampling::{estimate_slowdowns, fingerprint, measure_interval, Estimate, IntervalPlan};
use asm_sampling::SampleSpec;
use asm_simcore::hash::DetHasher;
use asm_simcore::persist::{self, PersistError};

use crate::plan::{self, PlannedRun};
use crate::scale::Scale;
use crate::session::{Kind, Session};
use crate::{collect, pool};

/// Sampled-estimate manifests. v2: written from [`SampledResult`]'s
/// `persist_fields!` list (names, then estimates, where v1 interleaved
/// them).
pub(crate) const SAMPLED: Kind = Kind {
    dir: "sampled",
    format: "asm-sampled-manifest",
    version: 2,
};

/// One run's sampled outcome: per-app whole-run slowdown estimates.
/// Exact (fully-simulated) runs carry `ci = 0`.
#[derive(Debug, Clone, Default)]
pub struct SampledResult {
    /// Benchmark names, in slot order.
    pub app_names: Vec<String>,
    /// Per-app whole-run slowdown estimates with 95% CIs.
    pub slowdowns: Vec<Estimate>,
}

/// The key a run's sampled manifest is stored under: everything the
/// estimates are a pure function of — the *full* configuration, the mix,
/// the horizon, and the sampling spec.
fn manifest_key(run: &PlannedRun, spec: SampleSpec) -> u64 {
    use std::hash::Hasher as _;
    let mut h = DetHasher::default();
    h.write_u64(config_hash(&run.config));
    h.write_u64(checkpoint::mix_fingerprint(&run.apps));
    h.write_u64(run.cycles);
    h.write_u64(spec.intervals as u64);
    h.write_u64(spec.quanta);
    h.finish()
}

asm_simcore::persist_fields!(SampledResult { app_names, slowdowns } => |s: &SampledResult| {
    persist::ensure(
        s.slowdowns.len() == s.app_names.len(),
        "estimate count does not match app count",
    )
});

/// A targeted-QoS member forks from the starved fingerprint when its
/// bound sits at least this far (relatively) below the neutral proxy's
/// slowdown of the target — i.e. when holding the bound requires
/// starving the other applications for most of the run. Bounds inside
/// the margin intervene only sporadically and stay on the neutral plan.
const QOS_BIND_MARGIN: f64 = 0.15;

/// The `(target slot, effective bound)` a targeted-QoS cache policy
/// imposes: NaiveQos grants the target everything unconditionally
/// (bound 0); other policies impose none.
fn qos_pressure(config: &SystemConfig) -> Option<(usize, f64)> {
    match config.cache_policy {
        CachePolicy::NaiveQos(target) => Some((target.index(), 0.0)),
        CachePolicy::AsmQos(q) => Some((q.target.index(), q.bound)),
        _ => None,
    }
}

/// The policy-equilibrium class a member's trajectory converges to. Each
/// class walks a qualitatively different trajectory (DESIGN.md §12), so
/// each gets its own fingerprint; forks are only accurate within class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TrajectoryClass {
    /// Free-for-all shared cache — the neutral prefix's own trajectory.
    Neutral,
    /// A partitioning policy at its fairness equilibrium (UCP, MCFQ,
    /// ASM-Cache, or a QoS bound loose enough not to bind): victims
    /// eventually win back their hot set, which a neutral fork cannot
    /// reproduce.
    Partitioned,
    /// A targeted-QoS bound inside the margin band — tight enough to
    /// intervene, too loose to starve outright. The trajectory sits
    /// *between* the partitioned and starved equilibria, so the member
    /// is estimated from both anchor plans and blended ([`blend`]).
    Borderline,
    /// A binding targeted-QoS bound: non-target applications are starved
    /// from the first boundary on.
    Starved,
}

/// The class assignment rule of DESIGN.md §12, against the neutral
/// proxy's slowdowns: a QoS bound at least the margin below the target's
/// unconstrained slowdown is starved, one merely below it is borderline.
fn trajectory_class(config: &SystemConfig, neutral_slowdowns: &[f64]) -> TrajectoryClass {
    if let Some((slot, bound)) = qos_pressure(config) {
        if let Some(&unconstrained) = neutral_slowdowns.get(slot) {
            if unconstrained.is_finite() {
                if bound * (1.0 + QOS_BIND_MARGIN) < unconstrained {
                    return TrajectoryClass::Starved;
                }
                if bound < unconstrained {
                    return TrajectoryClass::Borderline;
                }
            }
        }
    }
    if matches!(config.cache_policy, CachePolicy::None) {
        TrajectoryClass::Neutral
    } else {
        TrajectoryClass::Partitioned
    }
}

/// Geometric midpoint of the two anchor-class estimates for a borderline
/// member. Its true trajectory lies between the starved and partitioned
/// equilibria, and the spread between the anchor estimates dominates the
/// within-plan sampling noise, so half that spread is folded into the
/// reported CI.
fn blend(a: Estimate, b: Estimate) -> Estimate {
    if !a.value.is_finite() {
        return b;
    }
    if !b.value.is_finite() {
        return a;
    }
    Estimate {
        value: (a.value * b.value).sqrt(),
        ci: 0.5 * (a.ci + b.ci) + 0.5 * (a.value - b.value).abs(),
    }
}

/// A sweep group's shared fingerprint artefacts.
struct GroupPlan {
    /// The neutral-prefix fingerprint every group has.
    plan: IntervalPlan,
    /// `plan`'s own whole-run slowdowns — the class rule's reference.
    neutral_slowdowns: Vec<f64>,
    /// Per-class fingerprints for the non-neutral classes that have at
    /// least two unfinished members (a class of one just runs in full).
    class_plans: BTreeMap<TrajectoryClass, IntervalPlan>,
    alone: Vec<Arc<ProgressLog>>,
}

/// [`run_campaign_in`] the [`Session::global`] session.
#[must_use]
pub fn run_campaign(runs: &[PlannedRun], scale: &Scale) -> Vec<SampledResult> {
    run_campaign_in(Session::global(), runs, scale)
}

/// Evaluates every planned run on the sampled tier and returns the
/// results in submission order (byte-identical for every `--jobs` value
/// and across `--resume`, pinned by tests).
#[must_use]
pub fn run_campaign_in(
    session: &Session,
    runs: &[PlannedRun],
    scale: &Scale,
) -> Vec<SampledResult> {
    let spec = scale.sample_spec();
    let cache = session.campaign_cache();

    // Group runs by (prefix configuration, mix, horizon): members share
    // bitwise-identical fingerprint passes and boundary snapshots.
    let group_of = |run: &PlannedRun| {
        let prefix = checkpoint::prefix_config(&run.config);
        (config_hash(&prefix), checkpoint::mix_fingerprint(&run.apps), run.cycles)
    };
    let mut groups: BTreeMap<(u64, u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, run) in runs.iter().enumerate() {
        groups.entry(group_of(run)).or_default().push(i);
    }

    // Resume: replay finished runs from their manifests before paying
    // for any fingerprint.
    let preloaded: Vec<Option<SampledResult>> = runs
        .iter()
        .map(|run| session.replay(&SAMPLED, manifest_key(run, spec)))
        .collect();

    // Phase A: fingerprint each sampled group with unfinished members,
    // in parallel. The pass runs under the group's *neutral prefix*
    // configuration, so its features, clustering and snapshots are a
    // pure function of the group key — identical for every member.
    // A group samples only when the fingerprint amortises (≥ 2 members)
    // and sampling is actually cheaper than running (K < N intervals).
    let want: Vec<&(u64, u64, u64)> = groups
        .iter()
        .filter(|(_, members)| {
            let rep = &runs[members[0]];
            let n = spec.interval_count(rep.config.quantum, rep.cycles);
            members.len() >= 2 && spec.intervals < n && members.iter().any(|&i| preloaded[i].is_none())
        })
        .map(|(key, _)| key)
        .collect();
    let mut plans: BTreeMap<&(u64, u64, u64), GroupPlan> =
        pool::run_ordered(scale.jobs, &want, |_, key| {
            let rep = &runs[groups[*key][0]];
            let prefix = checkpoint::prefix_config(&rep.config);
            let runner = Runner::with_cache(prefix.clone(), Arc::clone(&cache));
            let alone: Vec<Arc<ProgressLog>> = (0..rep.apps.len())
                .map(|slot| runner.alone_progress(&rep.apps, slot, rep.cycles))
                .collect();
            let plan = fingerprint(&rep.apps, &prefix, rep.cycles, spec, &alone);
            let neutral_slowdowns = plan.proxy_slowdowns();
            eprint!(".");
            (
                *key,
                GroupPlan {
                    plan,
                    neutral_slowdowns,
                    class_plans: BTreeMap::new(),
                    alone,
                },
            )
        })
        .into_iter()
        .collect();

    // Phase A2: the starved and partitioned anchor classes get their own
    // fingerprints, run under a deterministic class representative's
    // full configuration: the smallest effective bound for the starved
    // class (NaiveQos counts as 0), the first unfinished member in
    // submission order otherwise — never a function of `--jobs`.
    // Borderline members add demand for *both* anchor plans (they blend
    // the two) but never stand in as representatives; a plan is only
    // fingerprinted when a pure member anchors it and at least two
    // members in total draw on it.
    struct RepTally {
        sel: (bool, f64), // (not-pure?, bound): pure members always win
        idx: usize,
        pure: usize,
        demand: usize,
    }
    let want_class: Vec<(&(u64, u64, u64), TrajectoryClass, usize)> = plans
        .iter()
        .flat_map(|(key, group)| {
            let mut reps: BTreeMap<TrajectoryClass, RepTally> = BTreeMap::new();
            let mut tally = |class: TrajectoryClass, sel: (bool, f64), idx: usize, pure: bool| {
                let entry = reps.entry(class).or_insert(RepTally {
                    sel: (true, f64::INFINITY),
                    idx,
                    pure: 0,
                    demand: 0,
                });
                if sel < entry.sel {
                    (entry.sel, entry.idx) = (sel, idx);
                }
                if pure {
                    entry.pure += 1;
                }
                entry.demand += 1;
            };
            for &i in &groups[*key] {
                if preloaded[i].is_some() {
                    continue;
                }
                let config = &runs[i].config;
                let bound = qos_pressure(config).map_or(f64::INFINITY, |(_, b)| b);
                match trajectory_class(config, &group.neutral_slowdowns) {
                    TrajectoryClass::Neutral => {}
                    TrajectoryClass::Starved => {
                        tally(TrajectoryClass::Starved, (false, bound), i, true);
                    }
                    TrajectoryClass::Partitioned => {
                        tally(TrajectoryClass::Partitioned, (false, 0.0), i, true);
                    }
                    TrajectoryClass::Borderline => {
                        tally(TrajectoryClass::Starved, (true, bound), i, false);
                        tally(TrajectoryClass::Partitioned, (true, 0.0), i, false);
                    }
                }
            }
            reps.into_iter()
                .filter(|(_, t)| t.pure >= 1 && t.demand >= 2)
                .map(|(class, t)| (*key, class, t.idx))
                .collect::<Vec<_>>()
        })
        .collect();
    let class_plans: Vec<(&(u64, u64, u64), TrajectoryClass, IntervalPlan)> =
        pool::run_ordered(scale.jobs, &want_class, |_, (key, class, rep_idx)| {
            let rep = &runs[*rep_idx];
            let group = &plans[*key];
            let plan = fingerprint(&rep.apps, &rep.config, rep.cycles, spec, &group.alone);
            eprint!(".");
            (*key, *class, plan)
        });
    for (key, class, plan) in class_plans {
        plans
            .get_mut(key)
            .expect("phase A made this group")
            .class_plans
            .insert(class, plan);
    }

    let plans = plans;

    // Phase B: every run, in parallel. Sampled members measure the K
    // medoid intervals under their own policies; everything else (and
    // any member whose snapshot fails to restore) is an exact member,
    // `None` here.
    let save = |run: &PlannedRun, result: &SampledResult| {
        session.save(&SAMPLED, manifest_key(run, spec), result);
        eprint!(".");
    };
    let mut results: Vec<Option<SampledResult>> = pool::run_ordered(scale.jobs, runs, |i, run| {
        if let Some(r) = &preloaded[i] {
            eprint!(".");
            return Some(r.clone());
        }
        let group = plans.get(&group_of(run))?;
        // Estimate the member from one plan: exact when the member *is*
        // the fingerprint configuration (the pass already simulated its
        // whole run — the telescoped per-interval alone sum), otherwise
        // measure the K medoid intervals under the member's own policies.
        let estimate_with = |plan: &IntervalPlan| -> Result<Vec<Estimate>, PersistError> {
            if config_hash(&run.config) == plan.prefix_hash {
                return Ok(collect::exact(&plan.proxy_slowdowns()));
            }
            let member_alone: Vec<Vec<f64>> = plan
                .clustering
                .medoids
                .iter()
                .map(|&m| measure_interval(&run.apps, &run.config, plan, m, &group.alone))
                .collect::<Result<_, _>>()?;
            Ok(estimate_slowdowns(plan, &member_alone))
        };
        // A class with no plan (no fingerprint amortises) is an exact
        // member: a neutral fork would cross trajectory classes.
        let estimated = match trajectory_class(&run.config, &group.neutral_slowdowns) {
            TrajectoryClass::Neutral => estimate_with(&group.plan),
            TrajectoryClass::Borderline => {
                let starved = group.class_plans.get(&TrajectoryClass::Starved);
                let parted = group.class_plans.get(&TrajectoryClass::Partitioned);
                match (starved, parted) {
                    (Some(s), Some(p)) => estimate_with(s).and_then(|a| {
                        let b = estimate_with(p)?;
                        Ok(a.into_iter().zip(b).map(|(x, y)| blend(x, y)).collect())
                    }),
                    (Some(only), None) | (None, Some(only)) => estimate_with(only),
                    (None, None) => return None,
                }
            }
            class => estimate_with(group.class_plans.get(&class)?),
        };
        match estimated {
            Ok(slowdowns) => {
                let result = SampledResult {
                    app_names: run.apps.iter().map(|a| a.name().to_owned()).collect(),
                    slowdowns,
                };
                save(run, &result);
                Some(result)
            }
            Err(e) => {
                eprintln!("warning: sampled: interval restore failed ({e}); running full");
                None
            }
        }
    });
    eprintln!();

    // The exact members, as one planner campaign over the same alone
    // cache: uninstrumented, whatever the sink asks of cycle-tier runs.
    let exact: Vec<usize> = (0..runs.len()).filter(|&i| results[i].is_none()).collect();
    if !exact.is_empty() {
        let members: Vec<PlannedRun> = exact.iter().map(|&i| runs[i].clone()).collect();
        let (full, stats) =
            plan::run_with_cache(session, cache, &members, scale.jobs, RunOptions::default());
        eprintln!("{stats}");
        for (i, r) in exact.into_iter().zip(full) {
            let result = SampledResult {
                slowdowns: collect::exact(&r.whole_run_slowdowns),
                app_names: r.app_names,
            };
            save(&runs[i], &result);
            results[i] = Some(result);
        }
    }
    results.into_iter().map(|r| r.expect("sampled or exact")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_core::{CachePolicy, EstimatorSet, SystemConfig};
    use asm_workloads::suite;

    fn base_config() -> SystemConfig {
        let mut c = SystemConfig::default();
        c.quantum = 50_000;
        c.epoch = 1_000;
        c.estimators = EstimatorSet::asm_only();
        c
    }

    fn mix() -> Vec<asm_cpu::AppProfile> {
        vec![
            suite::by_name("mcf_like").unwrap(),
            suite::by_name("h264ref_like").unwrap(),
        ]
    }

    fn sweep(cycles: u64) -> Vec<PlannedRun> {
        [CachePolicy::None, CachePolicy::Ucp, CachePolicy::AsmCache]
            .into_iter()
            .map(|policy| {
                let mut c = base_config();
                c.cache_policy = policy;
                PlannedRun::new(c, mix(), cycles)
            })
            .collect()
    }

    fn scale_with(jobs: usize, intervals: usize) -> Scale {
        let mut s = Scale::tiny();
        s.jobs = jobs;
        s.quantum = 50_000;
        s.sample_intervals = intervals;
        s.sample_quanta = 1;
        s
    }

    fn assert_bitwise_equal(a: &[SampledResult], b: &[SampledResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.app_names, y.app_names);
            let xb: Vec<(u64, u64)> = x
                .slowdowns
                .iter()
                .map(|e| (e.value.to_bits(), e.ci.to_bits()))
                .collect();
            let yb: Vec<(u64, u64)> = y
                .slowdowns
                .iter()
                .map(|e| (e.value.to_bits(), e.ci.to_bits()))
                .collect();
            assert_eq!(xb, yb, "estimates differ");
        }
    }

    #[test]
    fn sampled_campaign_is_bitwise_identical_across_jobs() {
        let runs = sweep(400_000);
        let reference = run_campaign(&runs, &scale_with(1, 2));
        for jobs in [2, 4] {
            assert_bitwise_equal(&run_campaign(&runs, &scale_with(jobs, 2)), &reference);
        }
        // Sampled estimates carry a nonzero CI somewhere: the sweep has
        // ≥2 members per group and 8 intervals for K=2.
        assert!(reference
            .iter()
            .any(|r| r.slowdowns.iter().any(|e| e.ci > 0.0)));
    }

    #[test]
    fn k_at_least_n_degrades_to_exact_full_runs() {
        let runs = sweep(150_000); // 3 intervals
        let results = run_campaign(&runs, &scale_with(1, 3));
        let reference: Vec<SampledResult> = runs
            .iter()
            .map(|run| {
                let r = Runner::new(run.config.clone()).run(&run.apps, run.cycles);
                SampledResult {
                    slowdowns: collect::exact(&r.whole_run_slowdowns),
                    app_names: r.app_names,
                }
            })
            .collect();
        assert_bitwise_equal(&results, &reference);
        for r in &results {
            assert!(
                r.slowdowns.iter().all(|e| e.ci.to_bits() == 0),
                "exact runs: ci 0"
            );
        }
    }

    #[test]
    fn singleton_groups_run_in_full() {
        let runs = vec![PlannedRun::new(base_config(), mix(), 400_000)];
        let results = run_campaign(&runs, &scale_with(1, 2));
        assert_eq!(results.len(), 1);
        assert!(results[0].slowdowns.iter().all(|e| e.ci.to_bits() == 0));
    }

    #[test]
    fn indivisible_horizons_run_in_full() {
        let runs = sweep(430_000); // not a multiple of 50k
        let results = run_campaign(&runs, &scale_with(2, 2));
        for r in &results {
            assert!(r.slowdowns.iter().all(|e| e.ci.to_bits() == 0));
        }
    }

    #[test]
    fn manifest_round_trips_bitwise() {
        let r = SampledResult {
            app_names: vec!["a".into(), "b".into()],
            slowdowns: vec![
                Estimate {
                    value: 2.5,
                    ci: 0.125,
                },
                Estimate {
                    value: f64::NAN,
                    ci: 0.0,
                },
            ],
        };
        let load = |bytes: &[u8], key| {
            persist::unseal::<SampledResult>(bytes, SAMPLED.format, SAMPLED.version, key)
        };
        let bytes = persist::seal(SAMPLED.format, SAMPLED.version, 77, &r);
        let back = load(&bytes, 77).unwrap();
        assert_eq!(back.app_names, r.app_names);
        for (x, y) in back.slowdowns.iter().zip(&r.slowdowns) {
            assert_eq!(x.value.to_bits(), y.value.to_bits());
            assert_eq!(x.ci.to_bits(), y.ci.to_bits());
        }
        assert!(load(&bytes, 78).is_err(), "key mismatch rejected");
    }

    #[test]
    fn exact_members_ride_the_planner_and_replay_from_sampled_manifests() {
        let (dir, open) = crate::session::tests::checkpoint_dir("sampled_exact");
        let count = |kind: &Kind| std::fs::read_dir(dir.join(kind.dir)).map_or(0, Iterator::count);
        // K >= N: every member is exact, and one planner campaign runs
        // them — one shared warm-up, a run manifest each.
        let runs = sweep(150_000);
        let first = run_campaign_in(&open(false), &runs, &scale_with(2, 3));
        assert_eq!((count(&plan::WARMUPS), count(&plan::RUNS), count(&SAMPLED)), (1, 3, 3));
        // Resumed, the sampled manifests answer before the planner is
        // asked: dropping its artefacts changes nothing.
        std::fs::remove_dir_all(dir.join(plan::RUNS.dir)).unwrap();
        std::fs::remove_dir_all(dir.join(plan::WARMUPS.dir)).unwrap();
        assert_bitwise_equal(&run_campaign_in(&open(true), &runs, &scale_with(1, 3)), &first);
        assert_eq!((count(&plan::WARMUPS), count(&plan::RUNS)), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_key_tells_same_named_profiles_apart() {
        let run = PlannedRun::new(base_config(), mix(), 400_000);
        let mut renamed = run.clone();
        renamed.apps[0] = asm_cpu::AppProfile::builder(run.apps[0].name())
            .working_set_lines(1 << 10)
            .build();
        let spec = scale_with(1, 2).sample_spec();
        assert_ne!(manifest_key(&run, spec), manifest_key(&renamed, spec));
    }
}
