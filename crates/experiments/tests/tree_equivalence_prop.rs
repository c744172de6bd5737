//! The trajectory-tree planner against the runs it replaces.
//!
//! `plan::run_campaign` lets sweep members share one simulation until a
//! quantum boundary at which their policies decide differently. Whatever
//! it shares, every member's result must be bitwise the result of that
//! member's own cold `Runner::run_with` — for any mix of policies,
//! horizon, instrumentation and `jobs`. The proptest sweeps the
//! combinations nobody hand-picked (the hand-picked edge cases sit in
//! `plan.rs`'s unit tests); the second test pins how much the planner
//! simulates, as an exact count: one quantum-run per distinct history of
//! boundary decisions, no more and no fewer.

use std::sync::Arc;

use asm_core::mech::{BoundaryDecision, BoundaryPolicies};
use asm_core::{
    AloneCache, CachePolicy, EstimatorSet, MemPolicy, QosConfig, RunOptions, RunResult, Runner,
    System, SystemConfig, ThrottlePolicy,
};
use asm_cpu::AppProfile;
use asm_experiments::plan::{self, PlannedRun};
use asm_experiments::Session;
use asm_simcore::AppId;
use asm_workloads::suite;
use proptest::prelude::*;

const POOL: &[&str] = &[
    "mcf_like",
    "libquantum_like",
    "soplex_like",
    "gcc_like",
    "h264ref_like",
    "povray_like",
];

/// Close enough together that neighbours often choose the same
/// partition, and few enough that members repeat whole configurations.
const BOUNDS: [f64; 4] = [1.5, 2.0, 2.05, 3.0];

fn profiles(app_ix: &[usize]) -> Vec<AppProfile> {
    app_ix
        .iter()
        .map(|&i| suite::by_name(POOL[i]).expect("pool name exists in suite"))
        .collect()
}

fn qos(bound: f64) -> CachePolicy {
    CachePolicy::AsmQos(QosConfig {
        target: AppId::new(0),
        bound,
    })
}

/// Everything a `RunResult` observes, floats as bit patterns.
fn digest(r: &RunResult) -> String {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut out = format!("apps={:?} ", r.app_names);
    for q in &r.quanta {
        out.push_str(&format!(
            "[act={:?} car={:?} part={:?}",
            bits(&q.actual),
            bits(&q.car_shared),
            q.partition
        ));
        for (name, est) in &q.estimates {
            out.push_str(&format!(" {name}={:?}", bits(est)));
        }
        out.push(']');
    }
    out.push_str(&format!(" whole={:?}", bits(&r.whole_run_slowdowns)));
    if let Some(t) = &r.telemetry {
        out.push_str(&format!(" counters={:?}", t.counters));
    }
    if let Some(a) = &r.attribution {
        out.push_str(&format!(" ledger={:?} blame={:?}", a.totals, a.blame));
        for q in &a.quanta {
            out.push_str(&format!(" q={:?}/{:?}", q.ledger, q.blame));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn campaign_members_match_their_cold_runs_bitwise(
        app_ix in prop::collection::vec(0usize..6, 2..4),
        // One member per code: cache policy × QoS bound × memory policy ×
        // throttle, decoded below.
        codes in prop::collection::vec(0usize..96, 2..8),
        quanta in 1u64..7,
        ragged in 0u64..3,
        telemetry in 0u8..2,
        attrib in 0u8..2,
        jobs_ix in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let mut base = SystemConfig::default();
        base.quantum = 20_000;
        base.epoch = 500;
        base.estimators = EstimatorSet::all();
        base.seed = seed;
        let apps = profiles(&app_ix);
        // Whole quanta, or a third / two thirds of one more.
        let cycles = quanta * base.quantum + ragged * base.quantum / 3;
        let runs: Vec<PlannedRun> = codes
            .iter()
            .map(|&code| {
                let mut c = base.clone();
                c.cache_policy = [
                    CachePolicy::None,
                    CachePolicy::Ucp,
                    CachePolicy::Mcfq,
                    CachePolicy::AsmCache,
                    qos(BOUNDS[code / 6 % 4]),
                    CachePolicy::NaiveQos(AppId::new(0)),
                ][code % 6];
                c.mem_policy = [MemPolicy::Uniform, MemPolicy::SlowdownWeighted][code / 24 % 2];
                if code / 48 == 1 {
                    c.throttle_policy = ThrottlePolicy::Fst { unfairness_threshold: 1.4 };
                }
                PlannedRun::new(c, apps.clone(), cycles)
            })
            .collect();
        let opts = RunOptions {
            telemetry: telemetry == 1,
            trace_sample: None,
            attrib: attrib == 1,
        };

        let (got, stats) = plan::run_campaign_counted(&Session::default(), &runs, [1, 3][jobs_ix], opts);
        let cache = Arc::new(AloneCache::new());
        for (i, run) in runs.iter().enumerate() {
            let cold = Runner::with_cache(run.config.clone(), Arc::clone(&cache))
                .run_with(&run.apps, run.cycles, opts);
            prop_assert_eq!(
                digest(&got[i]), digest(&cold),
                "member {} of {:?} diverged from its cold run (apps {:?}, {} cycles, seed {})",
                i, codes, app_ix, cycles, seed
            );
        }
        prop_assert!(stats.quantum_runs <= stats.per_member_quantum_runs, "{}", stats);
        prop_assert_eq!(stats.cold_fallbacks, 0);
    }
}

/// The 38-member sweep of fig9–11 and the benchmark (19 cache policies,
/// 14 of them neighbouring ASM-QoS bounds, × 2 memory policies) at a
/// small geometry.
fn sweep(quanta: u64) -> Vec<PlannedRun> {
    let mut base = SystemConfig::default();
    base.quantum = 50_000;
    base.epoch = 1_000;
    base.seed = 42;
    let apps = profiles(&[0, 1, 2, 4]);
    let target = AppId::new(0);
    let mut cache_policies = vec![
        CachePolicy::None,
        CachePolicy::Ucp,
        CachePolicy::Mcfq,
        CachePolicy::AsmCache,
        CachePolicy::NaiveQos(target),
    ];
    cache_policies.extend((0..14).map(|k| qos(1.5 + 0.25 * f64::from(k))));
    let mut runs = Vec::new();
    for &cache in &cache_policies {
        for mem in [MemPolicy::Uniform, MemPolicy::SlowdownWeighted] {
            let mut c = base.clone();
            c.cache_policy = cache;
            c.mem_policy = mem;
            runs.push(PlannedRun::new(c, apps.clone(), quanta * base.quantum));
        }
    }
    runs
}

/// What `run` decides at each boundary that opens a further quantum, read
/// off its own cold system.
fn decision_history(run: &PlannedRun) -> Vec<BoundaryDecision> {
    let q = run.config.quantum;
    let mut sys = System::new(&run.apps, run.config.clone());
    sys.set_sibling_policies(vec![BoundaryPolicies::of(&run.config)]);
    sys.run_prefix(q);
    (1..run.cycles / q)
        .map(|_| {
            sys.run_prefix(q);
            sys.sibling_decisions()[0].clone()
        })
        .collect()
}

#[test]
fn sweep_simulates_one_quantum_per_distinct_decision_history() {
    const QUANTA: u64 = 4;
    let runs = sweep(QUANTA);
    let histories: Vec<Vec<BoundaryDecision>> = runs.iter().map(decision_history).collect();
    // Quantum j is simulated once per distinct sequence of the j decisions
    // before it: equal sequences mean equal states, by induction from the
    // shared first quantum.
    let expected: u64 = (0..QUANTA as usize)
        .map(|j| {
            let mut distinct: Vec<&[BoundaryDecision]> = Vec::new();
            for h in &histories {
                if !distinct.contains(&&h[..j]) {
                    distinct.push(&h[..j]);
                }
            }
            distinct.len() as u64
        })
        .sum();

    let members = runs.len() as u64;
    for jobs in [1, 3] {
        let (_, stats) = plan::run_campaign_counted(&Session::default(), &runs, jobs, RunOptions::default());
        assert_eq!(stats.quantum_runs, expected, "jobs {jobs}: {stats}");
        assert_eq!(stats.per_member_quantum_runs, 1 + members * (QUANTA - 1));
        assert!(
            stats.quantum_runs < stats.per_member_quantum_runs,
            "the sweep shared nothing past its first quantum: {stats}"
        );
        assert_eq!((stats.groups, stats.replayed, stats.cold_fallbacks), (1, 0, 0));
    }
}
