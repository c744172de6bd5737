//! Property test backing the checkpoint guarantee: for *randomized*
//! valid `SystemConfig`s and workload mixes, a run forked from a warmup
//! snapshot (`Runner::warm_snapshot` + `Runner::run_with_snapshot`) must
//! produce a `RunResult` bitwise identical to the straight cold run —
//! whatever quantum-boundary policies the deferred first boundary then
//! fires under. The hand-picked forks in `checkpoint.rs`'s unit tests cover the policy
//! matrix deliberately; this sweep covers the combinations nobody
//! thought of. A second block pins the rejection paths: damaged,
//! truncated, stale-version and wrong-key snapshots must error, never
//! silently change results.

use asm_core::{
    CachePolicy, EpochAssignment, EstimatorSet, MemPolicy, QosConfig, RunOptions, RunResult,
    Runner, SystemConfig, ThrottlePolicy,
};
use asm_dram::SchedulerKind;
use asm_simcore::persist::PersistError;
use asm_simcore::AppId;
use asm_workloads::suite;
use proptest::prelude::*;

/// A pool spanning the suite's intensity range (same as the skip sweep).
const POOL: &[&str] = &[
    "mcf_like",
    "libquantum_like",
    "soplex_like",
    "gcc_like",
    "h264ref_like",
    "povray_like",
];

/// Quantum lengths crossed with epoch lengths; every epoch divides every
/// quantum, so all combinations pass `SystemConfig::validate`.
const QUANTA: &[u64] = &[20_000, 60_000];
const EPOCHS: &[u64] = &[500, 1_000, 2_500];

/// Everything a `RunResult` observes, floats as bit patterns.
fn digest(r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("apps={:?} ", r.app_names));
    for q in &r.quanta {
        let actual: Vec<u64> = q.actual.iter().map(|v| v.to_bits()).collect();
        let car: Vec<u64> = q.car_shared.iter().map(|v| v.to_bits()).collect();
        out.push_str(&format!("[act={actual:?} car={car:?}"));
        for (name, est) in &q.estimates {
            let bits: Vec<u64> = est.iter().map(|v| v.to_bits()).collect();
            out.push_str(&format!(" {name}={bits:?}"));
        }
        out.push_str(&format!(" part={:?}]", q.partition));
    }
    let whole: Vec<u64> = r.whole_run_slowdowns.iter().map(|v| v.to_bits()).collect();
    out.push_str(&format!(" whole={whole:?}"));
    if let Some(t) = &r.telemetry {
        out.push_str(&format!(" counters={:?}", t.counters));
    }
    out
}

fn profiles(app_ix: &[usize]) -> Vec<asm_cpu::AppProfile> {
    app_ix
        .iter()
        .map(|&i| suite::by_name(POOL[i]).expect("pool name exists in suite"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn forked_runs_match_cold_runs_bitwise(
        app_ix in prop::collection::vec(0usize..6, 2..4),
        q_ix in 0usize..2,
        e_ix in 0usize..3,
        epochs_enabled in 0u8..2,
        est_ix in 0usize..3,
        cache_ix in 0usize..5,
        mem_ix in 0usize..2,
        sched_ix in 0usize..3,
        assign_ix in 0usize..2,
        throttle in 0u8..2,
        telemetry in 0u8..2,
        seed in 0u64..1_000_000,
        extra_thirds in 1u64..7,
    ) {
        let mut config = SystemConfig::default();
        config.quantum = QUANTA[q_ix];
        config.epoch = EPOCHS[e_ix];
        config.epochs_enabled = epochs_enabled == 1;
        config.estimators =
            [EstimatorSet::asm_only(), EstimatorSet::all(), EstimatorSet::none()][est_ix].clone();
        config.cache_policy = [
            CachePolicy::None,
            CachePolicy::AsmCache,
            CachePolicy::Ucp,
            CachePolicy::NaiveQos(AppId::new(0)),
            CachePolicy::AsmQos(QosConfig { target: AppId::new(0), bound: 3.0 }),
        ][cache_ix];
        config.mem_policy = [MemPolicy::Uniform, MemPolicy::SlowdownWeighted][mem_ix];
        config.scheduler =
            [SchedulerKind::FrFcfs, SchedulerKind::Tcm, SchedulerKind::Bliss][sched_ix];
        config.epoch_assignment =
            [EpochAssignment::Probabilistic, EpochAssignment::RoundRobin][assign_ix];
        if throttle == 1 {
            config.throttle_policy = ThrottlePolicy::Fst { unfairness_threshold: 1.4 };
        }
        config.seed = seed;
        config.validate();

        let opts = RunOptions {
            telemetry: telemetry == 1,
            trace_sample: None,
            attrib: telemetry == 1,
        };
        let apps = profiles(&app_ix);
        // At least one full quantum (the warm prefix) plus a ragged tail.
        let cycles = config.quantum + extra_thirds * config.quantum / 3;

        let runner = Runner::new(config);
        let snapshot = runner.warm_snapshot(&apps, opts);
        let forked = runner
            .run_with_snapshot(&apps, cycles, opts, &snapshot)
            .expect("fresh snapshot restores");
        let cold = runner.run_with(&apps, cycles, opts);
        prop_assert_eq!(
            digest(&forked), digest(&cold),
            "forked run diverged from cold run (apps {:?}, Q={}, seed {})",
            app_ix, runner.config().quantum, seed
        );
    }

    #[test]
    fn damaged_snapshots_are_rejected_not_misread(
        flip_byte in 8usize..64,
        truncate_at in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let mut config = SystemConfig::default();
        config.quantum = 20_000;
        config.epoch = 1_000;
        config.estimators = EstimatorSet::asm_only();
        config.seed = seed;
        config.validate();
        let apps = profiles(&[0, 4]);
        let opts = RunOptions::default();
        let runner = Runner::new(config);
        let snapshot = runner.warm_snapshot(&apps, opts);
        let cycles = 30_000;

        // Bit damage anywhere past the magic: checksum catches it.
        let mut bad = snapshot.clone();
        let i = flip_byte % bad.len();
        bad[i] ^= 0x01;
        prop_assert!(
            runner.run_with_snapshot(&apps, cycles, opts, &bad).is_err(),
            "flipped byte {i} accepted"
        );

        // Truncation: never panics, always a structured error.
        let cut = truncate_at % snapshot.len();
        prop_assert!(
            runner.run_with_snapshot(&apps, cycles, opts, &snapshot[..cut]).is_err(),
            "truncation to {cut} bytes accepted"
        );
    }
}

/// A snapshot from a *future* format version must fail with
/// `StaleVersion`, the signal the planner's warn-and-rebuild relies on.
#[test]
fn stale_version_snapshots_are_rejected() {
    use asm_core::checkpoint::{SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
    use asm_simcore::persist::StateWriter;

    let mut w = StateWriter::new(SNAPSHOT_FORMAT, SNAPSHOT_VERSION + 1);
    w.u64(0);
    w.u64(20_000);
    let future = w.finish();

    let mut config = SystemConfig::default();
    config.quantum = 20_000;
    config.epoch = 1_000;
    config.validate();
    let runner = Runner::new(config);
    let apps = profiles(&[0, 4]);
    match runner.run_with_snapshot(&apps, 30_000, RunOptions::default(), &future) {
        Err(PersistError::StaleVersion {
            found, expected, ..
        }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected StaleVersion, got {other:?}"),
    }
}

/// A key mismatch (same structure, different mix) is rejected as corrupt
/// before any state is trusted.
#[test]
fn wrong_key_snapshots_are_rejected() {
    let mut config = SystemConfig::default();
    config.quantum = 20_000;
    config.epoch = 1_000;
    config.validate();
    let runner = Runner::new(config);
    let opts = RunOptions::default();
    let snapshot = runner.warm_snapshot(&profiles(&[0, 4]), opts);
    // Same app count, different mix: the embedded key cannot match.
    let other = profiles(&[1, 5]);
    match runner.run_with_snapshot(&other, 30_000, opts, &snapshot) {
        Err(PersistError::Corrupt(msg)) => assert!(msg.contains("key"), "{msg}"),
        other => panic!("expected key mismatch, got {other:?}"),
    }
}
