//! Skip-mode ground truth: fast-forwarding must be *bitwise* identical to
//! the cycle-by-cycle loop — same retired counts, same `QuantumRecord`
//! streams (floats compared by bit pattern), same progress logs, same
//! measured histograms. See DESIGN.md §8 "Fast-forward without
//! nondeterminism" for why this holds by construction.

use asm_core::{QuantumRecord, System, SystemConfig};
use asm_core::{CachePolicy, EpochAssignment, EstimatorSet, MemPolicy, ThrottlePolicy};
use asm_cpu::AppProfile;
use asm_simcore::AppId;
use asm_workloads::suite;

/// Everything observable about a finished run, with floats as bit
/// patterns so equality is exact.
#[derive(Debug, PartialEq, Eq)]
struct RunDigest {
    now: u64,
    retired: Vec<u64>,
    records: Vec<RecordDigest>,
    summaries: Vec<SummaryDigest>,
    hist: Option<(Vec<u64>, u64, u64)>,
}

#[derive(Debug, PartialEq, Eq)]
struct RecordDigest {
    start: u64,
    end: u64,
    retired_start: Vec<u64>,
    retired_end: Vec<u64>,
    car_shared: Vec<u64>,
    estimates: Vec<(String, Vec<u64>)>,
    partition: Option<Vec<usize>>,
}

#[derive(Debug, PartialEq, Eq)]
struct SummaryDigest {
    instructions: u64,
    llc_accesses: u64,
    llc_hits: u64,
    llc_misses: u64,
    ipc_bits: u64,
    car_bits: u64,
}

fn digest_record(r: &QuantumRecord) -> RecordDigest {
    RecordDigest {
        start: r.start_cycle,
        end: r.end_cycle,
        retired_start: r.retired_start.clone(),
        retired_end: r.retired_end.clone(),
        car_shared: r.car_shared.iter().map(|v| v.to_bits()).collect(),
        estimates: r
            .estimates
            .iter()
            .map(|(n, v)| (n.clone(), v.iter().map(|x| x.to_bits()).collect()))
            .collect(),
        partition: r.partition.clone(),
    }
}

fn digest(sys: &System) -> RunDigest {
    let n = sys.app_count();
    RunDigest {
        now: sys.now(),
        retired: (0..n).map(|i| sys.retired(AppId::new(i))).collect(),
        records: sys.records().iter().map(digest_record).collect(),
        summaries: (0..n)
            .map(|i| {
                let s = sys.app_summary(AppId::new(i));
                SummaryDigest {
                    instructions: s.instructions,
                    llc_accesses: s.llc_accesses,
                    llc_hits: s.llc_hits,
                    llc_misses: s.llc_misses,
                    ipc_bits: s.ipc.to_bits(),
                    car_bits: s.car.to_bits(),
                }
            })
            .collect(),
        hist: sys.measured_miss_latency_hist().map(|h| {
            (
                (0..h.buckets()).map(|b| h.bucket_count(b)).collect(),
                h.overflow(),
                h.total(),
            )
        }),
    }
}

/// Runs the same workload with `skip_mode` on and off (in several
/// `run_for` slices, to exercise resume-at-arbitrary-cycle too) and
/// asserts the digests match exactly.
fn assert_equivalent(profiles: &[AppProfile], config: &SystemConfig, cycles: u64) {
    let run = |skip: bool| {
        let mut c = config.clone();
        c.skip_mode = skip;
        let mut sys = System::new(profiles, c);
        // Uneven slices: fast-forward must survive run_for boundaries
        // that are not event or quantum boundaries.
        let (a, b) = (cycles / 3, cycles / 7);
        sys.run_for(a);
        sys.run_for(b);
        sys.run_for(cycles - a - b);
        digest(&sys)
    };
    let skip = run(true);
    let cycle = run(false);
    assert_eq!(skip, cycle, "skip mode diverged from cycle mode");
}

fn memory_heavy() -> Vec<AppProfile> {
    vec![
        suite::by_name("mcf_like").expect("suite profile exists"),
        suite::by_name("libquantum_like").expect("suite profile exists"),
    ]
}

fn base_config() -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = 50_000;
    c.epoch = 1_000;
    c.estimators = EstimatorSet::all();
    c
}

#[test]
fn skip_equals_cycle_on_memory_heavy_mix() {
    assert_equivalent(&memory_heavy(), &base_config(), 200_000);
}

#[test]
fn skip_equals_cycle_with_compute_bound_partner() {
    let apps = vec![
        suite::by_name("mcf_like").expect("suite profile exists"),
        suite::by_name("h264ref_like").expect("suite profile exists"),
    ];
    assert_equivalent(&apps, &base_config(), 150_000);
}

#[test]
fn skip_equals_cycle_with_prefetcher_and_histograms() {
    let mut c = base_config();
    c.prefetcher = Some(asm_core::PrefetchConfig::default());
    c.latency_hist = Some((50.0, 40));
    assert_equivalent(&memory_heavy(), &c, 150_000);
}

#[test]
fn skip_equals_cycle_under_every_mechanism() {
    let mut c = base_config();
    c.cache_policy = CachePolicy::AsmCache;
    c.mem_policy = MemPolicy::SlowdownWeighted;
    c.throttle_policy = ThrottlePolicy::Fst {
        unfairness_threshold: 1.4,
    };
    assert_equivalent(&memory_heavy(), &c, 200_000);
}

#[test]
fn skip_equals_cycle_with_round_robin_epochs_disabled_estimators() {
    let mut c = base_config();
    c.epoch_assignment = EpochAssignment::RoundRobin;
    c.estimators = EstimatorSet::none();
    assert_equivalent(&memory_heavy(), &c, 120_000);
}

#[test]
fn skip_equals_cycle_with_epochs_off() {
    let mut c = base_config();
    c.epochs_enabled = false;
    assert_equivalent(&memory_heavy(), &c, 120_000);
}

#[test]
fn skip_equals_cycle_on_alone_runs_including_progress() {
    let profiles = memory_heavy();
    let run = |skip: bool| {
        let mut c = base_config();
        c.skip_mode = skip;
        let mut sys = System::new_alone(&profiles, c, AppId::new(0));
        sys.enable_progress_logging();
        sys.run_for(150_000);
        (
            sys.retired(AppId::new(0)),
            sys.progress_log(AppId::new(0)).clone(),
        )
    };
    assert_eq!(run(true), run(false), "alone-run progress log diverged");
}

/// Fast-forward actually fast-forwards: on a memory-bound mix the skip
/// loop must execute well under half the simulated cycles (the rest are
/// provably dead). Guards against the next-event fold silently
/// degenerating into `now + 1` everywhere.
#[test]
fn skip_mode_actually_skips() {
    let mut c = base_config();
    c.estimators = EstimatorSet::asm_only();
    let apps = vec![
        suite::by_name("mcf_like").expect("suite profile exists"),
        suite::by_name("mcf_like").expect("suite profile exists"),
    ];
    let mut sys = System::new(&apps, c);
    sys.run_for(500_000);
    let executed = sys.executed_cycles();
    assert!(
        executed * 2 < 500_000,
        "skip mode executed {executed} of 500000 cycles — not skipping"
    );
}

/// Event-driven cores, as an exact work count: on a compute-bound mix the
/// cores touch the hierarchy on a small minority of cycles, so skip mode
/// must execute under a fifth of the horizon — while ending in exactly the
/// state the cycle-by-cycle run reaches. Guards against `Core::next_issue`
/// silently degenerating into `now + 1`.
#[test]
fn compute_mix_executes_a_fifth_of_the_horizon() {
    const HORIZON: u64 = 400_000;
    let apps: Vec<AppProfile> = ["h264ref_like", "povray_like", "h264ref_like", "povray_like"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite profile exists"))
        .collect();
    let run = |skip: bool| {
        let mut c = base_config();
        c.skip_mode = skip;
        let mut sys = System::new(&apps, c);
        sys.run_for(HORIZON);
        (digest(&sys), sys.executed_cycles())
    };
    let (skip, executed) = run(true);
    let (cycle, every) = run(false);
    assert_eq!(every, HORIZON);
    assert_eq!(skip, cycle, "skip mode diverged from cycle mode");
    assert!(
        executed * 5 < HORIZON,
        "skip mode executed {executed} of {HORIZON} cycles on a compute-bound mix"
    );
}
