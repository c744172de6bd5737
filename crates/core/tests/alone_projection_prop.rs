//! Property test backing the alone-run projection: an alone run simulated
//! on a member's configuration must be bitwise identical to one simulated
//! on `checkpoint::alone_config` of it, for *randomized* values of every
//! field the projection neutralises. That is what lets every member with
//! the same alone machine share one alone run (and one cache entry).
//!
//! The member side is the member's own configuration, with no field
//! neutralised: the estimators, all three boundary policies (a partition
//! that reserves ways for the idle slots included), Q, E and the epoch
//! switch take random values.

use asm_core::checkpoint::alone_config;
use asm_core::{
    CachePolicy, EpochAssignment, EstimatorSet, MemPolicy, QosConfig, System, SystemConfig,
    ThrottlePolicy,
};
use asm_dram::SchedulerKind;
use asm_simcore::{AppId, Histogram};
use asm_workloads::suite;
use proptest::prelude::*;

const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::FrFcfs,
    SchedulerKind::Parbs,
    SchedulerKind::Tcm,
    SchedulerKind::Atlas,
    SchedulerKind::Bliss,
];

/// Quantum lengths crossed with epoch lengths; every epoch divides every
/// quantum, so all combinations pass `SystemConfig::validate`.
const QUANTA: &[u64] = &[20_000, 40_000];
const EPOCHS: &[u64] = &[500, 1_000, 4_000];

/// What an alone record holds: the progress log as the cycle of every
/// milestone (bits), and the measured miss-latency histogram.
fn alone_run(
    apps: &[asm_cpu::AppProfile],
    slot: usize,
    config: SystemConfig,
    cycles: u64,
) -> (Vec<u64>, Option<Histogram>) {
    let interval = config.progress_interval;
    let mut sys = System::new_alone(apps, config, AppId::new(slot));
    sys.enable_progress_logging();
    sys.run_for(cycles);
    let log = sys.progress_log(AppId::new(slot));
    let milestones = (1..=log.milestones() as u64)
        .map(|k| log.cycle_at(k * interval).to_bits())
        .collect();
    (milestones, sys.measured_miss_latency_hist().cloned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn alone_runs_ignore_every_neutralised_field(
        mix in prop::collection::vec(0usize..1_000, 1..5),
        slot_pick in 0usize..4,
        est_ix in 0usize..4,
        cache_ix in 0usize..6,
        mem_ix in 0usize..2,
        q_ix in 0usize..2,
        e_ix in 0usize..3,
        epochs_enabled in 0u8..2,
        ats_ix in 0usize..3,
        filter_log2 in 4u32..16,
        correction in 0u8..2,
        assign_ix in 0usize..2,
        throttle in 0u8..2,
        prefetch in 0u8..2,
        hist in 0u8..2,
        skip in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let pool = suite::all();
        let apps: Vec<_> = mix.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let slot = slot_pick % apps.len();

        let target = AppId::new((slot_pick + 1) % apps.len());
        let mut member = SystemConfig::default();
        member.estimators = [
            EstimatorSet::none(),
            EstimatorSet::asm_only(),
            EstimatorSet::all(),
            EstimatorSet::everything(),
        ][est_ix];
        member.cache_policy = [
            CachePolicy::None,
            CachePolicy::Ucp,
            CachePolicy::Mcfq,
            CachePolicy::AsmCache,
            CachePolicy::AsmQos(QosConfig { target, bound: 2.0 }),
            CachePolicy::NaiveQos(target),
        ][cache_ix];
        member.mem_policy = [MemPolicy::Uniform, MemPolicy::SlowdownWeighted][mem_ix];
        member.quantum = QUANTA[q_ix];
        member.epoch = EPOCHS[e_ix];
        member.epochs_enabled = epochs_enabled == 1;
        member.ats_sampled_sets = [None, Some(64), Some(256)][ats_ix];
        member.pollution_filter_bits = 1 << filter_log2;
        member.asm_queueing_correction = correction == 1;
        member.epoch_assignment =
            [EpochAssignment::Probabilistic, EpochAssignment::RoundRobin][assign_ix];
        if throttle == 1 {
            member.throttle_policy = ThrottlePolicy::Fst { unfairness_threshold: 1.1 };
        }
        // Kept fields, varied so the projection is checked off the defaults.
        if prefetch == 1 {
            member.prefetcher = Some(asm_core::PrefetchConfig::default());
        }
        if hist == 1 {
            member.latency_hist = Some((25.0, 60));
        }
        member.skip_mode = skip == 1;
        member.seed = seed;

        let cycles = member.quantum * 3 + member.quantum / 3;
        for scheduler in SCHEDULERS {
            member.scheduler = scheduler;
            member.validate();
            let projected = alone_config(&member);
            prop_assert_eq!(projected.scheduler, scheduler);
            prop_assert_eq!(
                alone_run(&apps, slot, member.clone(), cycles),
                alone_run(&apps, slot, projected, cycles),
                "alone run moved under the projection ({:?}, slot {} of {:?}, Q={}, E={}, seed {})",
                scheduler, slot, mix, member.quantum, member.epoch, seed
            );
        }
    }
}
