//! Channel-count sensitivity (Table 2 lists 1-4 channels; §7.2 reports
//! ASM-Mem's gains on a 2-channel system and §7.2's combined scheme on
//! 1/2 channels).
//!
//! For each channel count this reports (a) ASM's estimation error and (b)
//! ASM-Mem's fairness against FR-FCFS — more channels mean less bandwidth
//! contention, so both the error and the fairness gap should shrink.

use asm_core::{EstimatorSet, MemPolicy, RunResult, SystemConfig};
use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::{collect_accuracy, exact, mech_outcome, pct};
use crate::plan;
use crate::{Scale, Session};

/// Channel counts evaluated.
pub const CHANNELS: &[usize] = &[1, 2, 4];

fn config_with_channels(scale: Scale, channels: usize) -> SystemConfig {
    let mut c = scale.base_config();
    c.dram.channels = channels;
    c
}

/// Runs the channel-count sweep.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Channel count sensitivity (1 / 2 / 4 channels, 8-core) ===");
    let workloads = mix::binned_mixes((scale.workloads / 2).max(2), 8, scale.seed ^ 0xC4A7);

    let mut table = Table::new(vec![
        "channels".into(),
        "ASM error".into(),
        "FRFCFS unfairness".into(),
        "ASM-Mem unfairness".into(),
        "ASM-Mem harmonic speedup".into(),
    ]);
    // Per channel count: the accuracy leg, FR-FCFS, ASM-Mem.
    let configs: Vec<SystemConfig> = CHANNELS
        .iter()
        .flat_map(|&channels| {
            let mut accuracy_cfg = config_with_channels(scale, channels);
            accuracy_cfg.estimators = EstimatorSet::asm_only();

            let mut frfcfs_cfg = config_with_channels(scale, channels);
            frfcfs_cfg.estimators = EstimatorSet::none();
            frfcfs_cfg.epochs_enabled = false;

            let mut asm_mem_cfg = config_with_channels(scale, channels);
            asm_mem_cfg.estimators = EstimatorSet::asm_only();
            asm_mem_cfg.mem_policy = MemPolicy::SlowdownWeighted;
            [accuracy_cfg, frfcfs_cfg, asm_mem_cfg]
        })
        .collect();
    let results = plan::run_campaign_in(session, &plan::cross(&configs, &workloads, scale.cycles), scale.jobs);
    let outcome = |leg: &[RunResult]| {
        mech_outcome(&leg.iter().map(|r| exact(&r.whole_run_slowdowns)).collect::<Vec<_>>())
    };
    let legs: Vec<&[RunResult]> = results.chunks(workloads.len()).collect();
    for (&channels, leg) in CHANNELS.iter().zip(legs.chunks(3)) {
        let stats = collect_accuracy(leg[0], scale.warmup_quanta);
        let (frfcfs, asm_mem) = (outcome(leg[1]), outcome(leg[2]));
        table.row(vec![
            channels.to_string(),
            pct(stats.mean_error("ASM")),
            format!("{:.2}", frfcfs.unfairness.value),
            format!("{:.2}", asm_mem.unfairness.value),
            format!("{:.3}", asm_mem.harmonic_speedup.value),
        ]);
    }
    session.emit("channels", &table);
    println!("Expected shape: contention (and so both unfairness and estimation error)");
    println!("shrinks as channels are added; ASM-Mem stays at or below FRFCFS unfairness.");
}
