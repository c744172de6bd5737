//! Ablations of the design choices DESIGN.md §5 calls out, as a printable
//! table (§5's other two choices are experiments of their own: `fig2`/
//! `fig3` for the aggregation granularity, `fig5` for the prefetcher).
//!
//! Each row reports ASM's mean estimation error under one modification of
//! the default model, quantifying how much each ingredient contributes.

use asm_core::{EpochAssignment, EstimatorSet, SystemConfig};
use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// Runs the ablation table.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Ablations: what each modelling ingredient buys ===");
    let mut base = scale.base_config();
    base.estimators = EstimatorSet::asm_only();
    let with = |edit: fn(&mut SystemConfig)| {
        let mut c = base.clone();
        edit(&mut c);
        c
    };
    let variants = [
        ("default (sampled ATS 64 sets, probabilistic epochs, queueing corr.)", base.clone()),
        ("ATS sampled to 8 sets", with(|c| c.ats_sampled_sets = Some(8))),
        ("ATS sampled to 256 sets", with(|c| c.ats_sampled_sets = Some(256))),
        ("full (unsampled) ATS", with(|c| c.ats_sampled_sets = None)),
        ("round-robin epoch assignment", with(|c| c.epoch_assignment = EpochAssignment::RoundRobin)),
        ("queueing-delay correction off", with(|c| c.asm_queueing_correction = false)),
    ];

    let workloads = mix::random_mixes((scale.workloads / 2).max(3), 4, scale.seed ^ 0xAB);
    let configs: Vec<SystemConfig> = variants.iter().map(|(_, c)| c.clone()).collect();
    let stats = accuracy_sweep(session, &configs, &workloads, scale.cycles, &scale);
    let mut table = Table::new(vec!["configuration".into(), "ASM mean error".into()]);
    for ((label, _), stats) in variants.iter().zip(&stats) {
        table.row(vec![(*label).into(), pct(stats.mean_error("ASM"))]);
    }

    session.emit("ablation", &table);
    println!("Expected shape: sampling level barely matters (the paper's robustness");
    println!("claim); round-robin epochs are comparable (§4.2); removing the queueing");
    println!("correction costs accuracy (§4.3).");
}
