//! §6.4: benefits of estimating shared-cache interference — MISE (memory
//! interference only) vs ASM (memory + cache), both with epoch-based
//! aggregation.

use asm_core::EstimatorSet;
use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// Runs the §6.4 comparison.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Section 6.4: MISE vs ASM (value of modelling cache interference) ===");
    let mut config = scale.base_config();
    config.estimators = EstimatorSet {
        asm: true,
        mise: true,
        ..EstimatorSet::none()
    };
    config.ats_sampled_sets = Some(64);

    let workloads = mix::random_mixes(scale.workloads, 4, scale.seed);
    let stats = accuracy_sweep(session, &[config], &workloads, scale.cycles, &scale).remove(0);

    let mut table = Table::new(vec!["model".into(), "mean error".into()]);
    table.row(vec![
        "MISE (memory only)".into(),
        pct(stats.mean_error("MISE")),
    ]);
    table.row(vec![
        "ASM (memory + cache)".into(),
        pct(stats.mean_error("ASM")),
    ]);
    session.emit("mise", &table);
    println!("Paper: MISE 22% vs ASM 9.9% — ASM should be lower.");
}
