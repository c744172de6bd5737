//! §6 "Accuracy with Database Workloads": TPC-C / YCSB-like mixes.
//!
//! The paper reports FST (unsampled) 27%, PTCA (unsampled) 12%, ASM
//! (sampled) 4%.

use asm_metrics::Table;
use asm_workloads::{mix, suite};

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// Runs the database-workload accuracy study.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Database workloads (TPC-C / YCSB-like): estimation accuracy ===");
    let pool = suite::db();
    let workloads = mix::mixes_from_pool(&pool, scale.workloads, 4, scale.seed ^ 0xDB);

    // FST/PTCA at their best (unsampled) vs ASM deployed (sampled).
    let configs = [scale.unsampled_config(), scale.deployed_config()];
    let stats = accuracy_sweep(session, &configs, &workloads, scale.cycles, &scale);
    let (stats_u, stats_s) = (&stats[0], &stats[1]);

    let mut table = Table::new(vec!["model".into(), "mean error".into(), "paper".into()]);
    table.row(vec![
        "FST (unsampled)".into(),
        pct(stats_u.mean_error("FST")),
        "27%".into(),
    ]);
    table.row(vec![
        "PTCA (unsampled)".into(),
        pct(stats_u.mean_error("PTCA")),
        "12%".into(),
    ]);
    table.row(vec![
        "ASM (sampled)".into(),
        pct(stats_s.mean_error("ASM")),
        "4%".into(),
    ]);
    session.emit("db", &table);
}
