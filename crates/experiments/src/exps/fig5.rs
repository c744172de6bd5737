//! Figure 5: slowdown-estimation error with a stride prefetcher (degree 4,
//! distance 24), unsampled, with standard deviation across workloads.

use asm_core::PrefetchConfig;
use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// Runs the Figure 5 experiment.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 5: estimation error with a stride prefetcher (deg 4, dist 24) ===");
    let workloads = mix::random_mixes(scale.workloads, 4, scale.seed);

    let mut with_pf = scale.unsampled_config();
    with_pf.prefetcher = Some(PrefetchConfig::default());
    let stats = accuracy_sweep(session, &[scale.unsampled_config(), with_pf], &workloads, scale.cycles, &scale);
    let (stats_off, stats_on) = (&stats[0], &stats[1]);

    let mut table = Table::new(vec![
        "estimator".into(),
        "no prefetch".into(),
        "with prefetch".into(),
        "with-pf std dev".into(),
    ]);
    for name in ["FST", "PTCA", "ASM"] {
        table.row(vec![
            name.into(),
            pct(stats_off.mean_error(name)),
            pct(stats_on.mean_error(name)),
            pct(stats_on.workload_std_dev(name)),
        ]);
    }
    session.emit("fig5", &table);
    println!("Paper (with prefetching): FST 20% / PTCA 15% / ASM 7.5%");
    println!("Expected shape: ASM error stays lowest and does not degrade with prefetching.");
}
