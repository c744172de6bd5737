//! Figure 7: estimation error vs core count (4 / 8 / 16), FST and PTCA
//! unsampled, ASM with the sampled ATS.

use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// Core counts evaluated.
pub const CORE_COUNTS: &[usize] = &[4, 8, 16];

/// Runs the Figure 7 sweep.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 7: error vs core count (FST/PTCA unsampled, ASM sampled) ===");
    let mut table = Table::new(vec![
        "cores".into(),
        "FST".into(),
        "FST sd".into(),
        "PTCA".into(),
        "PTCA sd".into(),
        "ASM".into(),
        "ASM sd".into(),
    ]);
    let configs = [scale.unsampled_config(), scale.deployed_config()];
    for &cores in CORE_COUNTS {
        let workloads = mix::random_mixes(
            scale.workloads_for(cores),
            cores,
            scale.seed ^ cores as u64,
        );
        let stats = accuracy_sweep(session, &configs, &workloads, scale.cycles, &scale);
        let (u, s) = (&stats[0], &stats[1]);
        table.row(vec![
            cores.to_string(),
            pct(u.mean_error("FST")),
            pct(u.workload_std_dev("FST")),
            pct(u.mean_error("PTCA")),
            pct(u.workload_std_dev("PTCA")),
            pct(s.mean_error("ASM")),
            pct(s.workload_std_dev("ASM")),
        ]);
    }
    session.emit("fig7", &table);
    println!("Expected shape: ASM lowest everywhere; all errors grow with core count;");
    println!("ASM's advantage widens as interference increases.");
}
