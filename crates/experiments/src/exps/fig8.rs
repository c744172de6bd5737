//! Figure 8: estimation error vs shared cache capacity (1 / 2 / 4 MB),
//! 4-core workloads.

use asm_cache::CacheGeometry;
use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// Cache capacities evaluated (bytes).
pub const CAPACITIES: &[u64] = &[1 << 20, 2 << 20, 4 << 20];

/// Runs the Figure 8 sweep.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 8: error vs shared cache capacity (4-core) ===");
    let workloads = mix::random_mixes(scale.workloads, 4, scale.seed);
    let mut table = Table::new(vec![
        "cache".into(),
        "FST".into(),
        "PTCA".into(),
        "ASM".into(),
    ]);
    // Per capacity: FST/PTCA unsampled, then ASM deployed.
    let configs: Vec<_> = CAPACITIES
        .iter()
        .flat_map(|&cap| [scale.unsampled_config(), scale.deployed_config()].map(|mut c| {
            c.llc_geometry = CacheGeometry::from_capacity(cap, 16);
            c
        }))
        .collect();
    let stats = accuracy_sweep(session, &configs, &workloads, scale.cycles, &scale);
    for (&cap, point) in CAPACITIES.iter().zip(stats.chunks(2)) {
        table.row(vec![
            format!("{} MB", cap >> 20),
            pct(point[0].mean_error("FST")),
            pct(point[0].mean_error("PTCA")),
            pct(point[1].mean_error("ASM")),
        ]);
    }
    session.emit("fig8", &table);
    println!("Expected shape: ASM most accurate at every capacity.");
}
