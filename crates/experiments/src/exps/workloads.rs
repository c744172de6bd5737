//! Prints the synthetic benchmark suite: the substitution table for the
//! paper's SPEC CPU2006 / NAS / database applications (see DESIGN.md §1).

use asm_cpu::AppProfile;
use asm_metrics::Table;
use asm_workloads::suite;

use crate::{Scale, Session};

fn push_rows(table: &mut Table, suite_name: &str, profiles: &[AppProfile]) {
    for p in profiles {
        table.row(vec![
            suite_name.into(),
            p.name().into(),
            p.mem_per_kilo().to_string(),
            format!("{}", p.working_set_lines() * 64 / 1024),
            format!("{}", p.hot_lines() * 64 / 1024),
            format!("{:.0}%", p.hot_frac() * 100.0),
            p.seq_run().to_string(),
            p.mlp().to_string(),
            format!("{:.0}%", p.write_frac() * 100.0),
        ]);
    }
}

/// Prints the profile table.
pub fn run(session: &Session, _scale: Scale) {
    println!("\n=== Synthetic benchmark suite (stand-ins for SPEC/NAS/DB; DESIGN.md §1) ===");
    let mut table = Table::new(
        [
            "suite",
            "profile",
            "mem/kilo-instr",
            "working set (KB)",
            "hot set (KB)",
            "hot frac",
            "seq run",
            "MLP",
            "writes",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    push_rows(&mut table, "SPEC-like", &suite::spec());
    push_rows(&mut table, "NAS-like", &suite::nas());
    push_rows(&mut table, "DB-like", &suite::db());
    session.emit("workloads", &table);
    println!("Reference points: L1 = 64 KB, shared LLC = 2048 KB (Table 2).");
}
