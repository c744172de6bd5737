//! Fair pricing in consolidated cloud systems (§7.4).
//!
//! When jobs from different customers share a machine, billing by
//! wall-clock time charges customers for the interference their
//! neighbours caused. ASM's online slowdown estimates let the provider
//! bill for *alone-equivalent* time instead: `billed = wall / slowdown`.
//!
//! Run with: `cargo run --release --example cloud_billing`

use std::time::Duration;

use asm_repro::core::mech::billing::{mean_slowdown, UsageRecord};
use asm_repro::core::{EstimatorSet, Runner, SystemConfig};
use asm_repro::metrics::Table;
use asm_repro::workloads::suite;

/// The simulated span, billed as one wall-clock hour.
const HOUR: Duration = Duration::from_secs(3600);

/// The alone-equivalent hours a tenant slowed down `slowdown`× is billed.
fn fair_hours(slowdown: f64) -> f64 {
    let usage = UsageRecord {
        wall_time: HOUR,
        estimated_slowdown: slowdown,
    };
    usage.billable_time().as_secs_f64() / HOUR.as_secs_f64()
}

fn main() {
    // Four tenants consolidated on one node.
    let apps = vec![
        suite::by_name("tpcc_like").expect("profile"),
        suite::by_name("ycsb_like").expect("profile"),
        suite::by_name("mcf_like").expect("profile"),
        suite::by_name("h264ref_like").expect("profile"),
    ];
    let cycles: u64 = 8_000_000;

    let mut config = SystemConfig::default();
    config.quantum = 1_000_000;
    config.epoch = 10_000;
    config.estimators = EstimatorSet::asm_only();

    let runner = Runner::new(config);
    println!("simulating the consolidated node...");
    let r = runner.run(&apps, cycles);

    // Average ASM estimate over the run = the slowdown the provider would
    // have observed online, without ever running the tenants alone.
    let asm: Vec<&[f64]> = r
        .quanta
        .iter()
        .skip(1)
        .filter_map(|q| q.estimates.iter().find(|(nm, _)| nm == "ASM"))
        .map(|(_, e)| e.as_slice())
        .collect();
    let est: Vec<f64> = (0..apps.len())
        .map(|i| {
            let per_quantum: Vec<f64> = asm.iter().map(|e| e[i]).collect();
            mean_slowdown(&per_quantum).expect("ASM estimated every quantum")
        })
        .collect();

    let mut table = Table::new(vec![
        "tenant".into(),
        "wall time billed".into(),
        "ASM slowdown".into(),
        "fair (alone-equivalent) bill".into(),
        "true fair bill".into(),
    ]);
    for (i, name) in r.app_names.iter().enumerate() {
        table.row(vec![
            name.clone(),
            "1.000 h".into(),
            format!("{:.2}x", est[i]),
            format!("{:.3} h", fair_hours(est[i])),
            format!("{:.3} h", fair_hours(r.whole_run_slowdowns[i])),
        ]);
    }
    println!("{table}");
    println!("A wall-clock-only scheme overcharges every slowed-down tenant; ASM's");
    println!("estimates recover the alone-equivalent usage without profiling runs.");
}
