//! Figure 11: soft slowdown guarantees — ASM-QoS-X vs Naive-QoS for an
//! application of interest (`h264ref_like`), reporting every
//! application's slowdown and overall performance per scheme.

use asm_core::{CachePolicy, QosConfig};
use asm_metrics::Table;
use asm_sampling::Estimate;
use asm_simcore::AppId;
use asm_workloads::suite;

use crate::collect::tier_slowdowns;
use crate::exps::fig9::policy_config;
use crate::plan::PlannedRun;
use crate::{Scale, Session};

/// The slowdown bounds swept for ASM-QoS (the paper's "X" values).
pub const BOUNDS: &[f64] = &[2.5, 3.0, 3.5, 4.0];

/// Runs the Figure 11 experiment.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 11: ASM-QoS soft slowdown guarantees (target: h264ref_like) ===");
    let apps = vec![
        suite::by_name("h264ref_like").expect("profile"),
        suite::by_name("mcf_like").expect("profile"),
        suite::by_name("libquantum_like").expect("profile"),
        suite::by_name("sphinx3_like").expect("profile"),
    ];
    let target = AppId::new(0);

    let mut schemes: Vec<(String, CachePolicy)> = vec![
        ("NoPart".into(), CachePolicy::None),
        ("Naive-QoS".into(), CachePolicy::NaiveQos(target)),
    ];
    for &bound in BOUNDS {
        schemes.push((
            format!("ASM-QoS-{bound}"),
            CachePolicy::AsmQos(QosConfig { target, bound }),
        ));
    }

    let mut table = Table::new(vec![
        "scheme".into(),
        "h264ref".into(),
        "mcf".into(),
        "libquantum".into(),
        "sphinx3".into(),
        "harmonic speedup".into(),
    ]);
    // All six schemes differ only in cache policy on one mix: the
    // campaign warms the shared prefix once and forks it six ways (and
    // runs the continuations in parallel, where this loop was serial).
    let runs: Vec<PlannedRun> = schemes
        .iter()
        .map(|&(_, policy)| PlannedRun::new(policy_config(scale, policy), apps.clone(), scale.cycles))
        .collect();
    let (slowdowns, cell) = tier_slowdowns(session, &runs, &scale);
    for ((name, _), s) in schemes.into_iter().zip(&slowdowns) {
        let hs = Estimate::harmonic_speedup_of(s).unwrap_or(Estimate::exact(f64::NAN));
        let mut row = vec![name];
        row.extend(s.iter().map(|e| cell(e, 2)));
        row.push(cell(&hs, 3));
        table.row(row);
    }
    session.emit("fig11", &table);
    println!("Expected shape: Naive-QoS minimises the target's slowdown but punishes the");
    println!("other applications; ASM-QoS-X keeps the target near its bound X while the");
    println!("others' slowdowns shrink as X loosens.");
}
