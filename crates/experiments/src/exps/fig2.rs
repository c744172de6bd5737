//! Figures 2 and 3: per-benchmark slowdown-estimation error for FST, PTCA
//! and ASM — Figure 2 with an unsampled ATS (and a large, equal-overhead
//! pollution filter for FST), Figure 3 with the 64-set sampled ATS (and an
//! equal-size pollution filter).

use asm_core::SystemConfig;
use asm_metrics::Table;
use asm_workloads::{mix, suite};

use crate::collect::{accuracy_sweep, pct};
use crate::{Scale, Session};

/// The sampled-ATS configuration of Figures 3, 4 and 6b: ASM as deployed,
/// FST with a pollution filter the size of the sampled ATS (64 sets x 16
/// ways x 4 B = 4 KB).
#[must_use]
pub fn small_filter_config(scale: Scale) -> SystemConfig {
    let mut c = scale.deployed_config();
    c.pollution_filter_bits = 1 << 15;
    c
}

/// Runs Figure 2 (`sampled = false`) or Figure 3 (`sampled = true`).
pub fn run(session: &Session, scale: Scale, sampled: bool) {
    let (fig, title) = if sampled {
        ("Figure 3", "sampled ATS (64 sets), small pollution filter")
    } else {
        ("Figure 2", "unsampled ATS, equal-overhead pollution filter")
    };
    println!("\n=== {fig}: slowdown estimation accuracy — {title} ===");

    let config = if sampled { small_filter_config(scale) } else { scale.unsampled_config() };
    let workloads = mix::random_mixes(scale.workloads, 4, scale.seed);
    let stats = accuracy_sweep(session, &[config], &workloads, scale.cycles, &scale).remove(0);

    let mut table = Table::new(vec![
        "benchmark".into(),
        "FST".into(),
        "PTCA".into(),
        "ASM".into(),
    ]);
    for p in suite::all() {
        let name = p.name();
        if stats.mean_error_for_app("ASM", name).is_none() {
            continue; // did not appear in the sampled workloads
        }
        table.row(vec![
            name.into(),
            pct(stats.mean_error_for_app("FST", name)),
            pct(stats.mean_error_for_app("PTCA", name)),
            pct(stats.mean_error_for_app("ASM", name)),
        ]);
    }
    table.row(vec![
        "AVERAGE".into(),
        pct(stats.mean_error("FST")),
        pct(stats.mean_error("PTCA")),
        pct(stats.mean_error("ASM")),
    ]);
    session.emit(if sampled { "fig3" } else { "fig2" }, &table);
    let mut chart = asm_metrics::BarChart::new("average slowdown-estimation error (%)");
    for name in ["FST", "PTCA", "ASM"] {
        chart.bar(name, stats.mean_error(name).unwrap_or(f64::NAN));
    }
    println!("{chart}");
    println!(
        "Paper ({}): FST {} / PTCA {} / ASM {}",
        if sampled { "Fig. 3" } else { "Fig. 2" },
        if sampled { "29.4%" } else { "18.5%" },
        if sampled { "40.4%" } else { "14.7%" },
        if sampled { "9.9%" } else { "9.0%" },
    );
}
