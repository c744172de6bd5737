//! Figure 4: distribution of slowdown-estimation error — FST and PTCA
//! unsampled, ASM sampled (the paper's deployment configurations).

use asm_metrics::Table;
use asm_workloads::mix;

use crate::collect::accuracy_sweep;
use crate::{Scale, Session};

/// Runs the Figure 4 experiment.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Figure 4: error distribution (FST/PTCA unsampled, ASM sampled) ===");
    let workloads = mix::random_mixes(scale.workloads, 4, scale.seed);

    // Unsampled for FST and PTCA, sampled for ASM: Figures 2 and 3's runs.
    let configs = [scale.unsampled_config(), super::fig2::small_filter_config(scale)];
    let stats = accuracy_sweep(session, &configs, &workloads, scale.cycles, &scale);
    let fst = stats[0].dist.get("FST");
    let ptca = stats[0].dist.get("PTCA");
    let asm = stats[1].dist.get("ASM");

    let mut table = Table::new(vec![
        "error range".into(),
        "FST".into(),
        "PTCA".into(),
        "ASM".into(),
    ]);
    let fraction = |d: Option<&asm_metrics::ErrorDistribution>, lo: f64, hi: f64| -> String {
        match d {
            Some(d) => format!(
                "{:.1}%",
                (d.fraction_within(hi) - d.fraction_within(lo)) * 100.0
            ),
            None => "-".to_owned(),
        }
    };
    for k in 0..10 {
        let lo = k as f64 * 10.0;
        let hi = lo + 10.0;
        table.row(vec![
            format!("[{lo:.0}%, {hi:.0}%)"),
            fraction(fst, lo, hi),
            fraction(ptca, lo, hi),
            fraction(asm, lo, hi),
        ]);
    }
    session.emit("fig4", &table);

    let within20 = |d: Option<&asm_metrics::ErrorDistribution>| -> String {
        d.map_or("-".into(), |d| {
            format!("{:.1}%", d.fraction_within(20.0) * 100.0)
        })
    };
    let maxerr = |d: Option<&asm_metrics::ErrorDistribution>| -> String {
        d.and_then(asm_metrics::ErrorDistribution::max_error)
            .map_or("-".into(), |m| format!("{m:.0}%"))
    };
    println!(
        "estimates within 20% error: FST {} / PTCA {} / ASM {}  (paper: 76.25% / 79.25% / 95.25%)",
        within20(fst),
        within20(ptca),
        within20(asm),
    );
    println!(
        "maximum error: FST {} / PTCA {} / ASM {}  (paper: 133% / 87% / 36%)",
        maxerr(fst),
        maxerr(ptca),
        maxerr(asm),
    );
}
