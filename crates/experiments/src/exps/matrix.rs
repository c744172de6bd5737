//! Pairwise interference matrix (the §7.5 characterisation underlying
//! migration decisions, in the style of Mars+ \[40\]'s
//! sensitivity/propensity profiling — except measured *online* by
//! co-running, which is exactly what ASM replaces with estimation).
//!
//! For every ordered pair (victim, aggressor) of a representative
//! application set, co-runs the two and reports the victim's measured
//! whole-run slowdown. Rows are victims, columns aggressors.

use asm_core::EstimatorSet;
use asm_metrics::Table;
use asm_workloads::suite;

use crate::collect::tier_slowdowns;
use crate::plan;
use crate::{Scale, Session};

/// Representative applications spanning the behaviour space.
pub const APPS: &[&str] = &[
    "h264ref_like",    // moderate, cache-friendly
    "bzip2_like",      // cache-sensitive
    "ft_like",         // cache-sensitive (NAS)
    "libquantum_like", // streaming
    "mcf_like",        // irregular memory-bound
    "cg_like",         // irregular memory-bound (NAS)
];

/// All ordered (victim, aggressor) pairs, row-major: independent runs
/// flattened into one list so they fan across the pool, with an order
/// that makes the sequential table assembly identical for any job count.
/// The same 36 configurations anchor the cross-tier accuracy sweep
/// ([`crate::exps::accuracy::sweep`]).
#[must_use]
pub fn ordered_pairs() -> Vec<Vec<asm_cpu::AppProfile>> {
    APPS.iter()
        .flat_map(|victim| {
            APPS.iter().map(|aggressor| {
                vec![
                    suite::by_name(victim).expect("profile"),
                    suite::by_name(aggressor).expect("profile"),
                ]
            })
        })
        .collect()
}

/// Runs the pairwise interference matrix.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Pairwise interference matrix (victim slowdown under one aggressor) ===");
    let mut config = scale.base_config();
    config.estimators = EstimatorSet::none();
    config.epochs_enabled = false;
    let runs = plan::cross(&[config], &ordered_pairs(), scale.cycles / 2);
    let (slowdowns, cell) = tier_slowdowns(session, &runs, &scale);

    let mut table = Table::new(
        std::iter::once("victim \\ aggressor".to_owned())
            .chain(APPS.iter().map(|a| a.trim_end_matches("_like").to_owned()))
            .collect(),
    );
    for (vi, victim) in APPS.iter().enumerate() {
        let mut row = vec![victim.trim_end_matches("_like").to_owned()];
        for ai in 0..APPS.len() {
            row.push(cell(&slowdowns[vi * APPS.len() + ai][0], 2));
        }
        table.row(row);
    }
    session.emit("matrix", &table);
    println!("Expected shape: streaming/irregular aggressors (libquantum, mcf, cg) hurt");
    println!("everyone; cache-sensitive victims (bzip2, ft) suffer most; compute-bound");
    println!("pairings stay near 1.0.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_apps_exist_and_span_the_spectrum() {
        let profiles: Vec<_> = APPS
            .iter()
            .map(|n| suite::by_name(n).expect("profile exists"))
            .collect();
        let min = profiles.iter().map(|p| p.mem_per_kilo()).min().unwrap();
        let max = profiles.iter().map(|p| p.mem_per_kilo()).max().unwrap();
        assert!(max >= 4 * min, "matrix apps should span intensities");
    }
}
