//! Table 3: ASM's error sensitivity to quantum (Q) and epoch (E) lengths.
//!
//! At full scale the paper's values are used (Q ∈ {1M, 5M, 10M} cycles,
//! E ∈ {1k, 10k, 50k, 100k}); the reduced default scales Q down so each
//! cell still covers several quanta.

use asm_core::EstimatorSet;
use asm_metrics::Table;
use asm_simcore::Cycle;
use asm_workloads::mix;

use crate::collect::{collect_accuracy, pct};
use crate::plan::{self, PlannedRun};
use crate::{Scale, Session};

/// Epoch lengths swept (paper values).
pub const EPOCHS: &[Cycle] = &[1_000, 10_000, 50_000, 100_000];

/// Quantum lengths swept at the given scale.
#[must_use]
pub fn quanta_for(scale: Scale) -> Vec<Cycle> {
    if scale.quantum >= 5_000_000 {
        vec![1_000_000, 5_000_000, 10_000_000]
    } else if scale.quantum >= 1_000_000 {
        vec![500_000, 1_000_000, 2_000_000]
    } else {
        // Smoke scales (`--tiny` and below): sweep around the configured
        // quantum so the cell runs stay as small as the rest of the suite.
        // Every paper epoch divides 100k, so these remain valid configs.
        vec![scale.quantum, scale.quantum * 2]
    }
}

/// Runs the Table 3 sweep.
pub fn run(session: &Session, scale: Scale) {
    println!("\n=== Table 3: ASM error vs quantum and epoch lengths ===");
    let workloads = mix::random_mixes((scale.workloads / 2).max(2), 4, scale.seed);
    let mut table = Table::new(
        std::iter::once("Q \\ E".to_owned())
            .chain(EPOCHS.iter().map(ToString::to_string))
            .collect(),
    );
    // One campaign over every (Q, E) cell, row-major.
    let quanta = quanta_for(scale);
    let runs: Vec<PlannedRun> = quanta
        .iter()
        .flat_map(|&q| EPOCHS.iter().map(move |&e| (q, e)))
        .flat_map(|(q, e)| {
            let mut config = scale.base_config();
            config.quantum = q;
            config.epoch = e;
            config.estimators = EstimatorSet::asm_only();
            config.ats_sampled_sets = Some(64);
            // Cover warmup + 4 measured quanta for every Q.
            plan::cross(&[config], &workloads, q * (scale.warmup_quanta as Cycle + 4))
        })
        .collect();
    let results = plan::run_campaign_in(session, &runs, scale.jobs);
    let mut cells = results
        .chunks(workloads.len())
        .map(|cell| pct(collect_accuracy(cell, scale.warmup_quanta).mean_error("ASM")));
    for q in quanta {
        let mut row = vec![q.to_string()];
        row.extend(cells.by_ref().take(EPOCHS.len()));
        table.row(row);
    }
    session.emit("table3", &table);
    println!("Paper (Q=5M row): 17.1% / 9.9% / 10.6% / 11.5% — error is highest at E=1k,");
    println!("lowest near E=10k, and grows slowly with larger E and smaller Q.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_uses_paper_quanta() {
        let q = quanta_for(Scale::full());
        assert_eq!(q, vec![1_000_000, 5_000_000, 10_000_000]);
    }

    #[test]
    fn reduced_scale_quanta_divide_by_all_epochs() {
        for q in quanta_for(Scale::reduced()) {
            for &e in EPOCHS {
                assert_eq!(q % e, 0, "epoch {e} must divide quantum {q}");
            }
        }
    }

    #[test]
    fn smoke_scale_sweeps_near_its_own_quantum() {
        let scale = Scale::tiny();
        let q = quanta_for(scale);
        assert_eq!(q, vec![scale.quantum, scale.quantum * 2]);
        for q in q {
            for &e in EPOCHS {
                assert_eq!(q % e, 0, "epoch {e} must divide quantum {q}");
            }
        }
    }
}
