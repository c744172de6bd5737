//! Smoke test: every registered experiment must run to completion at a
//! micro scale. Guards `asm-experiments all` against bit-rot in any
//! single experiment.

use asm_experiments::{exps, Scale, Session, Tier};

/// A scale even smaller than `Scale::tiny()`, so the whole sweep stays
/// test-suite friendly.
fn micro() -> Scale {
    Scale {
        workloads: 1,
        cycles: 200_000,
        quantum: 100_000,
        epoch: 5_000,
        warmup_quanta: 1,
        seed: 7,
        jobs: 2,
        skip: true,
        tier: Tier::Cycle,
        sample_intervals: 2,
        sample_quanta: 1,
    }
}

#[test]
fn every_experiment_runs_at_micro_scale() {
    let session = Session::default();
    for e in exps::TABLE.iter().filter(|e| e.in_all) {
        (e.run)(&session, micro());
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(exps::find("definitely-not-an-experiment").is_none());
    assert!(exps::find("fig11").is_some());
}
