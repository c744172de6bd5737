//! The cross-validation gate: the analytic tier must agree with the
//! cycle-accurate tier across the 38-config sweep (the 36 ordered
//! interference-matrix pairs + two intensity-binned 4-app mixes) at
//! `Scale::reduced()` — the scale `asm-experiments xval` reports and
//! EXPERIMENTS.md records.
//!
//! Gates (symmetric per-app slowdown error, `max/min − 1`):
//!   - sweep-wide geometric mean ≤ 10% (the ISSUE acceptance bound);
//!   - per-class geomeans within the envelope published in
//!     EXPERIMENTS.md (kept tight so silent drift shows up here first).
//!
//! One cycle-accurate sweep at reduced scale costs ~10s of CPU across
//! the job pool; the analytic side is microseconds. This is the
//! expensive end of the test suite, deliberately: it is the contract
//! that makes `--tier analytic` results trustworthy.

use asm_experiments::exps::xval::{sweep_mixes, envelope, Envelope};
use asm_experiments::{Scale, Session};

/// Per-class upper bounds on the geomean error, with headroom over the
/// measured envelope (EXPERIMENTS.md "Cross-validation" table: 8.1%,
/// 6.9%, 9.5% at calibration) so small drifts do not flake the suite but
/// regressions trip it. No matrix app classifies as `compute` — the
/// class only appears in random-mix reporting, not the gated sweep.
const CLASS_BOUNDS: &[(&str, f64)] = &[
    ("cache-sensitive", 0.11),
    ("streaming", 0.10),
    ("irregular", 0.13),
];

#[test]
fn analytic_tier_matches_cycle_tier_within_envelope() {
    let scale = Scale::reduced();
    let mixes = sweep_mixes(scale);
    assert_eq!(mixes.len(), 38, "the gated sweep is 38 configurations");
    let env = envelope(&Session::default(), scale, &mixes);

    let all = env.all_samples();
    let geo = Envelope::geomean(&all).expect("sweep produced samples");
    assert!(
        geo <= 0.10,
        "sweep geomean per-app slowdown error {:.1}% exceeds the 10% gate",
        geo * 100.0
    );

    for &(class, bound) in CLASS_BOUNDS {
        let Some(samples) = env.per_class.get(class) else {
            panic!("class {class} produced no samples — sweep shrank?");
        };
        let g = Envelope::geomean(samples).expect("non-empty class");
        assert!(
            g <= bound,
            "class {class}: geomean error {:.1}% exceeds its {:.0}% envelope bound",
            g * 100.0,
            bound * 100.0
        );
    }
}
