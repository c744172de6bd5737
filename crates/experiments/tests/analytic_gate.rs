//! The cross-validation gate: the analytic tier must agree with the
//! cycle-accurate tier across the 38-config sweep (the 36 ordered
//! interference-matrix pairs + two intensity-binned 4-app mixes) at
//! `Scale::reduced()` — the scale `asm-experiments accuracy` reports and
//! EXPERIMENTS.md records — and its worst cell must stay localized.
//!
//! Gates (the `accuracy` fold: symmetric per-app slowdown error,
//! `max/min − 1`):
//!   - sweep-wide geometric mean ≤ 10% (the ISSUE acceptance bound);
//!   - per-class geomeans within the envelope published in
//!     EXPERIMENTS.md (kept tight so silent drift shows up here first);
//!   - the starvation cliff (libquantum → cg) is ≥ 80% covered by the
//!     ledger's `dram_frfcfs` component.
//!
//! One cycle-accurate sweep at reduced scale costs ~10s of CPU across
//! the job pool; the analytic side is microseconds. This is the
//! expensive end of the test suite, deliberately: it is the contract
//! that makes `--tier analytic` results trustworthy.

use asm_core::Component;
use asm_experiments::exps::accuracy::{analytic_envelope, localize_cliff, sweep, FULL_SWEEP};
use asm_experiments::{Scale, Session};

/// Per-class upper bounds on the geomean error, with headroom over the
/// measured envelope (EXPERIMENTS.md "Cross-tier accuracy" table: 8.1%,
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
    let mixes = sweep(scale);
    assert_eq!(mixes.len(), FULL_SWEEP, "the gated sweep is 38 configurations");
    let (env, _) = analytic_envelope(&Session::default(), scale, &mixes);

    let all = env.summary(None).expect("sweep produced samples");
    assert!(
        all.geomean <= 0.10,
        "sweep geomean per-app slowdown error {:.1}% exceeds the 10% gate",
        all.geomean * 100.0
    );
    for &(class, bound) in CLASS_BOUNDS {
        let s = env
            .summary(Some(class))
            .unwrap_or_else(|| panic!("class {class} produced no samples — sweep shrank?"));
        assert!(
            s.geomean <= bound,
            "class {class}: geomean error {:.1}% exceeds its {:.0}% envelope bound",
            s.geomean * 100.0,
            bound * 100.0
        );
    }
}

#[test]
fn starvation_cliff_localizes_to_frfcfs() {
    let (component, coverage) =
        localize_cliff(&Session::default(), Scale::reduced()).expect("finite slowdowns");
    assert_eq!(component, Component::DramFrfcfs);
    assert!(coverage >= 80.0, "dram_frfcfs covers only {coverage:.0}% of the mis-modeled mass");
}
