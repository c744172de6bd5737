//! Property tests: every estimator must produce sane output for arbitrary
//! event streams — estimates are finite, at least 1, and reset cleanly
//! between quanta.

use asm_repro::core::estimator::{
    AccessEvent, AsmEstimator, FstEstimator, MiseEstimator, MissEvent, PtcaEstimator, QuantumCtx,
    SlowdownEstimator, StfmEstimator,
};
use asm_repro::simcore::{AppId, SimRng};
use proptest::prelude::*;

const APPS: usize = 4;
const QUANTUM: u64 = 100_000;
const EPOCH: u64 = 1_000;

fn estimators() -> Vec<Box<dyn SlowdownEstimator>> {
    vec![
        Box::new(AsmEstimator::new(APPS, 20, None)),
        Box::new(FstEstimator::new(APPS, 20, None)),
        Box::new(PtcaEstimator::new(APPS, 20, 32.0, None)),
        Box::new(MiseEstimator::new(APPS)),
        Box::new(StfmEstimator::new(APPS)),
    ]
}

/// Drives an estimator with a pseudo-random but internally consistent
/// event stream derived from `seed`.
fn drive(est: &mut dyn SlowdownEstimator, seed: u64, events: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut now = 0u64;
    let mut owner = None;
    for i in 0..events {
        now += rng.gen_range(200) + 1;
        if i % 13 == 0 {
            owner = if rng.gen_bool(0.8) {
                Some(AppId::new(rng.gen_range(APPS as u64) as usize))
            } else {
                None
            };
            est.on_epoch_start(now, owner);
        }
        let app = AppId::new(rng.gen_range(APPS as u64) as usize);
        let hit = rng.gen_bool(0.5);
        let sampled = rng.gen_bool(0.3);
        est.on_access(&AccessEvent {
            now,
            app,
            llc_hit: hit,
            ats: sampled.then(|| asm_repro::cache::AtsOutcome {
                hit: rng.gen_bool(0.5),
                recency: None,
            }),
            epoch_owner: owner,
        });
        if !hit {
            let latency = rng.gen_range(800) + 50;
            est.on_miss_complete(&MissEvent {
                app,
                arrival: now,
                finish: now + latency,
                interference_cycles: rng.gen_range(latency),
                concurrent_misses: rng.gen_range(12) + 1,
                epoch_owned_at_issue: owner == Some(app),
                epoch_end: (now / EPOCH + 1) * EPOCH,
                was_ats_hit: sampled.then(|| rng.gen_bool(0.5)),
                pollution_hit: rng.gen_bool(0.2),
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn estimates_are_finite_and_at_least_one(seed in 0u64..10_000, events in 0usize..600) {
        for mut est in estimators() {
            drive(est.as_mut(), seed, events);
            let queueing = vec![0u64; APPS];
            let ctx = QuantumCtx {
                quantum: QUANTUM,
                epoch: EPOCH,
                queueing_cycles: &queueing,
            };
            let out = est.on_quantum_end(&ctx);
            prop_assert_eq!(out.len(), APPS, "{} wrong arity", est.name());
            for s in out {
                prop_assert!(s.is_finite(), "{} produced {}", est.name(), s);
                prop_assert!(s >= 1.0, "{} produced sub-unity {}", est.name(), s);
                prop_assert!(s <= 50.0, "{} produced implausible {}", est.name(), s);
            }
        }
    }

    #[test]
    fn quantum_end_resets_state(seed in 0u64..10_000) {
        for mut est in estimators() {
            drive(est.as_mut(), seed, 300);
            let queueing = vec![0u64; APPS];
            let ctx = QuantumCtx {
                quantum: QUANTUM,
                epoch: EPOCH,
                queueing_cycles: &queueing,
            };
            let _ = est.on_quantum_end(&ctx);
            // An empty second quantum must estimate no slowdown everywhere.
            let out = est.on_quantum_end(&ctx);
            for s in out {
                prop_assert_eq!(s, 1.0, "{} kept state across quanta", est.name());
            }
        }
    }

    #[test]
    fn higher_interference_never_lowers_per_request_estimates(
        seed in 0u64..5_000,
        base_latency in 100u64..400,
    ) {
        // For the per-request models, scaling every request's interference
        // up must not reduce the estimate (monotonicity).
        let run = |interference: u64| -> (f64, f64) {
            let mut fst = FstEstimator::new(1, 20, None);
            let mut stfm = StfmEstimator::new(1);
            let mut rng = SimRng::seed_from(seed);
            let mut now = 0;
            for _ in 0..200 {
                now += rng.gen_range(300) + base_latency;
                let ev = MissEvent {
                    app: AppId::new(0),
                    arrival: now,
                    finish: now + base_latency + interference,
                    interference_cycles: interference,
                    concurrent_misses: 2,
                    epoch_owned_at_issue: false,
                    epoch_end: u64::MAX,
                    was_ats_hit: Some(false),
                    pollution_hit: false,
                };
                fst.on_miss_complete(&ev);
                stfm.on_miss_complete(&ev);
            }
            let queueing = [0u64];
            let ctx = QuantumCtx {
                quantum: QUANTUM,
                epoch: EPOCH,
                queueing_cycles: &queueing,
            };
            (fst.on_quantum_end(&ctx)[0], stfm.on_quantum_end(&ctx)[0])
        };
        let (fst_low, stfm_low) = run(10);
        let (fst_high, stfm_high) = run(300);
        prop_assert!(fst_high >= fst_low, "FST not monotone: {fst_low} -> {fst_high}");
        prop_assert!(stfm_high >= stfm_low, "STFM not monotone: {stfm_low} -> {stfm_high}");
    }
}
