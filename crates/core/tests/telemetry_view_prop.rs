//! Telemetry is a view (DESIGN.md §9): every counter and series
//! `System::take_telemetry` renders must equal the simulator state it is
//! derived from — the quantum records, `app_summary`'s lifetime cache
//! totals and the component gauges — for randomized short mixes and
//! estimator sets, with attribution on or off (the ledger is not part of
//! the view), and whether telemetry was switched on before the first
//! cycle or after the last.

use asm_core::{EstimatorSet, QuantumRecord, System, SystemConfig};
use asm_simcore::{AppId, Cycle};
use asm_telemetry::names;
use asm_workloads::suite;
use proptest::prelude::*;

/// A pool spanning the suite's intensity range (same as the skip sweep).
const POOL: &[&str] = &[
    "mcf_like",
    "libquantum_like",
    "soplex_like",
    "gcc_like",
    "h264ref_like",
    "povray_like",
];

/// The samples `value` yields over `records`, as `(cycle, bits)`.
fn expected(
    records: &[QuantumRecord],
    value: impl Fn(&QuantumRecord) -> Option<f64>,
) -> Vec<(Cycle, u64)> {
    records.iter().filter_map(|r| Some((r.end_cycle, value(r)?.to_bits()))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_counter_and_series_equals_the_state_it_is_derived_from(
        app_ix in prop::collection::vec(0usize..6, 2..5),
        est_ix in 0usize..3,
        attrib in 0u8..2,
        enable_late in 0u8..2,
        seed in 0u64..1_000_000,
        thirds in 3u64..10,
    ) {
        let mut config = SystemConfig::default();
        config.quantum = 20_000;
        config.epoch = 1_000;
        config.estimators =
            [EstimatorSet::asm_only(), EstimatorSet::all(), EstimatorSet::none()][est_ix].clone();
        config.seed = seed;
        let n = app_ix.len();
        let apps: Vec<_> = app_ix
            .iter()
            .map(|&i| suite::by_name(POOL[i]).expect("pool name exists in suite"))
            .collect();

        let mut sys = System::new(&apps, config.clone());
        if attrib == 1 {
            sys.enable_attribution();
        }
        if enable_late == 0 {
            sys.enable_telemetry(None);
        }
        // Ends mid-quantum two times in three: the open quantum counts
        // towards the cache totals but has no series sample yet.
        sys.run_for(thirds * config.quantum / 3);
        if enable_late == 1 {
            sys.enable_telemetry(None);
        }
        let t = sys.take_telemetry();
        let records = sys.records();
        let counter = |name: String| {
            let found = t.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            found.unwrap_or_else(|| panic!("missing counter {name}"))
        };
        let series = |name: String| -> Vec<(Cycle, u64)> {
            let samples = t.series.get(&name).unwrap_or_else(|| panic!("missing series {name}"));
            samples.iter().map(|&(c, v)| (c, v.to_bits())).collect()
        };

        prop_assert!(t.counters.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicate");
        prop_assert_eq!(counter(names::SYS_EXECUTED_CYCLES.to_owned()), sys.executed_cycles());
        let mut misses = 0;
        for i in 0..n {
            let summary = sys.app_summary(AppId::new(i));
            misses += summary.llc_misses;
            prop_assert_eq!(counter(names::llc_app_hits(i)), summary.llc_hits);
            prop_assert_eq!(counter(names::llc_app_misses(i)), summary.llc_misses);
            prop_assert_eq!(counter(names::core_retired(i)), sys.retired(AppId::new(i)));

            let asm = |r: &QuantumRecord| Some(r.estimates_of("ASM")?[i]);
            prop_assert_eq!(series(names::app_est_slowdown(i)), expected(records, asm));
            prop_assert_eq!(
                series(names::app_car_shared(i)),
                expected(records, |r| Some(r.car_shared[i]))
            );
            prop_assert_eq!(
                series(names::app_car_alone(i)),
                expected(records, |r| Some(r.car_alone.as_ref()?[i]))
            );
            prop_assert_eq!(
                series(names::app_ats_miss_rate(i)),
                expected(records, |r| r.ats_miss_rate(i))
            );
            prop_assert_eq!(
                series(names::app_interference_cycles(i)),
                expected(records, |r| Some(r.interference_cycles[i] as f64))
            );
        }
        // A demand miss is timed when its DRAM read returns: the latency
        // buckets hold every miss but those merged into a read already
        // under way or still in flight.
        prop_assert!(t.mem_latency_hist.total() <= misses);

        // The ledger is not part of the view: attribution on or off, the
        // view is the same five families and no ledger-derived counter.
        prop_assert_eq!(sys.attribution_enabled(), attrib == 1);
        prop_assert!(t.counters.iter().all(|(name, _)| !name.starts_with("attrib.")));
        prop_assert_eq!(t.series.iter().count(), 5 * n);

        // Taken: off again, until switched on.
        prop_assert!(sys.take_telemetry().counters.is_empty());
    }
}
