//! Unit tests of [`System`]: behaviour, instruments, checkpoint round trips.

use super::*;
use crate::config::{CachePolicy, EstimatorSet, MemPolicy};
use asm_attrib::{Component, COMPONENTS};
use asm_simcore::persist::Persist as _;
use asm_workloads::suite;

fn small_config() -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = 50_000;
    c.epoch = 1_000;
    c.estimators = EstimatorSet::all();
    c
}

fn two_apps() -> Vec<AppProfile> {
    vec![
        suite::by_name("libquantum_like").expect("suite profile exists"),
        suite::by_name("h264ref_like").expect("suite profile exists"),
    ]
}

#[test]
fn quanta_are_recorded() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.run_for(150_000);
    assert_eq!(sys.records().len(), 3);
    let r = &sys.records()[1];
    assert_eq!(r.start_cycle, 50_000);
    assert_eq!(r.end_cycle, 100_000);
    assert_eq!(r.estimates.len(), 4); // ASM, FST, PTCA, MISE
}

#[test]
fn telemetry_does_not_change_simulation() {
    let run = |telemetry: bool| {
        let mut sys = System::new(&two_apps(), small_config());
        if telemetry {
            sys.enable_telemetry(Some(1));
        }
        sys.run_for(100_000);
        (
            sys.retired(AppId::new(0)),
            sys.retired(AppId::new(1)),
            sys.records()
                .iter()
                .flat_map(|r| r.car_shared.iter().map(|c| c.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn telemetry_collects_counters_series_and_trace() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.enable_telemetry(Some(1));
    sys.run_for(100_000);
    let t = sys.take_telemetry();

    let get = |name: &str| {
        t.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    // The view agrees with the system's own accounting.
    let s0 = sys.app_summary(AppId::new(0));
    assert_eq!(get("llc.app0.hits"), s0.llc_hits);
    assert_eq!(get("llc.app0.misses"), s0.llc_misses);
    assert_eq!(get("core1.retired"), sys.retired(AppId::new(1)));
    assert_eq!(get("sys.executed_cycles"), sys.executed_cycles());

    // Per-quantum series sampled at each boundary.
    let samples = t.series.get("app0.est_slowdown").expect("series exists");
    assert_eq!(samples.len(), 2);
    assert_eq!(samples[0].0, 50_000);
    assert!(samples.iter().all(|&(_, v)| v >= 1.0));

    // The trace holds epoch/quantum events and memory lifecycles.
    let events = t.tracer.events();
    assert!(events.iter().any(|e| e.name == "epoch_owner"));
    assert!(events.iter().any(|e| e.name == "quantum"));
    assert!(events.iter().any(|e| e.name == "mem_read" && e.dur > 0));

    assert!(t.mem_latency_hist.total() > 0);

    // A second take returns empty artefacts.
    assert!(sys.take_telemetry().counters.is_empty());
}

#[test]
fn attribution_does_not_change_simulation() {
    let run = |attrib: bool| {
        let mut sys = System::new(&two_apps(), small_config());
        if attrib {
            sys.enable_attribution();
        }
        sys.run_for(100_000);
        (
            sys.retired(AppId::new(0)),
            sys.retired(AppId::new(1)),
            sys.records()
                .iter()
                .flat_map(|r| r.car_shared.iter().map(|c| c.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn attribution_conserves_and_blames_offenders() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.enable_telemetry(None);
    sys.enable_attribution();
    sys.run_for(150_000);

    let quanta = sys.attrib_quanta().expect("attribution on").to_vec();
    assert_eq!(quanta.len(), 3);
    for q in &quanta {
        assert!(q.conserved(), "ledger violates conservation");
        let quantum = q.end - q.start;
        for v in 0..2 {
            let ledger_row: Cycle = Component::ALL.iter().map(|&c| q.component(v, c)).sum();
            assert_eq!(ledger_row, quantum, "ledger row {v} != quantum length");
            let blame_row: Cycle = (0..2).map(|o| q.blamed(v, o)).sum();
            assert_eq!(blame_row, quantum, "blame row {v} != quantum length");
        }
    }

    // Two memory-hungry co-runners interfere: some cycles land in an
    // interference component and the blame matrix names the offender.
    let totals = sys.attrib_totals().expect("attribution on");
    let mut interference: Cycle = 0;
    for v in 0..2 {
        for c in Component::ALL.iter().filter(|c| c.is_interference()) {
            interference += totals[v * COMPONENTS + c.index()];
        }
    }
    assert!(interference > 0, "no interference attributed");
    let blame = sys.attrib_blame_totals().expect("attribution on");
    let off_diag: Cycle = blame[0 * 2 + 1] + blame[1 * 2 + 0];
    assert_eq!(off_diag, interference, "blame off-diagonal != interference cycles");

    // Reconciliation with the per-request interference charges (the
    // FST/PTCA signal): an episode's DRAM-cause components are clipped
    // from its request's charge split, so the ledger's DRAM-cause
    // interference can never exceed the charges the quantum records
    // accumulated.
    for v in 0..2 {
        let dram_cause: Cycle = [
            Component::DramWriteDrain,
            Component::DramFrfcfs,
            Component::DramBankConflict,
        ]
        .iter()
        .map(|&c| totals[v * COMPONENTS + c.index()])
        .sum();
        let charged: Cycle = sys.records().iter().map(|r| r.interference_cycles[v]).sum();
        assert!(
            dram_cause <= charged,
            "app{v}: ledger DRAM-cause interference {dram_cause} exceeds charges {charged}"
        );
    }

    // The ledger reaches callers through the accessors above only: the
    // telemetry view renders no counter or series from it.
    let t = sys.take_telemetry();
    assert!(t.counters.iter().all(|(n, _)| !n.starts_with("attrib.")));
    assert!(t.series.iter().all(|(n, _)| !n.starts_with("attrib.")));
}

/// Which instrument was switched on first is immaterial.
#[test]
fn enable_order_does_not_matter() {
    let run = |attrib_first: bool| {
        let mut sys = System::new(&two_apps(), small_config());
        if attrib_first {
            sys.enable_attribution();
            sys.enable_telemetry(None);
        } else {
            sys.enable_telemetry(None);
            sys.enable_attribution();
        }
        sys.run_for(100_000);
        let ledgers: Vec<_> = sys
            .attrib_quanta()
            .expect("attribution on")
            .iter()
            .map(|q| (q.ledger.clone(), q.blame.clone()))
            .collect();
        let t = sys.take_telemetry();
        let names: Vec<String> = t.series.iter().map(|(name, _)| name.to_owned()).collect();
        (t.counters, names, ledgers)
    };
    let (counters, series, ledgers) = run(false);
    assert!(!counters.is_empty() && !ledgers.is_empty());
    assert_eq!((counters, series, ledgers), run(true));
}

/// `take_telemetry` switches telemetry off; the ledger is its own
/// instrument and stays on and exact.
#[test]
fn simulating_on_after_take_telemetry_keeps_the_ledger() {
    let build = || {
        let mut sys = System::new(&two_apps(), small_config());
        sys.enable_telemetry(None);
        sys.enable_attribution();
        sys.run_for(50_000);
        sys
    };
    let mut taken = build();
    assert!(!taken.take_telemetry().counters.is_empty());
    taken.run_for(50_000);
    let mut twin = build();
    twin.run_for(50_000);
    assert_eq!(taken.attrib_quanta().expect("attribution on").len(), 2);
    assert_eq!(taken.attrib_totals(), twin.attrib_totals());
    assert_eq!(taken.attrib_blame_totals(), twin.attrib_blame_totals());
    assert!(taken.take_telemetry().counters.is_empty());
}

#[test]
fn attribution_alone_run_blames_nobody() {
    let mut sys = System::new(&[two_apps().remove(0)], small_config());
    sys.enable_attribution();
    sys.run_for(100_000);
    let totals = sys.attrib_totals().expect("attribution on");
    for comp in Component::ALL {
        if comp.is_interference() {
            assert_eq!(
                totals[comp.index()],
                0,
                "{} attributed with no co-runner",
                comp.name()
            );
        }
    }
    let blame = sys.attrib_blame_totals().expect("attribution on");
    assert_eq!(blame.len(), 1);
    let attributed: Cycle = sys
        .attrib_quanta()
        .expect("attribution on")
        .iter()
        .map(|q| q.end - q.start)
        .sum();
    assert_eq!(blame[0], attributed);

    // The one-application "mix" *is* its alone run: estimators observe,
    // the lone application owns every epoch either way, and the two
    // constructions retire the same instructions by every boundary.
    let mix = [two_apps().remove(0)];
    let mut alone = System::new_alone(&mix, small_config(), AppId::new(0));
    for rec in sys.records() {
        alone.run_for(rec.end_cycle - rec.start_cycle);
        assert_eq!(alone.retired(AppId::new(0)), rec.retired_end[0]);
    }

    // Through `Runner` the measured slowdown is therefore 1 — up to the
    // resolution of the ground truth, not exactly (DESIGN.md §3, "Ground
    // truth resolution"): alone cycles are read off one timestamp per
    // `progress_interval` instructions, linearly interpolated, while a
    // quantum ends on a cycle, so each end of a quantum's instruction
    // window is placed within one milestone gap (`width`, plus the cycle
    // a timestamp may lag its tick) of where it really was.
    let (quantum, cycles) = (50_000, 150_000);
    let mut config = small_config();
    config.progress_interval = 10;
    let opts = crate::runner::RunOptions {
        telemetry: false,
        trace_sample: None,
        attrib: true,
    };
    let runner = crate::Runner::new(config.clone());
    let result = runner.run_with(&mix, cycles, opts);
    let log = runner.alone_progress(&mix, 0, cycles);
    let milestone = |k: usize| log.cycle_at(k as u64 * config.progress_interval);
    let gaps = (0..log.milestones()).map(|k| milestone(k + 1) - milestone(k));
    let width = gaps.fold(cycles as f64 - milestone(log.milestones()), f64::max) + 1.0;
    assert!(width < 0.05 * quantum as f64, "milestones too coarse to say anything: {width}");
    assert_eq!(result.quanta.len(), 3);
    for q in &result.quanta {
        let bound = quantum as f64 / (quantum as f64 - 2.0 * width);
        assert!((1.0..=bound).contains(&q.actual[0]), "{} outside 1..={bound}", q.actual[0]);
    }
    let whole = result.whole_run_slowdowns[0];
    assert!((1.0..=cycles as f64 / (cycles as f64 - width)).contains(&whole), "{whole}");
    // What is exact: nobody is blamed.
    let ledger = result.attribution.expect("attribution on");
    assert_eq!(ledger.blame, [cycles]);
    for comp in Component::ALL.iter().filter(|c| c.is_interference()) {
        assert_eq!(ledger.totals[comp.index()], 0, "{}", comp.name());
    }
}

#[test]
fn quantum_records_carry_introspection_fields() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.run_for(100_000);
    for r in sys.records() {
        let ca = r.car_alone.as_ref().expect("ASM instantiated");
        assert_eq!(ca.len(), 2);
        assert_eq!(r.ats_samples.len(), 2);
        assert_eq!(r.interference_cycles.len(), 2);
    }
    // Two memory-hungry apps interfere at the banks.
    let total: Cycle = sys
        .records()
        .iter()
        .flat_map(|r| r.interference_cycles.iter())
        .sum();
    assert!(total > 0, "no interference recorded");
}

#[test]
fn cores_make_progress_and_access_memory() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.run_for(60_000);
    for i in 0..2 {
        assert!(sys.retired(AppId::new(i)) > 1_000, "app{i} stalled");
    }
    let r = &sys.records()[0];
    assert!(r.car_shared.iter().all(|&c| c > 0.0));
}

#[test]
fn estimates_are_at_least_unity() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.run_for(100_000);
    for r in sys.records() {
        for (_, est) in &r.estimates {
            for &s in est {
                assert!(s >= 1.0, "estimate {s} below 1");
            }
        }
    }
}

#[test]
fn alone_run_only_executes_target() {
    let mut sys = System::new_alone(&two_apps(), small_config(), AppId::new(1));
    sys.run_for(60_000);
    assert_eq!(sys.retired(AppId::new(0)), 0);
    assert!(sys.retired(AppId::new(1)) > 1_000);
}

#[test]
fn alone_run_is_faster_than_shared() {
    let apps = vec![
        suite::by_name("mcf_like").unwrap(),
        suite::by_name("libquantum_like").unwrap(),
        suite::by_name("soplex_like").unwrap(),
        suite::by_name("milc_like").unwrap(),
    ];
    let cfg = small_config();
    let mut shared = System::new(&apps, cfg.clone());
    shared.run_for(200_000);
    let mut alone = System::new_alone(&apps, cfg, AppId::new(0));
    alone.run_for(200_000);
    let shared_ipc = shared.retired(AppId::new(0));
    let alone_ipc = alone.retired(AppId::new(0));
    assert!(
        alone_ipc > shared_ipc,
        "alone {alone_ipc} should outpace shared {shared_ipc}"
    );
}

#[test]
fn determinism_across_runs() {
    let run = || {
        let mut sys = System::new(&two_apps(), small_config());
        sys.run_for(100_000);
        (
            sys.retired(AppId::new(0)),
            sys.retired(AppId::new(1)),
            sys.records()
                .iter()
                .flat_map(|r| r.car_shared.clone())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn progress_logging_records_milestones() {
    let mut sys = System::new_alone(&two_apps(), small_config(), AppId::new(0));
    sys.enable_progress_logging();
    sys.run_for(50_000);
    assert!(sys.progress_log(AppId::new(0)).milestones() > 0);
}

#[test]
fn prefetcher_runs_without_breaking_anything() {
    let mut cfg = small_config();
    cfg.prefetcher = Some(crate::config::PrefetchConfig::default());
    let mut with_pf = System::new(&two_apps(), cfg);
    with_pf.run_for(100_000);
    let mut without_pf = System::new(&two_apps(), small_config());
    without_pf.run_for(100_000);
    // The streaming app should benefit from (or at least not be hurt
    // much by) prefetching.
    let w = with_pf.retired(AppId::new(0));
    let wo = without_pf.retired(AppId::new(0));
    assert!(
        w as f64 > wo as f64 * 0.8,
        "prefetching collapsed performance: {w} vs {wo}"
    );
}

#[test]
fn asm_cache_policy_installs_partition() {
    let mut cfg = small_config();
    cfg.cache_policy = CachePolicy::AsmCache;
    let mut sys = System::new(&two_apps(), cfg);
    sys.run_for(120_000);
    let p = sys.current_partition().expect("partition installed");
    assert_eq!(p.total_ways(), 16);
}

#[test]
fn mem_policy_weights_follow_estimates() {
    let mut cfg = small_config();
    cfg.mem_policy = MemPolicy::SlowdownWeighted;
    let mut sys = System::new(&two_apps(), cfg);
    sys.run_for(120_000);
    // Weights must be valid probabilities-in-waiting (positive).
    assert!(sys.epoch_weights.iter().all(|&w| w > 0.0));
}

#[test]
fn estimates_follow_the_estimator_set_in_report_order() {
    // Whatever subset is instantiated, every record lists exactly its
    // estimators, in the fixed report order (ASM first when present: the
    // telemetry view reads it there).
    for bits in 0u8..32 {
        let mut cfg = small_config();
        cfg.quantum = 10_000;
        cfg.estimators = crate::config::EstimatorSet {
            asm: bits & 1 != 0,
            fst: bits & 2 != 0,
            ptca: bits & 4 != 0,
            mise: bits & 8 != 0,
            stfm: bits & 16 != 0,
        };
        let want: Vec<&str> = crate::estimator::NAMES
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| bits & (1 << i) != 0)
            .map(|(_, name)| name)
            .collect();
        let mut sys = System::new(&two_apps(), cfg);
        sys.run_for(20_000);
        assert_eq!(sys.records().len(), 2);
        for r in sys.records() {
            let names: Vec<&str> = r.estimates.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(names, want, "estimator set {bits:05b}");
            assert!(r.estimates.iter().all(|(_, e)| e.len() == 2));
        }
    }
}

#[test]
fn sibling_policies_are_evaluated_but_never_applied() {
    let mut cfg = small_config();
    cfg.cache_policy = CachePolicy::AsmCache;
    let own = BoundaryPolicies::of(&cfg);
    let other = BoundaryPolicies {
        cache: CachePolicy::None,
        mem: MemPolicy::SlowdownWeighted,
        ..own
    };
    let mut plain = System::new(&two_apps(), cfg.clone());
    plain.run_for(150_000);

    let mut watched = System::new(&two_apps(), cfg);
    watched.set_sibling_policies(vec![own, other]);
    watched.run_prefix(50_000);
    assert!(watched.sibling_decisions().is_empty(), "no boundary fired yet");
    watched.run_for(100_000);
    assert_eq!(system_bytes(&watched), system_bytes(&plain));

    // The last boundary: the system's own policies installed what the
    // first sibling decided, the second would have left the cache alone.
    let [same, different] = watched.sibling_decisions() else {
        panic!("one decision per sibling");
    };
    assert_eq!(same.partition.as_ref(), watched.current_partition());
    assert_eq!(same.epoch_weights, watched.epoch_weights);
    assert!(different.partition.is_none());
    assert_ne!(same, different);
}

fn system_bytes(sys: &System) -> Vec<u8> {
    let mut w = asm_simcore::persist::StateWriter::new("test-system", 1);
    sys.save(&mut w);
    w.finish()
}

fn restore_into(sys: &mut System, bytes: &[u8]) {
    let mut r = asm_simcore::persist::StateReader::new(bytes, "test-system", 1)
        .expect("a fresh artefact parses");
    sys.restore(&mut r).expect("the same structure restores");
    r.finish().expect("nothing is left over");
}

#[test]
fn checkpoint_roundtrip_matches_straight_run() {
    let mut cfg = small_config();
    cfg.latency_hist = Some((50.0, 40));
    cfg.cache_policy = CachePolicy::AsmCache;
    cfg.mem_policy = MemPolicy::SlowdownWeighted;

    let mut straight = System::new(&two_apps(), cfg.clone());
    straight.run_for(150_000);

    let mut prefix = System::new(&two_apps(), cfg.clone());
    prefix.run_prefix(50_000);
    let snap = system_bytes(&prefix);
    let mut resumed = System::new(&two_apps(), cfg);
    restore_into(&mut resumed, &snap);
    resumed.run_for(100_000);

    assert_eq!(resumed.now(), straight.now());
    assert_eq!(resumed.records().len(), straight.records().len());
    assert_eq!(
        system_bytes(&resumed),
        system_bytes(&straight),
        "restored continuation diverged from the straight run"
    );
}

/// `step()` is public and every accessor reads the cores as they
/// are, so it must leave them caught up: a run driven one `step()` at
/// a time is, at every point a caller could look, the run `run_for`
/// produces — down to the checkpoint bytes. (The executed-cycle
/// diagnostic is the one field allowed to differ: `step()` executes
/// every cycle by definition.)
#[test]
fn step_driven_run_matches_run_for() {
    let apps = vec![
        suite::by_name("h264ref_like").expect("suite profile exists"),
        suite::by_name("mcf_like").expect("suite profile exists"),
    ];
    let build = || {
        let mut sys = System::new(&apps, small_config());
        sys.enable_progress_logging();
        sys.enable_attribution();
        sys
    };
    let mut stepped = build();
    // Neither horizon is a quantum boundary (which `run_for` would
    // finalise on return and `step()` leaves to the next step).
    for horizon in [30_001, 120_003] {
        while stepped.now() < horizon {
            stepped.step();
        }
        let mut whole = build();
        whole.run_for(horizon);
        assert!(whole.executed_cycles() < horizon, "nothing was skipped");
        for i in 0..apps.len() {
            let app = AppId::new(i);
            assert_eq!(stepped.retired(app), whole.retired(app));
            assert_eq!(stepped.progress_log(app), whole.progress_log(app));
        }
        assert_eq!(stepped.records().len(), whole.records().len());
        whole.executed_cycles = stepped.executed_cycles;
        assert_eq!(
            system_bytes(&stepped),
            system_bytes(&whole),
            "step()-driven state diverged from run_for at {horizon}"
        );
    }
}

#[test]
fn run_prefix_defers_the_boundary_to_the_continuation() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.run_prefix(50_000);
    // The quantum that ends exactly at the prefix end is unfinalised.
    assert_eq!(sys.now(), 50_000);
    assert!(sys.records().is_empty());
    sys.run_for(50_000);
    assert_eq!(sys.records().len(), 2);
}

#[test]
fn checkpoint_roundtrip_with_telemetry_and_prefetcher() {
    let mut cfg = small_config();
    cfg.prefetcher = Some(crate::config::PrefetchConfig::default());
    let run_cold = || {
        let mut sys = System::new(&two_apps(), cfg.clone());
        sys.enable_telemetry(None);
        sys
    };

    let mut straight = run_cold();
    straight.run_for(150_000);

    let mut prefix = run_cold();
    prefix.run_prefix(50_000);
    let snap = system_bytes(&prefix);
    let mut resumed = run_cold();
    restore_into(&mut resumed, &snap);
    resumed.run_for(100_000);

    assert_eq!(system_bytes(&resumed), system_bytes(&straight));
    let a = straight.take_telemetry();
    let b = resumed.take_telemetry();
    assert_eq!(a.counters, b.counters);
}

#[test]
fn restore_rejects_structural_mismatch() {
    let mut sys = System::new(&two_apps(), small_config());
    sys.run_prefix(50_000);
    let snap = system_bytes(&sys);

    // Wrong estimator set: structure disagrees with the snapshot.
    let mut other_cfg = small_config();
    other_cfg.estimators = EstimatorSet::asm_only();
    let mut other = System::new(&two_apps(), other_cfg);
    let mut r = asm_simcore::persist::StateReader::new(&snap, "test-system", 1).unwrap();
    let err = other.restore(&mut r).expect_err("four estimators are not one");
    assert_eq!(
        err.to_string(),
        "corrupt: System.hier: Hierarchy.estimators: Estimators.fst: stored length 1, target 0"
    );

    // Wrong application count: the first structural field says so.
    let mut wide = System::new(&[two_apps(), two_apps()].concat(), small_config());
    let mut r = asm_simcore::persist::StateReader::new(&snap, "test-system", 1).unwrap();
    let err = wide.restore(&mut r).expect_err("two cores are not four");
    assert_eq!(
        err.to_string(),
        "corrupt: System.lazy: LazyCores.cores: stored length 2, target 4"
    );

    // Truncated payload.
    let cut = &snap[..snap.len() - 9];
    assert!(asm_simcore::persist::StateReader::new(cut, "test-system", 1).is_err());
}

#[test]
fn latency_histograms_collect_when_enabled() {
    let mut cfg = small_config();
    cfg.latency_hist = Some((50.0, 40));
    let mut sys = System::new(&two_apps(), cfg);
    sys.run_for(100_000);
    assert!(sys.measured_miss_latency_hist().unwrap().total() > 0);
    let hists: Vec<_> = sys.estimator_latency_hists().collect();
    let names: Vec<&str> = hists.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, ["ASM", "FST", "PTCA"]);
    assert!(hists[1].1.total() > 0);
}
