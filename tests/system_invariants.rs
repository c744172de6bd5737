//! Whole-system integration tests: invariants that span cores, caches,
//! the ATS and main memory.

use asm_repro::core::{EstimatorSet, System, SystemConfig};
use asm_repro::cpu::AppProfile;
use asm_repro::simcore::AppId;
use asm_repro::workloads::suite;

fn small_config() -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = 200_000;
    c.epoch = 5_000;
    c.estimators = EstimatorSet::all();
    c
}

#[test]
fn alone_run_with_full_ats_matches_shared_cache_exactly() {
    // For a single read-only application with a full (unsampled) ATS and no
    // prefetcher, the ATS sees exactly the accesses the shared cache sees
    // and must produce identical hit counts — the strongest cross-check of
    // the "ATS mirrors the alone cache" design.
    let app = AppProfile::builder("readonly")
        .mem_per_kilo(80)
        .working_set_lines(40_000)
        .hot_lines(8_000)
        .hot_frac(0.7)
        .write_frac(0.0)
        .build();
    let mut config = small_config();
    config.ats_sampled_sets = None;
    config.estimators = EstimatorSet::asm_only();
    let mut sys = System::new_alone(&[app], config, AppId::new(0));
    sys.run_for(600_000);
    // In an alone run every epoch belongs to the app, so the ASM record's
    // contention misses should be ~zero: estimates stay at 1.0.
    for r in sys.records() {
        let asm = r.estimates_of("ASM").expect("ASM enabled");
        assert!(
            (asm[0] - 1.0).abs() < 0.15,
            "alone run should estimate ~no slowdown, got {}",
            asm[0]
        );
    }
}

#[test]
fn car_shared_matches_retired_work_direction() {
    // CAR and IPC should move together across quanta (the Figure 1
    // observation, checked inside one run).
    let apps = vec![
        suite::by_name("libquantum_like").unwrap(),
        suite::by_name("mcf_like").unwrap(),
    ];
    let mut sys = System::new(&apps, small_config());
    sys.run_for(1_000_000);
    let records = sys.records();
    assert!(records.len() >= 4);
    for r in records {
        for (i, &car) in r.car_shared.iter().enumerate() {
            let ipc = (r.retired_end[i] - r.retired_start[i]) as f64
                / (r.end_cycle - r.start_cycle) as f64;
            assert!(car > 0.0, "app{i} generated no cache accesses");
            assert!(ipc > 0.0, "app{i} retired nothing");
        }
    }
}

#[test]
fn estimators_present_and_bounded() {
    let apps = vec![
        suite::by_name("soplex_like").unwrap(),
        suite::by_name("h264ref_like").unwrap(),
        suite::by_name("milc_like").unwrap(),
        suite::by_name("gcc_like").unwrap(),
    ];
    let mut sys = System::new(&apps, small_config());
    sys.run_for(800_000);
    for r in sys.records() {
        assert_eq!(r.estimates.len(), 4);
        for (name, est) in &r.estimates {
            assert_eq!(est.len(), 4, "{name} missing apps");
            for &s in est {
                assert!(
                    (1.0..=30.0).contains(&s),
                    "{name} produced implausible slowdown {s}"
                );
            }
        }
    }
}

#[test]
fn no_writebacks_dropped_at_default_config() {
    let apps = vec![
        suite::by_name("lbm_like").unwrap(), // write-heavy streamer
        suite::by_name("libquantum_like").unwrap(),
    ];
    let mut sys = System::new(&apps, small_config());
    sys.run_for(600_000);
    let dropped = sys.dropped_writebacks();
    let retired: u64 = (0..2).map(|i| sys.retired(AppId::new(i))).sum();
    assert!(retired > 10_000);
    // Allow a negligible number under bursts, but not systematic loss.
    assert!(
        dropped < 50,
        "{dropped} writebacks dropped — write path is undersized"
    );
}

#[test]
fn heavier_co_runners_mean_larger_slowdowns() {
    // The same app co-run with light apps vs heavy streamers: ground-truth
    // pressure should show up as lower retired counts.
    let run = |others: &str| {
        let apps = vec![
            suite::by_name("bzip2_like").unwrap(),
            suite::by_name(others).unwrap(),
            suite::by_name(others).unwrap(),
            suite::by_name(others).unwrap(),
        ];
        let mut sys = System::new(&apps, small_config());
        sys.run_for(800_000);
        sys.retired(AppId::new(0))
    };
    let with_light = run("povray_like");
    let with_heavy = run("libquantum_like");
    assert!(
        with_light as f64 > with_heavy as f64 * 1.1,
        "heavy co-runners should slow bzip2 down: light {with_light} vs heavy {with_heavy}"
    );
}

#[test]
fn sixteen_core_system_runs() {
    let apps: Vec<_> = suite::all().into_iter().take(16).collect();
    let mut sys = System::new(&apps, small_config());
    sys.run_for(400_000);
    for i in 0..16 {
        assert!(sys.retired(AppId::new(i)) > 0, "core {i} made no progress");
    }
}

#[test]
fn multi_channel_outperforms_single_channel() {
    let apps = vec![
        suite::by_name("libquantum_like").unwrap(),
        suite::by_name("lbm_like").unwrap(),
        suite::by_name("milc_like").unwrap(),
        suite::by_name("cg_like").unwrap(),
    ];
    let retired_with_channels = |channels: usize| {
        let mut c = small_config();
        c.dram.channels = channels;
        c.estimators = EstimatorSet::asm_only();
        let mut sys = System::new(&apps, c);
        sys.run_for(600_000);
        (0..4).map(|i| sys.retired(AppId::new(i))).sum::<u64>()
    };
    let one = retired_with_channels(1);
    let four = retired_with_channels(4);
    assert!(
        four as f64 > one as f64 * 1.3,
        "4 channels should relieve bandwidth pressure: {one} vs {four}"
    );
}

#[test]
fn app_summary_is_consistent_with_records() {
    let apps = vec![
        suite::by_name("mcf_like").unwrap(),
        suite::by_name("h264ref_like").unwrap(),
    ];
    let mut sys = System::new(&apps, small_config());
    sys.run_for(600_000);
    for i in 0..2 {
        let s = sys.app_summary(AppId::new(i));
        assert_eq!(s.llc_accesses, s.llc_hits + s.llc_misses);
        assert_eq!(s.instructions, sys.retired(AppId::new(i)));
        // CAR from the summary must equal the record-weighted CAR.
        let rec_accesses: f64 = sys
            .records()
            .iter()
            .map(|r| r.car_shared[i] * (r.end_cycle - r.start_cycle) as f64)
            .sum();
        assert!(
            (s.llc_accesses as f64 - rec_accesses).abs() < 1.0,
            "summary {} vs records {rec_accesses}",
            s.llc_accesses
        );
        assert!(s.llc_mpki > 0.0);
    }
}

/// Renders a run's observable results — per-quantum estimates, CARs and
/// retired counts — into the `results_default.txt` textual format. Every
/// f64 is printed with `{:?}` (shortest round-trip), so two renderings
/// are byte-identical iff the underlying values are bit-identical.
fn render_results(sys: &asm_repro::core::System, apps: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# results (default config)\n");
    for (q, r) in sys.records().iter().enumerate() {
        let _ = writeln!(out, "quantum {q} cycles {}..{}", r.start_cycle, r.end_cycle);
        for (name, est) in &r.estimates {
            let _ = writeln!(out, "  est {name} {est:?}");
        }
        let _ = writeln!(out, "  car {:?}", r.car_shared);
    }
    for i in 0..apps {
        let _ = writeln!(out, "retired app{i} {}", sys.retired(AppId::new(i)));
    }
    out
}

#[test]
fn default_config_runs_are_byte_identical() {
    // The determinism smoke test backing DESIGN.md §8's R1/R4: after the
    // BTreeMap migration of the MSHR and alone-cache there is no hash
    // iteration order left in the simulation, so two back-to-back runs
    // from identical seeds must agree bit-for-bit — checked by writing
    // both reports as `results_default.txt` and comparing raw bytes.
    let run = || {
        let apps = vec![
            suite::by_name("mcf_like").unwrap(),
            suite::by_name("libquantum_like").unwrap(),
            suite::by_name("h264ref_like").unwrap(),
            suite::by_name("povray_like").unwrap(),
        ];
        let mut sys = System::new(&apps, small_config());
        sys.run_for(600_000);
        render_results(&sys, apps.len())
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("target tmpdir is creatable");
    let first_path = dir.join("results_default.txt");
    let second_path = dir.join("results_default_rerun.txt");
    std::fs::write(&first_path, run()).expect("tmpdir is writable");
    std::fs::write(&second_path, run()).expect("tmpdir is writable");
    let first = std::fs::read(&first_path).expect("first report readable");
    let second = std::fs::read(&second_path).expect("rerun report readable");
    assert!(!first.is_empty(), "report should contain quantum records");
    assert_eq!(
        first, second,
        "back-to-back default-config runs diverged — nondeterminism \
         reintroduced (check HashMap/entropy use; see DESIGN.md §8, R1/R4)"
    );
}

/// One row of the degenerate-geometry matrix: an application count, a
/// configuration at some edge of the legal space, and whether `System`
/// construction must refuse it.
struct Cell {
    name: String,
    apps: usize,
    config: SystemConfig,
    rejected: bool,
}

fn degenerate_cells() -> Vec<Cell> {
    use asm_repro::cache::CacheGeometry;
    use asm_repro::core::{CachePolicy, QosConfig};
    use asm_repro::dram::SchedulerKind;

    let target = AppId::new(0);
    let policies = [
        CachePolicy::None,
        CachePolicy::Ucp,
        CachePolicy::Mcfq,
        CachePolicy::AsmCache,
        CachePolicy::AsmQos(QosConfig { target, bound: 2.0 }),
        CachePolicy::NaiveQos(target),
    ];
    let mut cells = Vec::new();
    let mut cell = |name: &str, apps: usize, edit: &dyn Fn(&mut SystemConfig), rejected: bool| {
        let mut config = SystemConfig::default();
        config.quantum = 20_000;
        config.epoch = 1_000;
        config.estimators = EstimatorSet::all();
        edit(&mut config);
        cells.push(Cell { name: name.to_owned(), apps, config, rejected });
    };

    cell("1 app", 1, &|_| {}, false);
    cell("1 bank", 4, &|c| c.dram.banks = 1, false);
    cell("1-way LLC", 4, &|c| c.llc_geometry = CacheGeometry::new(2048, 1), false);
    cell("1-way L1", 4, &|c| c.l1_geometry = CacheGeometry::new(c.l1_geometry.sets(), 1), false);
    cell(
        "1-set LLC",
        4,
        &|c| {
            c.llc_geometry = CacheGeometry::new(1, 16);
            c.ats_sampled_sets = Some(1);
        },
        false,
    );
    cell("quantum == epoch", 4, &|c| c.epoch = c.quantum, false);
    for kind in [
        SchedulerKind::FrFcfs,
        SchedulerKind::Parbs,
        SchedulerKind::Tcm,
        SchedulerKind::Atlas,
        SchedulerKind::Bliss,
    ] {
        cell(&format!("16 apps, {kind:?}"), 16, &|c| c.scheduler = kind, false);
    }
    for policy in policies {
        // Every policy but the two that reserve no per-app way needs at
        // least as many ways as applications.
        let needs_a_way_each = !matches!(policy, CachePolicy::None | CachePolicy::NaiveQos(_));
        cell(&format!("1 app, {policy:?}"), 1, &|c| c.cache_policy = policy, false);
        cell(&format!("16 apps x 16 ways, {policy:?}"), 16, &|c| c.cache_policy = policy, false);
        cell(
            &format!("4 apps x 2 ways, {policy:?}"),
            4,
            &|c| {
                c.llc_geometry = CacheGeometry::new(2048, 2);
                c.cache_policy = policy;
            },
            needs_a_way_each,
        );
    }
    cells
}

#[test]
fn degenerate_geometry_matrix() {
    for Cell { name, apps, config, rejected } in degenerate_cells() {
        let profiles: Vec<_> = suite::all().into_iter().rev().take(apps).collect();
        let run = |skip: bool| {
            let mut c = config.clone();
            c.skip_mode = skip;
            let mut sys = System::new(&profiles, c);
            sys.enable_attribution();
            sys.run_for(3 * config.quantum + config.quantum / 2);
            sys
        };

        if rejected {
            // Refused at construction, naming the policy and both counts —
            // not after a simulated quantum, inside the partitioner.
            let err = std::panic::catch_unwind(|| run(true).now()).expect_err(&name);
            let msg = err.downcast_ref::<String>().expect("assert! message");
            let named = [
                format!("{:?}", config.cache_policy),
                format!("{apps} applications"),
                format!("{} ways", config.llc_geometry.ways()),
            ];
            assert!(named.iter().all(|part| msg.contains(part)), "{name}: {msg}");
            continue;
        }

        let (skip, cycle) = (run(true), run(false));
        for sys in [&skip, &cycle] {
            assert!(sys.records().len() >= 3, "{name}: fewer than three quanta");
            for i in 0..apps {
                assert!(sys.retired(AppId::new(i)) > 0, "{name}: core {i} made no progress");
            }
            let ledger = sys.attrib_quanta().expect("attribution on");
            assert!(ledger.len() >= 3, "{name}: ledger closed fewer than three quanta");
            for (q, row) in ledger.iter().enumerate() {
                assert!(row.conserved(), "{name}: quantum {q} does not sum to its length");
            }
        }
        for i in 0..apps {
            let app = AppId::new(i);
            assert_eq!(skip.retired(app), cycle.retired(app), "{name}: app {i} retired");
        }
        assert_eq!(
            format!("{:?}", skip.records()),
            format!("{:?}", cycle.records()),
            "{name}: quantum records differ between skip and no-skip"
        );
    }
}
