//! One benchmark per paper table/figure, at miniature scale.
//!
//! These validate that every experiment's code path runs end-to-end and
//! track its simulation cost over time; the full-scale numbers come from
//! the `asm-experiments` binary (see EXPERIMENTS.md).

use std::time::Duration;

use asm_bench::{micro_config, micro_cycles, micro_workload};
use asm_cache::CacheGeometry;
use asm_core::{
    CachePolicy, EstimatorSet, MemPolicy, PrefetchConfig, QosConfig, Runner, System, SystemConfig,
};
use asm_dram::SchedulerKind;
use asm_simcore::AppId;
use asm_workloads::{hog_profile, suite};
use criterion::{criterion_group, criterion_main, Criterion};

fn run_once(config: SystemConfig) -> f64 {
    let runner = Runner::new(config);
    let r = runner.run(&micro_workload(), micro_cycles());
    // Return something data-dependent so the optimiser keeps everything.
    r.whole_run_slowdowns.iter().sum()
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    // Figure 1: app + hog co-run, CAR/performance measurement.
    g.bench_function("fig01_car_correlation", |b| {
        b.iter(|| {
            let apps = vec![suite::by_name("h264ref_like").unwrap(), hog_profile(3, 6)];
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet::asm_only();
            let mut sys = System::new(&apps, cfg);
            sys.run_for(micro_cycles());
            sys.records().len()
        });
    });

    // Figure 2: accuracy with the full (unsampled) ATS.
    g.bench_function("fig02_error_unsampled", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.ats_sampled_sets = None;
            cfg.pollution_filter_bits = 1 << 20;
            run_once(cfg)
        });
    });

    // Figure 3: accuracy with the 64-set sampled ATS.
    g.bench_function("fig03_error_sampled", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.ats_sampled_sets = Some(64);
            run_once(cfg)
        });
    });

    // Figure 4: the same runs feed the error distribution.
    g.bench_function("fig04_error_distribution", |b| {
        b.iter(|| run_once(micro_config()));
    });

    // Figure 5: accuracy with a stride prefetcher.
    g.bench_function("fig05_prefetch", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.prefetcher = Some(PrefetchConfig::default());
            run_once(cfg)
        });
    });

    // Figure 6: latency-distribution collection enabled.
    g.bench_function("fig06_latency_dist", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.latency_hist = Some((40.0, 30));
            run_once(cfg)
        });
    });

    // Database workloads.
    g.bench_function("db_workloads", |b| {
        b.iter(|| {
            let runner = Runner::new(micro_config());
            let apps: Vec<_> = suite::db().into_iter().cycle().take(4).collect();
            let r = runner.run(&apps, micro_cycles());
            r.whole_run_slowdowns.iter().sum::<f64>()
        });
    });

    // §6.4 MISE vs ASM: both estimators active.
    g.bench_function("mise_vs_asm", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet {
                asm: true,
                mise: true,
                ..EstimatorSet::none()
            };
            run_once(cfg)
        });
    });

    // Figure 7: 8-core run (core-count scaling).
    g.bench_function("fig07_core_count", |b| {
        b.iter(|| {
            let apps: Vec<_> = suite::all().into_iter().take(8).collect();
            let mut sys = System::new(&apps, micro_config());
            sys.run_for(micro_cycles());
            sys.retired(AppId::new(0))
        });
    });

    // Figure 8: 4 MB cache configuration.
    g.bench_function("fig08_cache_size", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.llc_geometry = CacheGeometry::from_capacity(4 << 20, 16);
            run_once(cfg)
        });
    });

    // Table 3: a different (Q, E) point.
    g.bench_function("table3_qe_sweep", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.quantum = 100_000;
            cfg.epoch = 1_000;
            run_once(cfg)
        });
    });

    // Figure 9: ASM-Cache partitioning active.
    g.bench_function("fig09_asm_cache", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet::asm_only();
            cfg.cache_policy = CachePolicy::AsmCache;
            run_once(cfg)
        });
    });

    // Figure 10: ASM-Mem (slowdown-weighted epochs).
    g.bench_function("fig10_asm_mem", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet::asm_only();
            cfg.mem_policy = MemPolicy::SlowdownWeighted;
            run_once(cfg)
        });
    });

    // Combined scheme vs PARBS+UCP substrate.
    g.bench_function("combined_cache_mem", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet::asm_only();
            cfg.cache_policy = CachePolicy::AsmCache;
            cfg.mem_policy = MemPolicy::SlowdownWeighted;
            let a = run_once(cfg);
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet::asm_only();
            cfg.scheduler = SchedulerKind::Parbs;
            cfg.cache_policy = CachePolicy::Ucp;
            a + run_once(cfg)
        });
    });

    // Figure 11: ASM-QoS.
    g.bench_function("fig11_qos", |b| {
        b.iter(|| {
            let mut cfg = micro_config();
            cfg.estimators = EstimatorSet::asm_only();
            cfg.cache_policy = CachePolicy::AsmQos(QosConfig {
                target: AppId::new(0),
                bound: 3.0,
            });
            run_once(cfg)
        });
    });

    g.finish();
}

/// A miniature fig2-style sweep through the parallel harness, sequential
/// vs one worker per core. The per-job wall-clock ratio is the speedup
/// the `--jobs` flag buys on this machine (the acceptance criterion asks
/// for >=2x on four cores at real scales).
fn bench_parallel_sweep(c: &mut Criterion) {
    use asm_experiments::collect::collect_accuracy;
    use asm_experiments::plan::{cross, run_campaign};
    use asm_experiments::pool::default_jobs;
    use asm_workloads::mix;

    let mut g = c.benchmark_group("parallel_sweep");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let jobs_many = default_jobs();
    for jobs in [1, jobs_many] {
        g.bench_function(format!("fig2_micro_8_workloads_jobs_{jobs}"), |b| {
            b.iter(|| {
                let mut cfg = micro_config();
                cfg.estimators = EstimatorSet::all();
                let workloads = mix::random_mixes(8, 4, 42);
                let runs = cross(&[cfg], &workloads, micro_cycles());
                let stats = collect_accuracy(&run_campaign(&runs, jobs), 0);
                stats.mean_error("ASM").unwrap_or(f64::NAN)
            });
        });
        if jobs_many == 1 {
            break; // single-core machine: the two points coincide
        }
    }
    g.finish();
}

criterion_group!(benches, bench_figures, bench_parallel_sweep);
criterion_main!(benches);
