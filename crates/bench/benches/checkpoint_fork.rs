//! Prefix-shared checkpoint forking: one 38-configuration policy sweep
//! on a fixed mix, cold vs forked.
//!
//! The 38 members differ only in the quantum-boundary policies (19 cache
//! policies × 2 memory policies), so they share one warmup prefix: the
//! cold variant simulates every run from cycle 0 (38 × 1.25 quanta of
//! shared-run work), the forked variant simulates the first quantum once
//! under the neutral prefix configuration and restores the snapshot into
//! all 38 continuations (1 + 38 × 0.25 quanta). Results are bitwise
//! identical either way — pinned by `crates/core/src/checkpoint.rs`'s
//! unit tests and `checkpoint_equivalence_prop.rs`; this group measures
//! only the wall-clock side of the trade.
//!
//! The alone-run cache is pre-populated outside the timed region: both
//! variants pay zero alone-simulation cost, so the measured ratio
//! isolates what sharing the first quantum alone buys (the planner shares
//! later quanta too; `benchmark/`'s `policy_sweep` measures that).
//! `scripts/bench_snapshot.sh` parses this output into `BENCH_<tag>.json`
//! and enforces the >=2x sweep-speedup gate; keep the benchmark ids
//! stable.

use std::sync::Arc;
use std::time::Duration;

use asm_core::{
    AloneCache, CachePolicy, EstimatorSet, MemPolicy, QosConfig, RunOptions, Runner, SystemConfig,
};
use asm_cpu::AppProfile;
use asm_simcore::AppId;
use asm_workloads::suite;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// One shared-prefix quantum plus a quarter-quantum of post-fork tail.
/// The quantum is sized so the per-fork fixed cost (snapshot restore,
/// ~1ms for a full LLC tag store) stays small next to the tail it
/// replaces; at short quanta that constant dominates and the measured
/// ratio collapses toward 1 regardless of how much warmup is shared.
const QUANTUM: u64 = 800_000;
const CYCLES: u64 = 1_000_000;

fn base_config() -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = QUANTUM;
    c.epoch = 2_000;
    c.estimators = EstimatorSet::asm_only();
    c.epochs_enabled = true;
    c
}

/// The 38-member policy sweep: every member agrees with every other on
/// the prefix-relevant configuration (`checkpoint::prefix_config`), so
/// all 38 share a single warmup key.
fn sweep_configs() -> Vec<SystemConfig> {
    let target = AppId::new(0);
    let mut cache_policies = vec![
        CachePolicy::None,
        CachePolicy::Ucp,
        CachePolicy::Mcfq,
        CachePolicy::AsmCache,
        CachePolicy::NaiveQos(target),
    ];
    for k in 0..14 {
        cache_policies.push(CachePolicy::AsmQos(QosConfig {
            target,
            bound: 1.5 + 0.25 * f64::from(k),
        }));
    }
    let mut configs = Vec::new();
    for &cache in &cache_policies {
        for mem in [MemPolicy::Uniform, MemPolicy::SlowdownWeighted] {
            let mut c = base_config();
            c.cache_policy = cache;
            c.mem_policy = mem;
            configs.push(c);
        }
    }
    assert_eq!(configs.len(), 38, "the sweep is sized by the PR acceptance");
    configs
}

fn mix() -> Vec<AppProfile> {
    ["mcf_like", "libquantum_like", "soplex_like", "h264ref_like"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite profile exists"))
        .collect()
}

fn bench_checkpoint_fork(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_fork");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));

    let configs = sweep_configs();
    let apps = mix();
    let opts = RunOptions::default();

    // Pre-populate the alone-run cache (shared by every runner below):
    // both variants then read cached alone records, so the measured
    // ratio is pure shared-run simulation.
    let cache = Arc::new(AloneCache::new());
    let _ = Runner::with_cache(configs[0].clone(), Arc::clone(&cache)).run(&apps, CYCLES);

    g.bench_function("sweep38_cold", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for cfg in &configs {
                let runner = Runner::with_cache(cfg.clone(), Arc::clone(&cache));
                let r = runner.run_with(&apps, CYCLES, opts);
                acc ^= r.whole_run_slowdowns[0].to_bits();
            }
            black_box(acc)
        });
    });

    g.bench_function("sweep38_forked", |b| {
        b.iter(|| {
            let warm = Runner::with_cache(configs[0].clone(), Arc::clone(&cache));
            let snapshot = warm.warm_snapshot(&apps, opts);
            let mut acc = 0u64;
            for cfg in &configs {
                let runner = Runner::with_cache(cfg.clone(), Arc::clone(&cache));
                let r = runner
                    .run_with_snapshot(&apps, CYCLES, opts, &snapshot)
                    .expect("fresh snapshot restores into its own sweep");
                acc ^= r.whole_run_slowdowns[0].to_bits();
            }
            black_box(acc)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_checkpoint_fork);
criterion_main!(benches);
