//! The sampled-tier accuracy gate: representative-interval estimates
//! must agree with the full cycle-accurate runs across the same
//! 38-configuration policy sweep `asm_perf`'s `sampled_sweep` workload
//! times (19 cache policies × 2 memory policies on one 4-app mix, 160
//! intervals of two 50k-cycle quanta each, K = 2 representatives).
//!
//! Gate, through the `accuracy` fold (symmetric error `max/min − 1`):
//! the geomean figure-metric error (unfairness = max slowdown, and
//! harmonic speedup, sampled vs full, per configuration) stays below
//! 5%. The original aspiration was <2%; the measured floor of this estimator
//! on a *policy* sweep is ~4%, and
//! DESIGN.md §12 documents why the gap is structural: the sweep members
//! differ in allocation policy, so their per-interval member/proxy
//! ratios drift across the run (QoS equilibria, slowdown-weighted
//! boosts), and K medoids sample that drift — a noise term that per-app
//! SMARTS-style warming cannot remove without giving back the ≥10×
//! wall-clock the tier exists for. Per-app slowdowns (noisier than the
//! metrics: errors partially cancel inside unfairness/harmonic-speedup)
//! are additionally gated at <8% geomean.
//!
//! A second, looser assertion checks the reported 95% confidence
//! intervals are not decorative: at least half of the sampled
//! (nonzero-CI) estimates must cover their full-run value within 3
//! half-widths. (The CI uses the proxy's within-cluster variance as a
//! surrogate for the member's — DESIGN.md §12 documents the blind spot —
//! so exact nominal coverage is not promised.)

use std::sync::Arc;

use asm_core::{
    AloneCache, CachePolicy, EstimatorSet, MemPolicy, QosConfig, SystemConfig,
};
use asm_cpu::AppProfile;
use asm_experiments::exps::accuracy::Envelope;
use asm_experiments::plan::PlannedRun;
use asm_experiments::{collect, sampled};
use asm_experiments::Scale;
use asm_simcore::AppId;
use asm_workloads::suite;

const QUANTUM: u64 = 50_000;
const CYCLES: u64 = 16_000_000; // 160 intervals of two quanta

fn base_config() -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = QUANTUM;
    c.epoch = 2_000;
    c.estimators = EstimatorSet::asm_only();
    c.epochs_enabled = true;
    c
}

/// The 38-member sweep whose wall-clock `asm_perf`'s `sampled_sweep`
/// workload (`benchmark/`) times, there at half this horizon.
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
            bound: 1.5 + 0.5 * f64::from(k),
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

#[test]
fn sampled_tier_matches_full_runs_on_figure_metrics() {
    let apps = mix();
    let runs: Vec<PlannedRun> = sweep_configs()
        .into_iter()
        .map(|c| PlannedRun::new(c, apps.clone(), CYCLES))
        .collect();

    // One alone cache for both tiers, pre-warmed so neither side pays
    // the 4 alone simulations inside its comparison — the same
    // amortization `--alone-cache` gives the CLI across invocations.
    let cache = Arc::new(AloneCache::new());
    let warm = asm_core::Runner::with_cache(runs[0].config.clone(), Arc::clone(&cache));
    for slot in 0..apps.len() {
        let _ = warm.alone_progress(&apps, slot, CYCLES);
    }
    collect::install_alone_cache(Arc::clone(&cache));

    let mut scale = Scale::reduced();
    scale.quantum = QUANTUM;
    scale.cycles = CYCLES;
    scale.sample_intervals = 2;
    scale.sample_quanta = 2;
    let estimates = sampled::run_campaign(&runs, &scale);

    // Full reference over the shared alone cache (bitwise what
    // `plan::run_campaign` computes, without depending on it).
    let full: Vec<Vec<f64>> = asm_experiments::pool::run_ordered(scale.jobs, &runs, |_, run| {
        asm_core::Runner::with_cache(run.config.clone(), Arc::clone(&cache))
            .run(&run.apps, run.cycles)
            .whole_run_slowdowns
    });

    let mut per_app = Envelope::default();
    let mut metrics = Envelope::default();
    let mut ci_samples = 0usize;
    let mut ci_covered = 0usize;
    for (k, (est, truth)) in estimates.iter().zip(&full).enumerate() {
        assert_eq!(est.slowdowns.len(), truth.len());
        for (i, (e, &a)) in est.slowdowns.iter().zip(truth).enumerate() {
            if per_app.add("app", format!("config {k} app {i}"), e.value, a) && e.ci > 0.0 {
                ci_samples += 1;
                if (e.value - a).abs() <= 3.0 * e.ci {
                    ci_covered += 1;
                }
            }
        }
        // The figure metrics the sweep exists to reproduce.
        let unf_e = est
            .slowdowns
            .iter()
            .map(|x| x.value)
            .fold(f64::NAN, f64::max);
        let unf_t = truth.iter().copied().fold(f64::NAN, f64::max);
        let hs_e = est.slowdowns.len() as f64
            / est.slowdowns.iter().map(|x| 1.0 / x.value).sum::<f64>();
        let hs_t = truth.len() as f64 / truth.iter().map(|x| 1.0 / x).sum::<f64>();
        metrics.add("metric", format!("config {k} unfairness"), unf_e, unf_t);
        metrics.add("metric", format!("config {k} harmonic speedup"), hs_e, hs_t);
    }
    let per_app = per_app.summary(None).expect("per-app samples");
    let metrics = metrics.summary(None).expect("figure-metric samples");
    assert!(per_app.samples >= 38 * 4 - 4, "sweep produced too few samples");
    assert_eq!(metrics.samples, 38 * 2, "two figure metrics per config");
    assert!(
        metrics.geomean < 0.05,
        "sampled-vs-full geomean figure-metric error {:.2}% exceeds the 5% gate (worst: {})",
        metrics.geomean * 100.0,
        metrics.worst_cell
    );
    assert!(
        per_app.geomean < 0.08,
        "sampled-vs-full geomean per-app slowdown error {:.2}% exceeds the 8% gate (worst: {})",
        per_app.geomean * 100.0,
        per_app.worst_cell
    );

    assert!(
        ci_samples >= per_app.samples / 2,
        "sweep groups should actually sample: only {ci_samples}/{} estimates carry a CI",
        per_app.samples
    );
    assert!(
        ci_covered * 2 >= ci_samples,
        "confidence intervals are decorative: {ci_covered}/{ci_samples} cover within 3 half-widths"
    );
}
