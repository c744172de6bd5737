//! The seven workloads: what each sets up, what one repetition does, and
//! which checks prove the repetition's outputs are correct.
//!
//! Sizes are chosen so one repetition takes 0.3–1.1 s on the two-CPU
//! host the baselines were recorded on (benchmark/README.md has the
//! measured figures): long enough that steady state dominates the cold
//! start, short enough that a run of a few seconds holds five or more
//! repetitions. Every modelled cache starts empty and every statistic
//! includes the fill.

use std::sync::Arc;

use asm_analytic::{ProfileParams, ProfileStore};
use asm_core::{
    AloneCache, CachePolicy, EstimatorSet, MemPolicy, QosConfig, QuantumRecord, RunOptions,
    RunResult, Runner, System, SystemConfig,
};
use asm_cpu::AppProfile;
use asm_experiments::plan::PlannedRun;
use asm_experiments::{analytic, collect, plan, sampled, Scale};
use asm_simcore::{AppId, Cycle};
use asm_workloads::{mix, suite};

use crate::layers::{self, Pass};
use crate::span::Recorder;
use crate::stats::Digest;

/// Workload names with the one-line reason each exists (mirrored in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 7] = [
    ("mem_skip", "4x mcf_like with fast-forward: cores blocked on DRAM, the controller and the next-event fold do the work"),
    ("mem_noskip", "same mix, fast-forward off: every cycle runs System::step, so per-cycle shape costs show"),
    ("compute", "h264ref/povray x2: core tick and L1 dominate, DRAM near idle; bypasses DRAM and skip optimisations"),
    ("hetero_full", "mixed-intensity mix with every estimator, both mechanisms, telemetry and attribution on"),
    ("policy_sweep", "38-member policy sweep through plan::run_campaign: alone runs, one prefix warm, 38 forks"),
    ("sampled_sweep", "38-member sweep on the sampled tier: fingerprint, clustering and medoid probes, little cycle loop"),
    ("analytic_mixes", "500 binned mixes through the analytic tier: no cycle loop at all, bypasses every hot-loop change"),
];

/// Quanta dropped from accuracy statistics, as the experiments do.
const WARMUP_QUANTA: usize = 2;
/// Horizon of the pre-flight equivalence checks run during set-up.
const PREFIX_CYCLES: Cycle = 2_000_000;

const MEM_SKIP_CYCLES: Cycle = 20_000_000;
const MEM_NOSKIP_CYCLES: Cycle = 6_000_000;
const COMPUTE_CYCLES: Cycle = 4_000_000;
/// `hetero_full` needs the longest horizon: its host cost per quantum
/// climbs for the first ~15 M cycles (caches fill, the policies converge,
/// and the share of cycles that fast-forward cannot skip goes from a
/// third to four fifths) before it flattens. 20 M cycles cover the climb
/// and five flat quanta.
const HETERO_CYCLES: Cycle = 20_000_000;

const SWEEP_QUANTUM: Cycle = 250_000;
const SWEEP_CYCLES: Cycle = 1_000_000;
/// Members checked bitwise against cold `Runner::run_with`.
const SWEEP_CHECKED: [usize; 3] = [0, 17, 37];

/// The `sampled_gate.rs` geometry at half its horizon: 80 intervals of
/// two 50k-cycle quanta, K = 2.
const SAMPLED_QUANTUM: Cycle = 50_000;
const SAMPLED_EPOCH: Cycle = 2_000;
const SAMPLED_CYCLES: Cycle = 8_000_000;
const SAMPLED_INTERVALS: usize = 2;
const SAMPLED_QUANTA: u64 = 2;
/// Members simulated in full on the cycle tier as the error reference.
const SAMPLED_REFERENCE: [usize; 5] = [0, 8, 16, 24, 32];

const ANALYTIC_MIXES: usize = 500;
/// Mixes simulated on the cycle tier as the error reference, and the
/// horizon of those runs — also the cycles one analytic solve is taken
/// to represent in `sim_mcycles_per_s`.
const ANALYTIC_REFERENCE_MIXES: usize = 6;
const ANALYTIC_REFERENCE_CYCLES: Cycle = 4_000_000;

/// Operations attempted and failed: one per simulation run, campaign
/// member, mix solve and correctness check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report (capped; the count is never capped).
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// One run's slowdowns: the run fails if any is non-finite or < 1.
    pub fn slowdowns(&mut self, what: &str, values: &[f64]) {
        let ok = values.iter().all(|v| v.is_finite() && *v >= 1.0);
        self.check(ok, || {
            format!("{what}: slowdown non-finite or < 1 in {values:?}")
        });
    }
}

/// A representative cycle-tier run of the workload: what the traced
/// pass's isolation kernels and subtraction variants are run on.
#[derive(Debug, Clone)]
pub struct Probe {
    pub apps: Vec<AppProfile>,
    pub config: SystemConfig,
    pub cycles: Cycle,
}

/// One prepared workload.
pub trait Workload {
    /// Called once on the set-up that the repetitions will use, before
    /// the warm-up: the place for process-wide installation.
    fn begin(&mut self) {}
    /// One repetition of the identical deterministic work; returns the
    /// digest of every simulated statistic it produced.
    fn rep(&mut self, rec: &mut Recorder, ops: &mut Ops) -> u64;
    /// Simulation runs, campaign members or mix solves per repetition.
    fn runs_per_rep(&self) -> u64;
    /// Target cycles simulated or represented per repetition.
    fn cycles_per_rep(&self) -> u64;
    /// The traced pass's per-layer section. `rep_wall_s` is the fastest
    /// of this pass's plain repetitions.
    fn layers(&mut self, pass: &mut Pass, rep_wall_s: f64);
}

/// Prepares `name` from `seed`. Everything here is untimed preparation
/// reported as `setup_s`: input generation, alone-cache warm, profile
/// extraction, reference runs and pre-flight equivalence checks.
pub fn setup(
    name: &str,
    seed: u64,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mem_skip" => Box::new(SingleRun::setup(
            &["mcf_like"; 4],
            true,
            MEM_SKIP_CYCLES,
            seed,
            rec,
            ops,
        )),
        "mem_noskip" => Box::new(SingleRun::setup(
            &["mcf_like"; 4],
            false,
            MEM_NOSKIP_CYCLES,
            seed,
            rec,
            ops,
        )),
        "compute" => Box::new(SingleRun::setup(
            &["h264ref_like", "povray_like", "h264ref_like", "povray_like"],
            true,
            COMPUTE_CYCLES,
            seed,
            rec,
            ops,
        )),
        "hetero_full" => Box::new(HeteroFull::setup(seed, rec, ops)),
        "policy_sweep" => Box::new(PolicySweep::setup(seed, rec, ops)),
        "sampled_sweep" => Box::new(SampledSweep::setup(seed, rec, ops)),
        "analytic_mixes" => Box::new(AnalyticMixes::setup(seed, rec, ops)),
        _ => return None,
    })
}

fn profiles(names: &[&str]) -> Vec<AppProfile> {
    names
        .iter()
        .map(|n| suite::by_name(n).expect("suite profile exists"))
        .collect()
}

fn hetero() -> Vec<AppProfile> {
    profiles(&["mcf_like", "libquantum_like", "soplex_like", "h264ref_like"])
}

/// Table-2 hardware, Q = 1 M, E = 10 k, ASM only, no mechanism.
fn base_config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::default();
    c.quantum = 1_000_000;
    c.epoch = 10_000;
    c.estimators = EstimatorSet::asm_only();
    c.seed = seed;
    c
}

/// The 38-member sweep of fig9/10/11: 19 cache policies (five fixed
/// schemes and 14 ASM-QoS bounds `1.5 + step·k`) × 2 memory policies.
/// All members agree on the prefix-relevant configuration, so they share
/// one warm-up.
fn sweep_configs(base: &SystemConfig, qos_step: f64) -> Vec<SystemConfig> {
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
            bound: 1.5 + qos_step * f64::from(k),
        }));
    }
    let mut configs = Vec::with_capacity(38);
    for &cache in &cache_policies {
        for mem in [MemPolicy::Uniform, MemPolicy::SlowdownWeighted] {
            let mut c = base.clone();
            c.cache_policy = cache;
            c.mem_policy = mem;
            configs.push(c);
        }
    }
    configs
}

fn digest_partition(d: &mut Digest, partition: Option<&[usize]>) {
    match partition {
        Some(p) => d.u64s(&p.iter().map(|&w| w as u64).collect::<Vec<_>>()),
        None => d.u64(u64::MAX),
    }
}

/// A sweep's probe: its ASM-Cache + ASM-Mem member (index 7), run for
/// `cycles`. One member of `policy_sweep` is 30 ms of simulation; the
/// subtraction variants need several times that to resolve anything.
fn sweep_probe(runs: &[PlannedRun], cycles: Cycle) -> Probe {
    let member = &runs[7];
    Probe {
        apps: member.apps.clone(),
        config: member.config.clone(),
        cycles,
    }
}

pub fn digest_records(d: &mut Digest, records: &[QuantumRecord]) {
    d.u64(records.len() as u64);
    for r in records {
        d.u64(r.start_cycle);
        d.u64(r.end_cycle);
        d.u64s(&r.retired_start);
        d.u64s(&r.retired_end);
        d.f64s(&r.car_shared);
        for (name, values) in &r.estimates {
            d.str(name);
            d.f64s(values);
        }
        digest_partition(d, r.partition.as_deref());
        match &r.car_alone {
            Some(c) => d.f64s(c),
            None => d.u64(u64::MAX),
        }
        for &(a, b) in &r.ats_samples {
            d.u64(a);
            d.u64(b);
        }
        d.u64s(&r.interference_cycles);
    }
}

pub fn digest_result(d: &mut Digest, r: &RunResult) {
    d.u64(r.quanta.len() as u64);
    for q in &r.quanta {
        for (name, values) in &q.estimates {
            d.str(name);
            d.f64s(values);
        }
        d.f64s(&q.actual);
        d.f64s(&q.car_shared);
        digest_partition(d, q.partition.as_deref());
    }
    d.f64s(&r.whole_run_slowdowns);
    if let Some(a) = &r.attribution {
        d.u64s(&a.totals);
        d.u64s(&a.blame);
    }
}

fn result_digest(r: &RunResult) -> u64 {
    let mut d = Digest::default();
    digest_result(&mut d, r);
    d.value()
}

/// Digest of a plain `System` run of `cycles` cycles.
fn system_digest(
    apps: &[AppProfile],
    config: &SystemConfig,
    cycles: Cycle,
    observers: bool,
) -> u64 {
    let mut sys = System::new(apps, config.clone());
    if observers {
        sys.enable_telemetry(None);
        sys.enable_attribution();
    }
    sys.run_for(cycles);
    let mut d = Digest::default();
    digest_records(&mut d, sys.records());
    d.value()
}

/// Mean |estimate − measured| ÷ measured, in percent, of `estimator`
/// over post-warm-up quanta and applications with valid ground truth;
/// `None` when the estimator did not run or nothing qualifies.
pub fn estimator_err_pct(results: &[&RunResult], estimator: &str) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0u64);
    for r in results {
        for q in r.quanta.iter().skip(WARMUP_QUANTA) {
            let Some((_, est)) = q.estimates.iter().find(|(name, _)| name == estimator) else {
                continue;
            };
            for (&e, &a) in est.iter().zip(&q.actual) {
                if a.is_finite() && a > 0.0 && e.is_finite() {
                    sum += (e - a).abs() / a;
                    n += 1;
                }
            }
        }
    }
    (n > 0).then(|| 100.0 * sum / n as f64)
}

/// Mean and worst relative error, in percent, of `tier` slowdowns
/// against cycle-tier `reference` slowdowns, cell by cell.
pub fn tier_err_pct(tier: &[f64], reference: &[f64]) -> (f64, f64) {
    let errs: Vec<f64> = tier
        .iter()
        .zip(reference)
        .map(|(t, r)| 100.0 * (t - r).abs() / r)
        .collect();
    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    (mean, errs.iter().copied().fold(0.0, f64::max))
}

// ---------------------------------------------------------------------
// mem_skip, mem_noskip, compute: one plain `System` run per repetition.
// ---------------------------------------------------------------------

struct SingleRun {
    probe: Probe,
}

impl SingleRun {
    fn setup(
        names: &[&str],
        skip: bool,
        cycles: Cycle,
        seed: u64,
        rec: &mut Recorder,
        ops: &mut Ops,
    ) -> Self {
        let apps = profiles(names);
        let mut config = base_config(seed);
        config.skip_mode = skip;
        // Pre-flight: fast-forward must not change a single simulated
        // bit on these inputs, or comparing the skip and no-skip
        // workloads would compare two different simulations.
        let [on, off] = [true, false].map(|skip_mode| {
            let mut c = config.clone();
            c.skip_mode = skip_mode;
            rec.span("core.system.prefix_check", |_| {
                system_digest(&apps, &c, PREFIX_CYCLES, false)
            })
        });
        ops.check(on == off, || {
            format!("skip digest {on:016x} != no-skip digest {off:016x} on a {PREFIX_CYCLES}-cycle prefix")
        });
        SingleRun {
            probe: Probe {
                apps,
                config,
                cycles,
            },
        }
    }
}

impl Workload for SingleRun {
    fn rep(&mut self, rec: &mut Recorder, ops: &mut Ops) -> u64 {
        let p = &self.probe;
        let mut sys = rec.span("core.system.new", |_| {
            System::new(&p.apps, p.config.clone())
        });
        rec.span("core.system.run_for", |_| sys.run_for(p.cycles));
        let complete = sys.records().len() as u64 == p.cycles / p.config.quantum
            && (0..p.apps.len()).all(|i| sys.retired(AppId::new(i)) > 0);
        ops.check(complete, || {
            "run ended without its quanta or with an idle core".to_owned()
        });
        let mut d = Digest::default();
        digest_records(&mut d, sys.records());
        d.value()
    }

    fn runs_per_rep(&self) -> u64 {
        1
    }

    fn cycles_per_rep(&self) -> u64 {
        self.probe.cycles
    }

    fn layers(&mut self, pass: &mut Pass, _rep_wall_s: f64) {
        layers::cycle_tier(&self.probe, pass);
    }
}

// ---------------------------------------------------------------------
// hetero_full: everything on, through `Runner::run_with`.
// ---------------------------------------------------------------------

struct HeteroFull {
    probe: Probe,
    cache: Arc<AloneCache>,
    last: Option<RunResult>,
}

const OBSERVERS_ON: RunOptions = RunOptions {
    telemetry: true,
    trace_sample: None,
    attrib: true,
};

impl HeteroFull {
    fn setup(seed: u64, rec: &mut Recorder, ops: &mut Ops) -> Self {
        let apps = hetero();
        let mut config = base_config(seed);
        config.estimators = EstimatorSet::everything();
        config.cache_policy = CachePolicy::AsmCache;
        config.mem_policy = MemPolicy::SlowdownWeighted;
        let cache = Arc::new(AloneCache::new());
        let runner = Runner::with_cache(config.clone(), Arc::clone(&cache));
        rec.span("core.runner.alone_runs", |_| {
            for slot in 0..apps.len() {
                let _ = runner.alone_progress(&apps, slot, HETERO_CYCLES);
            }
        });
        // Pre-flight: telemetry and attribution observe, they may not
        // steer.
        let [on, off] = [true, false].map(|observers| {
            rec.span("core.system.prefix_check", |_| {
                system_digest(&apps, &config, PREFIX_CYCLES, observers)
            })
        });
        ops.check(on == off, || {
            format!("observers-on digest {on:016x} != observers-off digest {off:016x}")
        });
        HeteroFull {
            probe: Probe {
                apps,
                config,
                cycles: HETERO_CYCLES,
            },
            cache,
            last: None,
        }
    }
}

impl Workload for HeteroFull {
    fn rep(&mut self, rec: &mut Recorder, ops: &mut Ops) -> u64 {
        let p = &self.probe;
        let runner = Runner::with_cache(p.config.clone(), Arc::clone(&self.cache));
        let r = rec.span("core.runner.run_with", |_| {
            runner.run_with(&p.apps, p.cycles, OBSERVERS_ON)
        });
        ops.slowdowns("hetero_full", &r.whole_run_slowdowns);
        let conserved = r.attribution.as_ref().is_some_and(|a| {
            !a.quanta.is_empty() && a.quanta.iter().all(asm_core::QuantumLedger::conserved)
        });
        ops.check(conserved, || {
            "a ledger row does not sum to its quantum length".to_owned()
        });
        let digest = result_digest(&r);
        self.last = Some(r);
        digest
    }

    fn runs_per_rep(&self) -> u64 {
        1
    }

    fn cycles_per_rep(&self) -> u64 {
        self.probe.cycles
    }

    fn layers(&mut self, pass: &mut Pass, _rep_wall_s: f64) {
        if let Some(r) = &self.last {
            layers::estimator_errors(&[r], pass);
        }
        layers::cycle_tier(&self.probe, pass);
        layers::harness(&self.probe, pass);
    }
}

// ---------------------------------------------------------------------
// policy_sweep: 38 members through the campaign planner.
// ---------------------------------------------------------------------

struct PolicySweep {
    runs: Vec<PlannedRun>,
    /// Digests of cold `Runner::run_with` for the checked members.
    cold: Vec<(usize, u64)>,
    last: Vec<RunResult>,
}

impl PolicySweep {
    fn setup(seed: u64, rec: &mut Recorder, ops: &mut Ops) -> Self {
        let apps = hetero();
        let mut base = base_config(seed);
        base.quantum = SWEEP_QUANTUM;
        let runs: Vec<PlannedRun> = sweep_configs(&base, 0.25)
            .into_iter()
            .map(|c| PlannedRun::new(c, apps.clone(), SWEEP_CYCLES))
            .collect();
        // Reference: the checked members, cold, the way sweeps ran
        // before the planner existed.
        let cache = Arc::new(AloneCache::new());
        let cold = SWEEP_CHECKED
            .iter()
            .map(|&i| {
                let runner = Runner::with_cache(runs[i].config.clone(), Arc::clone(&cache));
                let r = rec.span("core.runner.run_with", |_| {
                    runner.run_with(&apps, SWEEP_CYCLES, RunOptions::default())
                });
                ops.slowdowns("policy_sweep cold reference", &r.whole_run_slowdowns);
                (i, result_digest(&r))
            })
            .collect();
        PolicySweep {
            runs,
            cold,
            last: Vec::new(),
        }
    }
}

impl Workload for PolicySweep {
    fn rep(&mut self, rec: &mut Recorder, ops: &mut Ops) -> u64 {
        // No alone cache is installed: every campaign pays its own alone
        // runs, as a fig9/10/11 invocation does.
        let results = rec.span("experiments.plan.run_campaign", |_| {
            plan::run_campaign(&self.runs, 1)
        });
        let mut d = Digest::default();
        for r in &results {
            ops.slowdowns("policy_sweep member", &r.whole_run_slowdowns);
            digest_result(&mut d, r);
        }
        for &(i, cold) in &self.cold {
            let forked = result_digest(&results[i]);
            ops.check(forked == cold, || {
                format!("member {i}: campaign digest {forked:016x} != cold digest {cold:016x}")
            });
        }
        self.last = results;
        d.value()
    }

    fn runs_per_rep(&self) -> u64 {
        self.runs.len() as u64
    }

    fn cycles_per_rep(&self) -> u64 {
        self.runs.len() as u64 * SWEEP_CYCLES
    }

    fn layers(&mut self, pass: &mut Pass, rep_wall_s: f64) {
        let results: Vec<&RunResult> = self.last.iter().collect();
        layers::estimator_errors(&results, pass);
        let probe = sweep_probe(&self.runs, 4 * SWEEP_CYCLES);
        layers::cycle_tier(&probe, pass);
        layers::harness(&probe, pass);
        layers::plan_phases(&self.runs, rep_wall_s, pass);
    }
}

// ---------------------------------------------------------------------
// sampled_sweep: the same sweep on the sampled tier.
// ---------------------------------------------------------------------

struct SampledSweep {
    runs: Vec<PlannedRun>,
    cache: Arc<AloneCache>,
    scale: Scale,
    last: Vec<sampled::SampledResult>,
}

impl SampledSweep {
    fn setup(seed: u64, rec: &mut Recorder, _ops: &mut Ops) -> Self {
        let apps = hetero();
        let mut base = base_config(seed);
        base.quantum = SAMPLED_QUANTUM;
        base.epoch = SAMPLED_EPOCH;
        let runs: Vec<PlannedRun> = sweep_configs(&base, 0.5)
            .into_iter()
            .map(|c| PlannedRun::new(c, apps.clone(), SAMPLED_CYCLES))
            .collect();
        // The amortisation `--alone-cache` gives the CLI across
        // invocations: alone runs are paid here, not per campaign.
        let cache = Arc::new(AloneCache::new());
        let runner = Runner::with_cache(runs[0].config.clone(), Arc::clone(&cache));
        rec.span("core.runner.alone_runs", |_| {
            for slot in 0..apps.len() {
                let _ = runner.alone_progress(&apps, slot, SAMPLED_CYCLES);
            }
        });
        let mut scale = Scale::reduced();
        scale.quantum = SAMPLED_QUANTUM;
        scale.epoch = SAMPLED_EPOCH;
        scale.cycles = SAMPLED_CYCLES;
        scale.seed = seed;
        scale.sample_intervals = SAMPLED_INTERVALS;
        scale.sample_quanta = SAMPLED_QUANTA;
        scale.jobs = 1;
        SampledSweep {
            runs,
            cache,
            scale,
            last: Vec::new(),
        }
    }
}

impl Workload for SampledSweep {
    fn begin(&mut self) {
        // The campaign driver reads the process-wide cache.
        collect::install_alone_cache(Arc::clone(&self.cache));
    }

    fn rep(&mut self, rec: &mut Recorder, ops: &mut Ops) -> u64 {
        let results = rec.span("experiments.sampled.run_campaign", |_| {
            sampled::run_campaign(&self.runs, &self.scale)
        });
        let mut d = Digest::default();
        for r in &results {
            let ok = r
                .slowdowns
                .iter()
                .all(|e| e.value.is_finite() && e.value > 0.0 && e.ci.is_finite() && e.ci >= 0.0);
            ops.check(ok, || {
                format!(
                    "sampled member: non-finite estimate or negative CI in {:?}",
                    r.slowdowns
                )
            });
            for e in &r.slowdowns {
                d.f64(e.value);
                d.f64(e.ci);
            }
        }
        self.last = results;
        d.value()
    }

    fn runs_per_rep(&self) -> u64 {
        self.runs.len() as u64
    }

    fn cycles_per_rep(&self) -> u64 {
        self.runs.len() as u64 * SAMPLED_CYCLES
    }

    fn layers(&mut self, pass: &mut Pass, rep_wall_s: f64) {
        let probe = sweep_probe(&self.runs, SAMPLED_CYCLES / 2);
        layers::cycle_tier(&probe, pass);
        layers::harness(&probe, pass);
        layers::sampling(
            &self.runs,
            &self.scale,
            &self.cache,
            &self.last,
            &SAMPLED_REFERENCE,
            rep_wall_s,
            pass,
        );
    }
}

// ---------------------------------------------------------------------
// analytic_mixes: the analytic tier, no cycle loop.
// ---------------------------------------------------------------------

/// The distinct applications of `mixes`, in name order.
fn distinct_by_name(mixes: &[Vec<AppProfile>]) -> Vec<AppProfile> {
    let mut apps: Vec<AppProfile> = mixes.iter().flatten().cloned().collect();
    apps.sort_by(|a, b| a.name().cmp(b.name()));
    apps.dedup_by(|a, b| a.name() == b.name());
    apps
}

struct AnalyticMixes {
    config: SystemConfig,
    mixes: Vec<Vec<AppProfile>>,
    last: Vec<Vec<f64>>,
}

impl AnalyticMixes {
    fn setup(seed: u64, rec: &mut Recorder, _ops: &mut Ops) -> Self {
        let mut config = SystemConfig::default();
        config.seed = seed;
        let mixes = rec.span("workloads.mix_gen", |_| {
            mix::binned_mixes(ANALYTIC_MIXES, 4, seed)
        });
        // Extraction into a local store is the work that warming the
        // process-wide store costs; `begin` warms that one (it cannot be
        // emptied again, so it cannot be warmed once per set-up). Name
        // order, not mix order: the allocation sequence, and with it the
        // peak memory, must not depend on the seed.
        let params = ProfileParams::from_system(&config);
        let mut store = ProfileStore::new();
        for app in &distinct_by_name(&mixes) {
            rec.span("analytic.profile_extract", |_| {
                store.ensure(app, &params);
            });
        }
        AnalyticMixes {
            config,
            mixes,
            last: Vec::new(),
        }
    }
}

impl Workload for AnalyticMixes {
    fn begin(&mut self) {
        let apps = distinct_by_name(&self.mixes);
        let warm: Vec<Vec<AppProfile>> = apps.chunks(4).map(<[AppProfile]>::to_vec).collect();
        let _ = analytic::solve_mixes(&self.config, &warm, 1);
    }

    fn rep(&mut self, rec: &mut Recorder, ops: &mut Ops) -> u64 {
        let solutions = rec.span("experiments.analytic.solve_mixes", |_| {
            analytic::solve_mixes(&self.config, &self.mixes, 1)
        });
        let mut d = Digest::default();
        for s in &solutions {
            ops.slowdowns("analytic mix", &s.slowdowns);
            d.f64s(&s.slowdowns);
        }
        self.last = solutions.into_iter().map(|s| s.slowdowns).collect();
        d.value()
    }

    fn runs_per_rep(&self) -> u64 {
        self.mixes.len() as u64
    }

    fn cycles_per_rep(&self) -> u64 {
        self.mixes.len() as u64 * ANALYTIC_REFERENCE_CYCLES
    }

    fn layers(&mut self, pass: &mut Pass, rep_wall_s: f64) {
        let mut config = base_config(self.config.seed);
        config.estimators = EstimatorSet::none();
        layers::analytic(
            &config,
            &self.mixes[..ANALYTIC_REFERENCE_MIXES],
            &self.last[..ANALYTIC_REFERENCE_MIXES],
            ANALYTIC_REFERENCE_CYCLES,
            rep_wall_s / self.mixes.len() as f64,
            pass,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_38_members_sharing_one_prefix() {
        let configs = sweep_configs(&base_config(1), 0.25);
        assert_eq!(configs.len(), 38);
        let prefix = asm_core::checkpoint::prefix_config(&configs[0]);
        assert!(configs
            .iter()
            .all(|c| asm_core::checkpoint::prefix_config(c) == prefix));
        assert_eq!(configs[7].cache_policy, CachePolicy::AsmCache);
        assert_eq!(configs[7].mem_policy, MemPolicy::SlowdownWeighted);
    }

    #[test]
    fn ops_count_failures_without_capping_the_count() {
        let mut ops = Ops::default();
        ops.slowdowns("ok", &[1.0, 2.5]);
        for _ in 0..20 {
            ops.slowdowns("bad", &[0.5]);
        }
        ops.slowdowns("nan", &[f64::NAN]);
        assert_eq!((ops.attempted, ops.failed), (22, 21));
        assert_eq!(ops.failures.len(), 16);
    }

    #[test]
    fn tier_error_is_relative_to_the_reference() {
        let (mean, worst) = tier_err_pct(&[1.1, 2.0], &[1.0, 4.0]);
        assert!((mean - 30.0).abs() < 1e-9 && (worst - 50.0).abs() < 1e-9);
    }

    #[test]
    fn workload_names_are_unique_and_known_to_setup() {
        for (i, (name, why)) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|(n, _)| n != name));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let mut rec = Recorder::new(false);
        assert!(setup("nope", 1, &mut rec, &mut Ops::default()).is_none());
    }
}
