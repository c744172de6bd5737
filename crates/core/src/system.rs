//! The full-system simulator: cores, private L1s, shared LLC, auxiliary
//! tag stores, pollution filters, optional prefetchers, the DDR3 memory
//! system, and the quantum/epoch machinery of §4.
//!
//! # Structure of a cycle
//!
//! 1. At a quantum boundary (`now % Q == 0`), collect estimates from every
//!    estimator, apply the configured cache/memory mechanisms, record a
//!    [`QuantumRecord`], and reset per-quantum state.
//! 2. At an epoch boundary (`now % E == 0`), pick the epoch owner (uniform
//!    or slowdown-weighted) and give it highest priority at the memory
//!    controller.
//! 3. Tick the memory system; deliver completions (fill cores, emit
//!    [`MissEvent`]s, insert prefetched lines).
//! 4. Tick each active core; demand accesses traverse L1 → LLC → memory,
//!    updating the ATS/pollution filters and emitting
//!    [`AccessEvent`]s along the way.
//!
//! With `skip_mode` on, step 4 ticks only the cores that may issue this
//! cycle; the rest fall behind and are caught up (`Core::advance`) before
//! anything reads or touches them, and cycles on which nothing can touch
//! shared state are not executed at all (DESIGN.md §8, "Core-private
//! advance").


use asm_attrib::{Component, MemEpisode, QuantumLedger, RunAttrib, StallKind, COMPONENTS};
use asm_cache::{AuxiliaryTagStore, PollutionFilter, SetAssocCache, WayPartition};
use asm_cpu::{
    AdvanceObserver, AppProfile, Core, HeadStall, MemIssueResult, ProgressLog, StridePrefetcher,
};
use asm_dram::{Completion, MemRequest, MemorySystem};
use asm_simcore::persist::{ensure, PersistError};
use asm_simcore::{AppId, Cycle, DetHashMap, Histogram, LineAddr, SimRng};
use asm_telemetry::{names, CounterId, JsonValue, Registry, SeriesId, SeriesSet, Tracer};

use crate::config::{SystemConfig, ThrottlePolicy};
use crate::estimator::{
    AccessEvent, AsmEstimator, FstEstimator, MiseEstimator, MissEvent, PtcaEstimator, QuantumCtx,
    SlowdownEstimator, StfmEstimator, UnionTime,
};
use crate::mech::{self, BoundaryDecision, BoundaryInputs, BoundaryPolicies};

/// Sentinel for [`System::core_wake`]: the core is blocked on an external
/// completion and has no self-scheduled wake-up. Also the `synced` cycle
/// of a core that never runs and the epoch deadline when epochs are off.
const NEVER: Cycle = Cycle::MAX;

/// Per-application statistics accumulated over the current quantum; used
/// by the ASM-Cache/UCP/MCFQ mechanisms and exposed in [`QuantumRecord`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppQuantumStats {
    /// Demand accesses to the shared cache.
    pub accesses: u64,
    /// Shared-cache hits.
    pub hits: u64,
    /// Shared-cache misses.
    pub misses: u64,
    /// Cycles with at least one outstanding shared-cache hit.
    pub(crate) hit_time: UnionTime,
    /// Cycles with at least one outstanding miss.
    pub(crate) miss_time: UnionTime,
    /// Sum of concurrent-miss counts sampled at miss completions.
    pub mlp_sum: u64,
    /// Number of miss completions sampled.
    pub mlp_samples: u64,
}

impl AppQuantumStats {
    /// Average shared-cache hit service time this quantum (falls back to
    /// `default` when there were no hits).
    #[must_use]
    pub fn avg_hit_time(&self, default: f64) -> f64 {
        if self.hits > 0 {
            self.hit_time.total as f64 / self.hits as f64
        } else {
            default
        }
    }

    /// Average miss service time this quantum (falls back to `default`).
    #[must_use]
    pub fn avg_miss_time(&self, default: f64) -> f64 {
        if self.misses > 0 {
            self.miss_time.total as f64 / self.misses as f64
        } else {
            default
        }
    }

    /// Average memory-level parallelism observed at miss completions.
    #[must_use]
    pub fn avg_mlp(&self) -> f64 {
        if self.mlp_samples > 0 {
            self.mlp_sum as f64 / self.mlp_samples as f64
        } else {
            1.0
        }
    }
}

asm_simcore::persist_fields!(AppQuantumStats {
    accesses,
    hits,
    misses,
    hit_time,
    miss_time,
    mlp_sum,
    mlp_samples,
});

/// Everything the system learned in one quantum.
#[derive(Debug, Clone, Default)]
pub struct QuantumRecord {
    /// First cycle of the quantum.
    pub start_cycle: Cycle,
    /// One-past-last cycle of the quantum.
    pub end_cycle: Cycle,
    /// Per-application retired-instruction counts at the quantum start.
    pub retired_start: Vec<u64>,
    /// Per-application retired-instruction counts at the quantum end.
    pub retired_end: Vec<u64>,
    /// Measured `CAR_shared` per application (accesses / cycle).
    pub car_shared: Vec<f64>,
    /// Slowdown estimates per estimator: `(name, per-app estimates)`.
    pub estimates: Vec<(String, Vec<f64>)>,
    /// The way partition applied at the end of this quantum, if any.
    pub partition: Option<Vec<usize>>,
    /// ASM's `CAR_alone` estimates at this boundary (`None` when the ASM
    /// estimator is not instantiated).
    pub car_alone: Option<Vec<f64>>,
    /// Per-application `(ats_hits, ats_misses)` sampled by ASM over this
    /// quantum (empty when ASM is not instantiated).
    pub ats_samples: Vec<(u64, u64)>,
    /// Per-application DRAM bank-interference cycles accumulated from
    /// demand-miss completions during this quantum.
    pub interference_cycles: Vec<Cycle>,
}

impl QuantumRecord {
    /// The estimates of the named estimator, if present.
    #[must_use]
    pub fn estimates_of(&self, name: &str) -> Option<&[f64]> {
        self.estimates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Per-application IPC over this quantum.
    #[must_use]
    pub fn ipc_shared(&self) -> Vec<f64> {
        let cycles = (self.end_cycle - self.start_cycle) as f64;
        self.retired_start
            .iter()
            .zip(&self.retired_end)
            .map(|(s, e)| (e - s) as f64 / cycles)
            .collect()
    }

    /// Whether every per-application vector covers exactly `apps`
    /// applications (ATS samples may also be absent altogether).
    fn fits(&self, apps: usize) -> bool {
        self.retired_start.len() == apps
            && self.retired_end.len() == apps
            && self.car_shared.len() == apps
            && self.interference_cycles.len() == apps
            && self.estimates.iter().all(|(_, v)| v.len() == apps)
            && self.partition.as_ref().is_none_or(|p| p.len() == apps)
            && self.car_alone.as_ref().is_none_or(|v| v.len() == apps)
            && (self.ats_samples.is_empty() || self.ats_samples.len() == apps)
    }
}

asm_simcore::persist_fields!(QuantumRecord {
    start_cycle,
    end_cycle,
    retired_start,
    retired_end,
    car_shared,
    estimates,
    partition,
    car_alone,
    ats_samples,
    interference_cycles,
});

/// The completion tokens waiting on one in-flight miss. Nearly every miss
/// has exactly one waiter (merges are rare), so the first two tokens live
/// inline and only deeper merge chains pay for a heap allocation — the MSHR
/// is populated on every demand miss, making this a per-miss cost.
#[derive(Debug, Default)]
struct TokenList {
    inline: [u64; 2],
    len: u8,
    spill: Vec<u64>,
}

impl TokenList {
    fn one(token: u64) -> Self {
        TokenList {
            inline: [token, 0],
            len: 1,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, token: u64) {
        if usize::from(self.len) < self.inline.len() {
            self.inline[usize::from(self.len)] = token;
            self.len += 1;
        } else {
            self.spill.push(token);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &u64> {
        self.inline[..usize::from(self.len)].iter().chain(&self.spill)
    }

    fn check_restored(&self) -> Result<(), PersistError> {
        // The spill only ever holds what the inline slots had no room for.
        let inline = usize::from(self.len);
        ensure(
            inline == self.inline.len() || (inline < self.inline.len() && self.spill.is_empty()),
            "inline/spill layout",
        )
    }
}

asm_simcore::persist_fields!(TokenList { inline, len, spill } => TokenList::check_restored);

#[derive(Debug, Default)]
struct MissEntry {
    app: AppId,
    tokens: TokenList,
    prefetch: bool,
    epoch_owned: bool,
    ats_hit: Option<bool>,
    pollution_hit: bool,
    /// When a demand access merges into an in-flight *prefetch*, the merge
    /// context: the demand sees only the residual latency, and the miss
    /// event must reflect that short wait, not a full memory access.
    demand_merge: Option<DemandMerge>,
}

#[derive(Debug, Clone, Copy, Default)]
struct DemandMerge {
    arrival: Cycle,
    epoch_owned: bool,
    ats_hit: Option<bool>,
    pollution_hit: bool,
}

asm_simcore::persist_fields!(DemandMerge { arrival, epoch_owned, ats_hit, pollution_hit });
asm_simcore::persist_fields!(MissEntry {
    app,
    tokens,
    prefetch,
    epoch_owned,
    ats_hit,
    pollution_hit,
    demand_merge,
});

/// Cumulative per-application statistics over a whole run (see
/// [`System::app_summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSummary {
    /// Instructions retired.
    pub instructions: u64,
    /// Instructions per cycle over the run so far.
    pub ipc: f64,
    /// Demand accesses to the shared cache.
    pub llc_accesses: u64,
    /// Shared-cache hits.
    pub llc_hits: u64,
    /// Shared-cache misses.
    pub llc_misses: u64,
    /// Shared-cache misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Mean shared-cache access rate (accesses per cycle) — the CAR of
    /// §3.1.
    pub car: f64,
}

/// An explicit application specification for trace-driven workloads (see
/// [`System::from_specs`]).
#[derive(Debug)]
pub struct AppSpec {
    /// Display name.
    pub name: String,
    /// The access source driving the application's core.
    pub source: Box<dyn asm_cpu::AccessSource>,
    /// Probability that an instruction is a memory operation.
    pub mem_probability: f64,
    /// Outstanding-miss cap.
    pub mlp: u32,
}

/// Telemetry instruments owned by the system: the counter registry,
/// per-quantum series rings, the sim-time tracer, and the counter handles
/// held by the hot-path probe sites.
///
/// A disabled instance is constructed for every system; probe sites
/// execute the same indexed adds either way (the disabled registry
/// aliases them onto a scratch slot), so enabling telemetry cannot change
/// simulated behaviour — pinned by the experiments' differential tests.
#[derive(Debug)]
struct SysTelemetry {
    enabled: bool,
    registry: Registry,
    series: SeriesSet,
    tracer: Tracer,
    llc_hits: Vec<CounterId>,
    llc_misses: Vec<CounterId>,
    llc_evictions_caused: Vec<CounterId>,
    s_est: Vec<SeriesId>,
    s_car_shared: Vec<SeriesId>,
    s_car_alone: Vec<SeriesId>,
    s_ats_miss_rate: Vec<SeriesId>,
    s_interference: Vec<SeriesId>,
    /// Measured demand-miss memory latency buckets (for the stats-JSON
    /// p50/p95/p99 dump); only filled while enabled. Kept as raw integer
    /// bucket counts on the hot path — one read completion costs a
    /// divide-by-constant and an increment, no float conversion — and
    /// assembled into a [`Histogram`] at [`System::take_telemetry`] time.
    mem_lat_counts: Vec<u64>,
    mem_lat_overflow: u64,
}

/// Bucket geometry of [`SysTelemetry::mem_lat_counts`]: 50-cycle
/// buckets to 51 200 cycles. Queueing under heavy bank contention pushes
/// tail read latencies well past 4 000 cycles, and a p99 that lands in
/// the overflow bucket reports as unknown — so the range is sized for
/// the tail, not the median. Integer bucketing `latency / 50` matches
/// `(latency as f64 / 50.0) as usize` exactly: a cycle count below 2^53
/// converts exactly, and a quotient that is not a whole number is at
/// least 1/50 away from one — far outside f64 rounding error.
const MEM_HIST_BUCKET: u64 = 50;
const MEM_HIST_BUCKETS: usize = 1024;

impl SysTelemetry {
    fn new(n: usize, enabled: bool, trace_sample: Option<u64>) -> Self {
        let mut registry = if enabled {
            Registry::enabled()
        } else {
            Registry::disabled()
        };
        let mut series = if enabled {
            SeriesSet::enabled(asm_telemetry::DEFAULT_SERIES_CAPACITY)
        } else {
            SeriesSet::disabled()
        };
        let tracer = match trace_sample {
            Some(s) if enabled => Tracer::new(s),
            _ => Tracer::off(),
        };
        let per_app = |f: &mut dyn FnMut(usize) -> String| -> Vec<String> {
            (0..n).map(f).collect()
        };
        let reg =
            |r: &mut Registry, names: &[String]| names.iter().map(|s| r.register(s)).collect();
        let ser =
            |s: &mut SeriesSet, names: &[String]| names.iter().map(|n| s.register(n)).collect();
        SysTelemetry {
            enabled,
            llc_hits: reg(&mut registry, &per_app(&mut names::llc_app_hits)),
            llc_misses: reg(&mut registry, &per_app(&mut names::llc_app_misses)),
            llc_evictions_caused: reg(
                &mut registry,
                &per_app(&mut names::llc_app_evictions_caused),
            ),
            s_est: ser(&mut series, &per_app(&mut names::app_est_slowdown)),
            s_car_shared: ser(&mut series, &per_app(&mut names::app_car_shared)),
            s_car_alone: ser(&mut series, &per_app(&mut names::app_car_alone)),
            s_ats_miss_rate: ser(&mut series, &per_app(&mut names::app_ats_miss_rate)),
            s_interference: ser(&mut series, &per_app(&mut names::app_interference_cycles)),
            registry,
            series,
            tracer,
            mem_lat_counts: vec![0; MEM_HIST_BUCKETS],
            mem_lat_overflow: 0,
        }
    }

    /// Records one demand-read latency (hot path: integer ops only).
    #[inline]
    fn record_mem_latency(&mut self, cycles: u64) {
        let idx = (cycles / MEM_HIST_BUCKET) as usize;
        if let Some(c) = self.mem_lat_counts.get_mut(idx) {
            *c += 1;
        } else {
            self.mem_lat_overflow += 1;
        }
    }
}

// Counters, series rings and the memory-latency buckets. The tracer is
// deliberately left out: snapshots are only taken from runs with tracing
// off (checkpoint eligibility), so there is never trace state to carry.
asm_simcore::persist_fields!(SysTelemetry {
    (= enabled),
    registry,
    series,
    [mem_lat_counts],
    mem_lat_overflow,
});

/// Ground-truth cycle-attribution state: the [`RunAttrib`] ledger plus the
/// telemetry handles its per-quantum results are published through.
///
/// Boxed behind an `Option` on [`System`]: when attribution is off every
/// probe site is a single predictable `None` branch and no ledger memory
/// exists, so the attrib-off configuration stays byte-identical to builds
/// that predate the subsystem (pinned by the experiment differential
/// tests and the `attrib_overhead` bench).
#[derive(Debug)]
struct SysAttrib {
    run: RunAttrib,
    /// Cumulative per-component counters, app-major
    /// (`app_count × COMPONENTS`), registered as `attrib.app{i}.{name}`.
    c_components: Vec<CounterId>,
    /// Per-quantum blame series, victim-major (`app_count²`), registered
    /// as `attrib.app{v}.blame.app{o}`.
    s_blame: Vec<SeriesId>,
}

asm_simcore::persist_fields!(SysAttrib { run });

/// Maps the core's reported head state onto the ledger's stall taxonomy.
fn stall_kind(h: HeadStall) -> StallKind {
    match h {
        HeadStall::Progress => StallKind::Progress,
        HeadStall::HitWait => StallKind::HitWait,
        HeadStall::Backpressure => StallKind::Backpressure,
        HeadStall::MemStall => StallKind::MemStall,
    }
}

/// Everything telemetry collected over one run, detached from the system
/// so the harness can serialise it after the simulation is dropped (see
/// [`System::take_telemetry`]).
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Final counter/gauge snapshot, sorted by hierarchical name.
    pub counters: Vec<(String, u64)>,
    /// Per-quantum time series (estimated vs. actual slowdown, CARs,
    /// ATS miss rates, interference cycles).
    pub series: SeriesSet,
    /// The sim-time event trace (empty unless tracing was enabled).
    pub tracer: Tracer,
    /// Measured demand-miss memory latencies.
    pub mem_latency_hist: Histogram,
}

/// The simulated multi-core system.
///
/// # Examples
///
/// ```
/// use asm_core::{System, SystemConfig};
/// use asm_workloads::suite;
///
/// let mut config = SystemConfig::default();
/// config.quantum = 50_000;
/// config.epoch = 1_000;
/// let apps = vec![suite::by_name("libquantum_like").unwrap(); 2];
/// let mut sys = System::new(&apps, config);
/// sys.run_for(100_000);
/// assert_eq!(sys.records().len(), 2);
/// ```
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    app_names: Vec<String>,
    cores: Vec<Core>,
    l1s: Vec<SetAssocCache>,
    llc: SetAssocCache,
    ats: Vec<AuxiliaryTagStore>,
    pollution: Vec<PollutionFilter>,
    prefetchers: Vec<StridePrefetcher>,
    mem: MemorySystem,
    mshr: DetHashMap<u64, MissEntry>,
    estimators: Vec<Box<dyn SlowdownEstimator>>,
    qstats: Vec<AppQuantumStats>,
    records: Vec<QuantumRecord>,
    /// Cumulative (accesses, hits, misses) per app from *completed* quanta;
    /// `app_summary` adds the in-progress quantum on top.
    lifetime: Vec<(u64, u64, u64)>,
    progress: Vec<ProgressLog>,
    record_progress: bool,
    alone_miss_hist: Option<Histogram>,
    epoch_owner: Option<AppId>,
    epoch_weights: Vec<f64>,
    epoch_counter: u64,
    throttle: mech::throttle::ThrottleState,
    rng: SimRng,
    now: Cycle,
    next_req: u64,
    active_only: Option<AppId>,
    /// Cycles actually executed (ticked); with skip mode the rest of
    /// `now` was jumped over. Diagnostic for the throughput bench.
    executed_cycles: u64,
    /// Count of hierarchy mutations outside the memory system (LLC/MSHR
    /// changes); `hier_version + mem.mutation_count()` is the version the
    /// stall memo compares against (DESIGN.md §8).
    hier_version: u64,
    /// Per core: the hierarchy version at which its last issue attempt
    /// stalled. While the version is unchanged a re-attempt would stall
    /// identically with zero side effects, so the tick is elided.
    stall_memo: Vec<Option<u64>>,
    /// Per core: `Core::next_issue` as of its last real tick — a lower
    /// bound on the next cycle it can call `issue` (stall retries aside,
    /// which `stall_memo` covers). `NEVER` means not before an external
    /// completion. Every cycle before it is core-private and is replayed
    /// lazily (`synced`). Refreshed after every real tick, reset to
    /// "tick now" on completion delivery and at quantum boundaries
    /// (throttling can change the MLP cap). Skip mode only.
    core_wake: Vec<Cycle>,
    /// Per core: the first cycle whose tick has not been applied to the
    /// core yet. A core is caught up to `now` (`Core::advance`) before
    /// anything reads or touches it: its real tick, a completion
    /// delivery, a quantum boundary, and the return of every public
    /// entry point — so callers never see a stale core. `NEVER` for
    /// cores that never fall behind: those an alone run leaves idle and,
    /// with `skip_mode` off, all of them (the per-tick bookkeeping is
    /// measurable on `--no-skip` runs). Not checkpointed: snapshots are
    /// taken between public calls, where it equals `now`.
    synced: Vec<Cycle>,
    last_quantum_end: Cycle,
    /// The cycle the open quantum ends on (`last_quantum_end + quantum`)
    /// and the next epoch boundary (`NEVER` with epochs off), so the hot
    /// loop compares instead of dividing. Derived, not checkpointed.
    next_quantum_at: Cycle,
    next_epoch_at: Cycle,
    retired_at_quantum_start: Vec<u64>,
    dropped_writebacks: u64,
    completion_buf: Vec<Completion>,
    /// Per-app bank-interference cycles accumulated from miss completions
    /// this quantum (always on; folded into each [`QuantumRecord`]).
    quantum_interference: Vec<Cycle>,
    telemetry: SysTelemetry,
    /// Ground-truth cycle attribution; `None` (the default) keeps every
    /// probe site a single predictable branch.
    attrib: Option<Box<SysAttrib>>,
    /// Where ASM and FST sit in `estimators`, resolved at construction:
    /// the boundary feeds the mechanisms from these slots, never from a
    /// name lookup that a renamed estimator would silently miss.
    asm_idx: Option<usize>,
    fst_idx: Option<usize>,
    /// Policies of other configurations riding this trajectory, and what
    /// each decided at the most recent boundary (see
    /// [`System::set_sibling_policies`]). Observation only and transient:
    /// neither configuration nor checkpointed state.
    sibling_policies: Vec<BoundaryPolicies>,
    sibling_decisions: Vec<BoundaryDecision>,
}

impl System {
    /// Builds the system for a multi-programmed workload: one core per
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the configuration is inconsistent
    /// (see [`SystemConfig::validate`]).
    #[must_use]
    pub fn new(profiles: &[AppProfile], config: SystemConfig) -> Self {
        Self::build(profiles, config, None)
    }

    /// Builds an *alone-run* system: the same hardware and workload slots,
    /// but only `app`'s core executes. Address streams and seeds match the
    /// shared run exactly.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range or the configuration is invalid.
    #[must_use]
    pub fn new_alone(profiles: &[AppProfile], config: SystemConfig, app: AppId) -> Self {
        assert!(app.index() < profiles.len(), "alone app out of range");
        Self::build(profiles, config, Some(app))
    }

    /// Builds the system from explicit per-application specifications —
    /// the entry point for *trace-driven* workloads (each spec can carry a
    /// [`asm_cpu::TraceSource`] replaying a recorded access trace).
    ///
    /// Note: [`crate::Runner`] needs to re-create each application for its
    /// alone runs, which requires cloneable profiles; trace-driven systems
    /// are therefore driven directly via [`System`].
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or the configuration is invalid.
    #[must_use]
    pub fn from_specs(specs: Vec<AppSpec>, config: SystemConfig) -> Self {
        assert!(!specs.is_empty(), "need at least one application");
        let names = specs.iter().map(|s| s.name.clone()).collect();
        let cores = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                Core::from_source(
                    AppId::new(i),
                    spec.source,
                    spec.mem_probability,
                    spec.mlp,
                    config.seed,
                    asm_cpu::core::DEFAULT_WINDOW,
                    asm_cpu::core::DEFAULT_WIDTH,
                )
            })
            .collect();
        Self::assemble(names, cores, config, None)
    }

    fn build(profiles: &[AppProfile], config: SystemConfig, active_only: Option<AppId>) -> Self {
        assert!(!profiles.is_empty(), "need at least one application");
        let names = profiles.iter().map(|p| p.name().to_owned()).collect();
        let cores: Vec<Core> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| Core::new(AppId::new(i), p, config.seed))
            .collect();
        Self::assemble(names, cores, config, active_only)
    }

    fn assemble(
        app_names: Vec<String>,
        cores: Vec<Core>,
        config: SystemConfig,
        active_only: Option<AppId>,
    ) -> Self {
        config.validate();
        let n = cores.len();
        let l1s = (0..n)
            .map(|_| SetAssocCache::new(config.l1_geometry, 1))
            .collect();
        let llc = SetAssocCache::new(config.llc_geometry, n);
        let ats = (0..n)
            .map(|_| AuxiliaryTagStore::new(config.llc_geometry, config.ats_sampled_sets))
            .collect();
        let pollution = (0..n)
            .map(|_| PollutionFilter::new(config.pollution_filter_bits))
            .collect();
        let prefetchers = match config.prefetcher {
            Some(pc) => (0..n)
                .map(|_| StridePrefetcher::new(pc.degree, pc.distance))
                .collect(),
            None => Vec::new(),
        };
        let mem = MemorySystem::with_seed(
            config.dram.clone(),
            config.scheduler,
            n,
            config.seed ^ 0xD12A,
        );

        let sampling_factor = config
            .ats_sampled_sets
            .map_or(1.0, |s| config.llc_geometry.sets() as f64 / s as f64);
        let mut estimators: Vec<Box<dyn SlowdownEstimator>> = Vec::new();
        let asm_idx = config.estimators.asm.then_some(estimators.len());
        if asm_idx.is_some() {
            let mut asm = AsmEstimator::new(n, config.llc_latency, config.latency_hist);
            asm.set_queueing_correction(config.asm_queueing_correction);
            estimators.push(Box::new(asm));
        }
        let fst_idx = config.estimators.fst.then_some(estimators.len());
        if fst_idx.is_some() {
            estimators.push(Box::new(FstEstimator::new(
                n,
                config.llc_latency,
                config.latency_hist,
            )));
        }
        if config.estimators.ptca {
            estimators.push(Box::new(PtcaEstimator::new(
                n,
                config.llc_latency,
                sampling_factor,
                config.latency_hist,
            )));
        }
        if config.estimators.mise {
            estimators.push(Box::new(MiseEstimator::new(n)));
        }
        if config.estimators.stfm {
            estimators.push(Box::new(StfmEstimator::new(n)));
        }

        let progress = (0..n)
            .map(|_| ProgressLog::new(config.progress_interval))
            .collect();
        let rng = SimRng::seed_from(config.seed ^ 0xE90C);
        let alone_miss_hist = config.latency_hist.map(|(w, b)| Histogram::new(w, b));

        System {
            app_names,
            cores,
            l1s,
            llc,
            ats,
            pollution,
            prefetchers,
            mem,
            mshr: DetHashMap::default(),
            estimators,
            qstats: vec![AppQuantumStats::default(); n],
            records: Vec::new(),
            lifetime: vec![(0, 0, 0); n],
            progress,
            record_progress: false,
            alone_miss_hist,
            epoch_owner: None,
            epoch_weights: vec![1.0; n],
            epoch_counter: 0,
            throttle: mech::throttle::ThrottleState::new(n),
            rng,
            now: 0,
            next_req: 0,
            active_only,
            executed_cycles: 0,
            hier_version: 0,
            stall_memo: vec![None; n],
            core_wake: vec![0; n],
            synced: (0..n)
                .map(|i| {
                    let lazy = config.skip_mode && active_only.is_none_or(|a| a.index() == i);
                    if lazy { 0 } else { NEVER }
                })
                .collect(),
            last_quantum_end: 0,
            next_quantum_at: config.quantum,
            next_epoch_at: if config.epochs_enabled { 0 } else { NEVER },
            retired_at_quantum_start: vec![0; n],
            dropped_writebacks: 0,
            completion_buf: Vec::new(),
            quantum_interference: vec![0; n],
            telemetry: SysTelemetry::new(n, false, None),
            attrib: None,
            asm_idx,
            fst_idx,
            sibling_policies: Vec::new(),
            sibling_decisions: Vec::new(),
            config,
        }
    }

    /// Turns telemetry collection on (post-construction, like
    /// [`MemorySystem::enable_audit`], so configuration hashes and the
    /// alone-run cache are unaffected). `trace_sample` additionally
    /// enables the sim-time tracer, keeping 1-in-`n` request lifecycles.
    pub fn enable_telemetry(&mut self, trace_sample: Option<u64>) {
        self.telemetry = SysTelemetry::new(self.cores.len(), true, trace_sample);
    }

    /// Turns on ground-truth cycle attribution: every core cycle is
    /// classified into the [`Component`] ledger and interference cycles
    /// are blamed on their offender, per quantum (DESIGN.md §13).
    ///
    /// Call *after* [`enable_telemetry`](Self::enable_telemetry) if both
    /// are wanted — enabling telemetry replaces the registry, and this
    /// method registers the `attrib.*` counter/series families into the
    /// current one. Attribution alone (telemetry off) still maintains the
    /// ledger; the registrations then alias the disabled registry's
    /// scratch slot.
    pub fn enable_attribution(&mut self) {
        let n = self.cores.len();
        let reg = &mut self.telemetry.registry;
        let mut c_components = Vec::with_capacity(n * COMPONENTS);
        for i in 0..n {
            for comp in Component::ALL {
                c_components.push(reg.register(&names::attrib_component(i, comp.name())));
            }
        }
        let ser = &mut self.telemetry.series;
        let mut s_blame = Vec::with_capacity(n * n);
        for v in 0..n {
            for o in 0..n {
                s_blame.push(ser.register(&names::attrib_blame(v, o)));
            }
        }
        self.mem.enable_attribution();
        self.attrib = Some(Box::new(SysAttrib {
            run: RunAttrib::new(n),
            c_components,
            s_blame,
        }));
    }

    /// Whether ground-truth cycle attribution is being maintained.
    #[must_use]
    pub fn attribution_enabled(&self) -> bool {
        self.attrib.is_some()
    }

    /// The finalized per-quantum attribution ledgers (oldest first), or
    /// `None` when attribution was never enabled.
    #[must_use]
    pub fn attrib_quanta(&self) -> Option<&[QuantumLedger]> {
        self.attrib.as_deref().map(|a| a.run.quanta())
    }

    /// Whole-run component totals (`app_count × COMPONENTS`, app-major)
    /// over finalized quanta, or `None` when attribution is off.
    #[must_use]
    pub fn attrib_totals(&self) -> Option<Vec<Cycle>> {
        self.attrib.as_deref().map(|a| a.run.totals())
    }

    /// Whole-run app×app blame totals (victim-major) over finalized
    /// quanta, or `None` when attribution is off.
    #[must_use]
    pub fn attrib_blame_totals(&self) -> Option<Vec<Cycle>> {
        self.attrib.as_deref().map(|a| a.run.blame_totals())
    }

    /// Detaches everything telemetry collected, pulling end-of-run gauges
    /// (per-core retire/stall counts, per-bank DRAM row outcomes) into the
    /// counter snapshot first. Returns empty artefacts when telemetry was
    /// never enabled.
    pub fn take_telemetry(&mut self) -> RunTelemetry {
        if self.telemetry.enabled {
            let reg = &mut self.telemetry.registry;
            for (i, core) in self.cores.iter().enumerate() {
                reg.set_named(&names::core_rob_stalls(i), core.stall_episodes());
                reg.set_named(&names::core_retired(i), core.retired());
                reg.set_named(&names::core_mem_ops(i), core.mem_ops_issued());
            }
            let banks = self.config.dram.banks;
            for (flat, (hits, misses)) in self.mem.bank_row_outcomes().into_iter().enumerate() {
                let (ch, b) = (flat / banks, flat % banks);
                reg.set_named(&names::dram_bank_row_hits(ch, b), hits);
                reg.set_named(&names::dram_bank_row_misses(ch, b), misses);
            }
            reg.set_named(names::SYS_EXECUTED_CYCLES, self.executed_cycles);
            reg.set_named(names::SYS_DROPPED_WRITEBACKS, self.dropped_writebacks);
        }
        let tele = std::mem::replace(
            &mut self.telemetry,
            SysTelemetry::new(self.cores.len(), false, None),
        );
        RunTelemetry {
            counters: tele.registry.snapshot(),
            series: tele.series,
            tracer: tele.tracer,
            mem_latency_hist: Histogram::from_parts(
                MEM_HIST_BUCKET as f64,
                tele.mem_lat_counts,
                tele.mem_lat_overflow,
            ),
        }
    }

    /// Number of applications in the workload.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.cores.len()
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Profile names, indexed by application.
    #[must_use]
    pub fn app_names(&self) -> &[String] {
        &self.app_names
    }

    /// Completed quanta so far.
    #[must_use]
    pub fn records(&self) -> &[QuantumRecord] {
        &self.records
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Instructions retired by `app` so far.
    #[must_use]
    pub fn retired(&self, app: AppId) -> u64 {
        self.cores[app.index()].retired()
    }

    /// Enables per-cycle progress logging (used by alone runs).
    /// Milestones the cores have already passed are stamped with the
    /// current cycle.
    pub fn enable_progress_logging(&mut self) {
        self.record_progress = true;
        for i in 0..self.cores.len() {
            if self.is_active(i) {
                self.progress[i].record(self.cores[i].retired(), self.now);
            }
        }
    }

    /// The progress log for `app` (meaningful when progress logging was
    /// enabled).
    #[must_use]
    pub fn progress_log(&self, app: AppId) -> &ProgressLog {
        &self.progress[app.index()]
    }

    /// Writebacks dropped because a write queue was full (diagnostic; at
    /// sane configurations this stays zero or negligible).
    #[must_use]
    pub fn dropped_writebacks(&self) -> u64 {
        self.dropped_writebacks
    }

    /// Histogram of *measured* miss latencies (only collected when
    /// `latency_hist` is configured) — during an alone run this is the
    /// ground-truth alone miss-service-time distribution of Figure 6.
    #[must_use]
    pub fn measured_miss_latency_hist(&self) -> Option<&Histogram> {
        self.alone_miss_hist.as_ref()
    }

    /// The named estimator's alone-miss-latency histogram (Figure 6).
    #[must_use]
    pub fn estimator_latency_hist(&self, name: &str) -> Option<&Histogram> {
        self.estimators
            .iter()
            .find(|e| e.name() == name)
            .and_then(|e| e.miss_latency_histogram())
    }

    /// The shared-cache way partition currently in force.
    #[must_use]
    pub fn current_partition(&self) -> Option<&WayPartition> {
        self.llc.partition()
    }

    /// Registers the boundary policies of *sibling* configurations: ones
    /// that differ from this system's only in those policies and have
    /// shared its trajectory so far. From now on every quantum boundary
    /// also evaluates each sibling's policies on its own inputs
    /// ([`sibling_decisions`](Self::sibling_decisions)); a sibling whose
    /// decision equals this system's stays on the trajectory for another
    /// quantum, the others diverge here (DESIGN.md §11). Evaluation is
    /// pure, so siblings never change what is simulated. The list is not
    /// checkpointed and survives a restore; decisions of an earlier
    /// boundary are dropped.
    pub fn set_sibling_policies(&mut self, siblings: Vec<BoundaryPolicies>) {
        self.sibling_policies = siblings;
        self.sibling_decisions.clear();
    }

    /// What each registered sibling decided at the most recent quantum
    /// boundary, in registration order; empty until a boundary fires
    /// after [`set_sibling_policies`](Self::set_sibling_policies).
    #[must_use]
    pub fn sibling_decisions(&self) -> &[BoundaryDecision] {
        &self.sibling_decisions
    }

    /// Cumulative statistics for `app` over the whole run so far.
    ///
    /// # Examples
    ///
    /// ```
    /// use asm_core::{System, SystemConfig};
    /// use asm_simcore::AppId;
    /// use asm_workloads::suite;
    ///
    /// let mut config = SystemConfig::default();
    /// config.quantum = 50_000;
    /// config.epoch = 1_000;
    /// let apps = vec![suite::by_name("mcf_like").unwrap()];
    /// let mut sys = System::new(&apps, config);
    /// sys.run_for(100_000);
    /// let s = sys.app_summary(AppId::new(0));
    /// assert!(s.ipc > 0.0);
    /// assert_eq!(s.llc_accesses, s.llc_hits + s.llc_misses);
    /// ```
    #[must_use]
    pub fn app_summary(&self, app: AppId) -> AppSummary {
        let i = app.index();
        let (mut accesses, mut hits, mut misses) = self.lifetime[i];
        accesses += self.qstats[i].accesses;
        hits += self.qstats[i].hits;
        misses += self.qstats[i].misses;
        let instructions = self.cores[i].retired();
        let cycles = self.now.max(1) as f64;
        AppSummary {
            instructions,
            ipc: instructions as f64 / cycles,
            llc_accesses: accesses,
            llc_hits: hits,
            llc_misses: misses,
            llc_mpki: if instructions > 0 {
                misses as f64 * 1_000.0 / instructions as f64
            } else {
                0.0
            },
            car: accesses as f64 / cycles,
        }
    }

    /// Runs the simulation for `cycles` cycles. A quantum that completes
    /// exactly at the end of the run is finalised before returning.
    ///
    /// With [`SystemConfig::skip_mode`] on (the default), cycles on which
    /// no component can change state are jumped over in one clock
    /// adjustment; the result is bitwise-identical to stepping every
    /// cycle (DESIGN.md §8 "Fast-forward without nondeterminism").
    pub fn run_for(&mut self, cycles: Cycle) {
        self.run_until(self.now + cycles);
        if self.now == self.next_quantum_at {
            self.end_quantum(self.now);
        }
    }

    /// Runs for `cycles` cycles like [`run_for`](Self::run_for), but
    /// leaves a quantum that completes exactly at the end *unfinalised*:
    /// the boundary work (estimates, mechanisms, record, reset) fires as
    /// the first step of whatever continues the run — under *that* run's
    /// policies. `run_prefix(q)` + [`crate::checkpoint::capture`], then
    /// [`crate::checkpoint::resume`] + `run_for(c - q)`, is
    /// bitwise-identical to a straight `run_for(c)`; and because the
    /// cache/memory/throttle policies act only inside the quantum
    /// boundary, configurations differing only in those share one prefix
    /// trajectory.
    pub fn run_prefix(&mut self, cycles: Cycle) {
        self.run_until(self.now + cycles);
    }

    /// The loop behind [`run_for`](Self::run_for) and
    /// [`run_prefix`](Self::run_prefix): executes the cycles on which
    /// something touches the hierarchy, jumps the rest, and leaves every
    /// core caught up to `end`.
    fn run_until(&mut self, end: Cycle) {
        while self.now < end {
            self.step_lazy();
            if self.config.skip_mode {
                // Cycle `now - 1` was executed and every component is now
                // quiescent until its next event; jump straight there.
                let next = self.next_event_cycle(self.now - 1);
                if next > self.now {
                    self.now = next.min(end);
                }
            }
        }
        self.sync_cores(end);
    }

    /// The earliest cycle after `executed` at which anything can touch
    /// *shared* state: a core issuing to the hierarchy, a memory
    /// completion / scheduler retry / refresh, or a quantum/epoch
    /// boundary (boundaries run estimator, mechanism and RNG work and
    /// must fire on their exact cycle). What cores do privately in
    /// between (retire, fetch, progress milestones, ledger cycles) is
    /// replayed when they are next caught up.
    fn next_event_cycle(&self, executed: Cycle) -> Cycle {
        let mut next = self.next_quantum_at.min(self.next_epoch_at);
        if let Some(m) = self.mem.next_event(executed) {
            next = next.min(m);
        }
        // `core_wake` holds each core's `next_issue` as of its last real
        // tick (nothing has touched the core since, so it still holds).
        // `NEVER` = waiting on a completion, which is itself a memory
        // event already folded above.
        for (i, &w) in self.core_wake.iter().enumerate() {
            if w != NEVER && self.is_active(i) {
                next = next.min(w);
            }
        }
        // Prefetchers and the MSHR are purely reactive (demand-path and
        // completion-path respectively): no autonomous wake-ups to fold.
        next.max(executed + 1)
    }

    /// Cycles on which the hierarchy was actually ticked; in skip mode
    /// the difference to [`now`](Self::now) is the fast-forwarded dead
    /// time.
    #[must_use]
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        self.step_lazy();
        self.sync_cores(self.now);
    }

    /// Executes cycle `now`. In skip mode only the cores that may touch
    /// the hierarchy are ticked; the others fall behind (`synced`) until
    /// something needs them.
    fn step_lazy(&mut self) {
        let now = self.now;
        self.executed_cycles += 1;
        if now == self.next_quantum_at {
            self.end_quantum(now);
        }
        if now == self.next_epoch_at {
            self.begin_epoch(now);
            self.next_epoch_at = now + self.config.epoch;
        }
        self.tick_hierarchy(now);
        self.now = now + 1;
    }

    /// Replays every core's private cycles up to (not including) `upto`.
    fn sync_cores(&mut self, upto: Cycle) {
        let mut lazy = LazyCores {
            cores: &mut self.cores,
            synced: &mut self.synced,
            wake: &mut self.core_wake,
            progress: self.record_progress.then_some(&mut self.progress[..]),
        };
        let mut attrib = self.attrib.as_deref_mut().map(|a| &mut a.run);
        for idx in 0..lazy.cores.len() {
            lazy.catch_up(idx, upto, attrib.as_deref_mut());
        }
    }

    fn is_active(&self, idx: usize) -> bool {
        self.active_only.is_none_or(|a| a.index() == idx)
    }

    /// Picks the epoch owner (§4.2: probabilistic assignment; §7.2:
    /// slowdown-proportional under ASM-Mem) and applies memory priority.
    // asm-lint: allow(R9): epoch boundary — runs once per epoch_cycles
    // (default 100k), not per cycle; trace args may allocate
    fn begin_epoch(&mut self, now: Cycle) {
        let owner = if let Some(active) = self.active_only {
            // Alone runs: the single application always has priority (it is
            // alone anyway; this keeps queueing accounting consistent).
            Some(active)
        } else {
            match self.config.epoch_assignment {
                crate::config::EpochAssignment::Probabilistic => {
                    self.rng.pick_weighted(&self.epoch_weights).map(AppId::new)
                }
                crate::config::EpochAssignment::RoundRobin => {
                    Some(AppId::new((self.epoch_counter as usize) % self.cores.len()))
                }
            }
        };
        self.epoch_counter += 1;
        self.epoch_owner = owner;
        self.mem.set_priority_app(now, owner);
        for est in &mut self.estimators {
            est.on_epoch_start(now, owner);
        }
        if self.telemetry.tracer.is_enabled() {
            let (tid, args) = match owner {
                Some(a) => (
                    a.index() as u64,
                    vec![("owner".to_owned(), JsonValue::num_u64(a.index() as u64))],
                ),
                None => (0, vec![("owner".to_owned(), JsonValue::Null)]),
            };
            self.telemetry
                .tracer
                .instant("epoch_owner", "sched", now, tid, args);
        }
    }

    /// Finalises the quantum ending at `now`: estimates, mechanisms,
    /// record, reset.
    // asm-lint: allow(R9): quantum boundary — runs once per quantum
    // (default 5M cycles); estimator/mechanism bookkeeping may allocate
    fn end_quantum(&mut self, now: Cycle) {
        // The boundary reads retired counts, may move MLP caps and closes
        // the ledger quantum: every core must have lived through `now - 1`.
        self.sync_cores(now);
        self.last_quantum_end = now;
        self.next_quantum_at = now + self.config.quantum;
        let n = self.cores.len();
        let q = self.config.quantum;

        let queueing: Vec<Cycle> = (0..n)
            .map(|i| self.mem.queueing_cycles(AppId::new(i)))
            .collect();
        let ctx = QuantumCtx {
            now,
            quantum: q,
            epoch: self.config.epoch,
            queueing_cycles: &queueing,
            llc_latency: self.config.llc_latency,
        };
        let estimates: Vec<(String, Vec<f64>)> = self
            .estimators
            .iter_mut()
            .map(|e| (e.name().to_owned(), e.on_quantum_end(&ctx)))
            .collect();

        let asm = self.asm_idx.map(|i| estimates[i].1.clone());
        let asm_est = self.asm_idx.map(|i| &self.estimators[i]);
        let car_alone = asm_est.and_then(|e| e.car_alone().map(<[f64]>::to_vec));
        let ats_samples: Vec<(u64, u64)> = asm_est
            .and_then(|e| e.ats_sample_counts().map(<[(u64, u64)]>::to_vec))
            .unwrap_or_default();

        // The boundary policies: this system's own and, on the same
        // inputs, those of any siblings a campaign planner registered.
        let inputs = BoundaryInputs {
            ats: &self.ats,
            qstats: &self.qstats,
            asm_estimates: asm.as_deref(),
            car_alone: car_alone.as_deref(),
            quantum: q,
            llc_latency: self.config.llc_latency,
            ways: self.llc.geometry().ways(),
        };
        let BoundaryDecision {
            partition,
            epoch_weights,
            throttle,
        } = mech::decide(BoundaryPolicies::of(&self.config), &inputs);
        self.sibling_decisions = self
            .sibling_policies
            .iter()
            .map(|&p| mech::decide(p, &inputs))
            .collect();

        // Cache mechanism.
        if let Some(p) = &partition {
            self.llc.set_partition(Some(p.clone()));
        }

        // Memory (epoch-weight) mechanism.
        self.epoch_weights = epoch_weights;

        // Source throttling (FST's actuator): prefers FST's own estimates,
        // falling back to ASM's when FST is not instantiated.
        if let ThrottlePolicy::Fst {
            unfairness_threshold,
        } = throttle
        {
            let slowdowns = self
                .fst_idx
                .or(self.asm_idx)
                .map_or_else(|| vec![1.0; n], |i| estimates[i].1.clone());
            self.throttle.update(&slowdowns, unfairness_threshold);
            for (i, core) in self.cores.iter_mut().enumerate() {
                let cap = self.throttle.mlp_cap(i, core.base_mlp());
                core.set_mlp_throttle(Some(cap));
            }
        }

        // Record.
        let retired_end: Vec<u64> = self.cores.iter().map(Core::retired).collect();
        let car_shared: Vec<f64> = self
            .qstats
            .iter()
            .map(|s| s.accesses as f64 / q as f64)
            .collect();

        // Telemetry series + trace for this boundary (no-ops when off).
        if self.telemetry.series.is_enabled() {
            for i in 0..n {
                if let Some(asm) = &asm {
                    self.telemetry
                        .series
                        .push(self.telemetry.s_est[i], now, asm[i]);
                }
                self.telemetry
                    .series
                    .push(self.telemetry.s_car_shared[i], now, car_shared[i]);
                if let Some(ca) = &car_alone {
                    self.telemetry
                        .series
                        .push(self.telemetry.s_car_alone[i], now, ca[i]);
                }
                if let Some(&(h, m)) = ats_samples.get(i) {
                    if h + m > 0 {
                        self.telemetry.series.push(
                            self.telemetry.s_ats_miss_rate[i],
                            now,
                            m as f64 / (h + m) as f64,
                        );
                    }
                }
                self.telemetry.series.push(
                    self.telemetry.s_interference[i],
                    now,
                    self.quantum_interference[i] as f64,
                );
            }
        }
        if self.telemetry.tracer.is_enabled() {
            self.telemetry.tracer.complete(
                "quantum",
                "quantum",
                now - q,
                q,
                0,
                vec![(
                    "index".to_owned(),
                    JsonValue::num_u64(self.records.len() as u64),
                )],
            );
            if let Some(p) = &partition {
                let ways: Vec<JsonValue> = p
                    .as_slice()
                    .iter()
                    .map(|&w| JsonValue::num_u64(w as u64))
                    .collect();
                self.telemetry.tracer.instant(
                    "repartition",
                    "sched",
                    now,
                    0,
                    vec![("ways".to_owned(), JsonValue::Arr(ways))],
                );
            }
        }

        self.records.push(QuantumRecord {
            start_cycle: now - q,
            end_cycle: now,
            retired_start: self.retired_at_quantum_start.clone(),
            retired_end: retired_end.clone(),
            car_shared,
            estimates,
            partition: partition.as_ref().map(|p| p.as_slice().to_vec()),
            car_alone,
            ats_samples,
            interference_cycles: std::mem::replace(&mut self.quantum_interference, vec![0; n]),
        });
        self.retired_at_quantum_start = retired_end;

        // Ground-truth attribution: close the ledger quantum and publish
        // it through telemetry. The DRAM blame counters are read *without*
        // advancing the lazy channel accounting — advancing here would
        // split the §4.3 fractional-queueing f64 accruals at different
        // points than an attrib-off run (float addition is not
        // associative), breaking the attrib-on-vs-off byte-identity of
        // estimator output. The deterministic staleness only smears blame
        // *weights* into the next quantum; ledger totals are exact.
        if let Some(att) = self.attrib.as_deref_mut() {
            let mut cum = vec![0; n * n * 3];
            self.mem.attrib_blame_into(n, &mut cum);
            let ql = att.run.end_quantum(now, &cum);
            for v in 0..n {
                for (k, comp) in Component::ALL.iter().enumerate() {
                    self.telemetry
                        .registry
                        .add(att.c_components[v * COMPONENTS + k], ql.component(v, *comp));
                }
                if self.telemetry.series.is_enabled() {
                    for o in 0..n {
                        self.telemetry.series.push(
                            att.s_blame[v * n + o],
                            now,
                            ql.blamed(v, o) as f64,
                        );
                    }
                }
            }
        }

        // Reset per-quantum state (folding it into lifetime totals first).
        for (life, s) in self.lifetime.iter_mut().zip(&self.qstats) {
            life.0 += s.accesses;
            life.1 += s.hits;
            life.2 += s.misses;
        }
        for s in &mut self.qstats {
            let mut hit_time = s.hit_time;
            let mut miss_time = s.miss_time;
            hit_time.reset();
            miss_time.reset();
            *s = AppQuantumStats {
                hit_time,
                miss_time,
                ..AppQuantumStats::default()
            };
        }
        for a in &mut self.ats {
            a.reset_counters();
        }
        for p in &mut self.pollution {
            p.clear();
        }
        self.mem.reset_queueing_cycles();
        // Throttling may have changed MLP caps (and the partition the
        // stall answers): cached wake-ups are stale, re-examine everyone.
        self.core_wake.fill(0);
    }

    /// The estimator set, as names: a snapshot restores only into a
    /// system instantiating the same estimators in the same order.
    fn estimator_names(&self) -> Vec<String> {
        self.estimators.iter().map(|e| e.name().to_owned()).collect()
    }

    /// What the field list cannot see: application indices and per-app
    /// shapes against this system's application count, and the state
    /// derived from what was restored.
    fn check_restored(&mut self) -> Result<(), PersistError> {
        let n = self.cores.len();
        ensure(
            self.epoch_owner.is_none_or(|a| a.index() < n)
                && self.mshr.values().all(|e| e.app.index() < n),
            "app index out of range",
        )?;
        ensure(
            self.records.iter().all(|rec| rec.fits(n)),
            "record per-app length mismatch",
        )?;
        // Snapshots are taken between public calls, where every core that
        // can fall behind is caught up to `now`.
        for s in self.synced.iter_mut().filter(|s| **s != NEVER) {
            *s = self.now;
        }
        let next_epoch_at = if self.config.epochs_enabled {
            self.now.checked_next_multiple_of(self.config.epoch)
        } else {
            Some(NEVER)
        };
        let (Some(next_quantum_at), Some(next_epoch_at)) = (
            self.last_quantum_end.checked_add(self.config.quantum),
            next_epoch_at,
        ) else {
            return Err(PersistError::Corrupt("cycle out of range".to_owned()));
        };
        self.next_quantum_at = next_quantum_at;
        self.next_epoch_at = next_epoch_at;
        Ok(())
    }

    /// One cycle of memory + cores.
    fn tick_hierarchy(&mut self, now: Cycle) {
        let System {
            config,
            cores,
            l1s,
            llc,
            ats,
            pollution,
            prefetchers,
            mem,
            mshr,
            estimators,
            qstats,
            epoch_owner,
            next_req,
            dropped_writebacks,
            alone_miss_hist,
            completion_buf,
            active_only,
            hier_version,
            stall_memo,
            core_wake,
            synced,
            progress,
            record_progress,
            quantum_interference,
            telemetry,
            attrib,
            ..
        } = self;

        let mut hier = Hier {
            config,
            l1s,
            llc,
            ats,
            pollution,
            prefetchers,
            mem,
            mshr,
            estimators,
            qstats,
            epoch_owner: *epoch_owner,
            next_req,
            dropped_writebacks,
            alone_miss_hist,
            version: hier_version,
            quantum_interference,
            telemetry,
            attrib,
        };

        let mut lazy = LazyCores {
            cores,
            synced,
            wake: core_wake,
            progress: record_progress.then_some(&mut progress[..]),
        };

        // Memory tick + completions.
        completion_buf.clear();
        hier.mem.tick(now, completion_buf);
        for c in completion_buf.drain(..) {
            hier.handle_completion(now, &c, &mut lazy);
        }

        // Core ticks.
        for idx in 0..lazy.cores.len() {
            if let Some(a) = active_only {
                if a.index() != idx {
                    continue;
                }
            }
            let app = AppId::new(idx);
            if hier.config.skip_mode {
                if lazy.wake[idx] > now {
                    // `core_wake` says the core cannot issue before that
                    // cycle, and no completion has been delivered since
                    // it was cached — so whatever this tick does is
                    // core-private and is replayed when the core is next
                    // caught up. The one exception is a core whose last
                    // issue attempt stalled: its retry is elided only
                    // while the hierarchy version is unchanged (it would
                    // return the same Stall with zero side effects).
                    // Either way the cycle-mode trajectory is preserved
                    // bit for bit.
                    match stall_memo[idx] {
                        None => continue,
                        Some(v) if v == *hier.version + hier.mem.mutation_count() => continue,
                        Some(_) => {}
                    }
                }
                lazy.catch_up(idx, now, hier.attrib.as_deref_mut().map(|a| &mut a.run));
            }
            let core = &mut lazy.cores[idx];
            let retired_before = core.retired();
            let mut stalled_at = None;
            core.tick(now, &mut |line, is_write| {
                let r = hier.issue(now, app, line, is_write);
                if matches!(r, MemIssueResult::Stall) {
                    stalled_at = Some(*hier.version + hier.mem.mutation_count());
                }
                r
            });
            stall_memo[idx] = stalled_at;
            if let Some(p) = lazy.progress.as_deref_mut() {
                p[idx].record(core.retired(), now);
            }
            if let Some(att) = hier.attrib.as_deref_mut() {
                let progressed = core.retired() > retired_before;
                let head = stall_kind(core.head_stall(now));
                att.run.on_tick(idx, now, progressed, head);
            }
            if hier.config.skip_mode {
                lazy.synced[idx] = now + 1;
                lazy.wake[idx] = core.next_issue(now).unwrap_or(NEVER);
            }
        }
    }
}

// The complete dynamic simulation state. Everything derivable from the
// configuration (geometries, policies, counter registrations) is
// structural: the restore target is constructed from the same
// configuration and workload, and continuing it is bitwise-identical to
// continuing the system that was saved. `synced`, the boundary deadlines
// and the sibling observers are derived or transient and stay out.
asm_simcore::persist_fields!(System {
    [cores],
    (= active_only),
    [l1s],
    llc,
    [ats],
    [pollution],
    [prefetchers],
    mem,
    mshr,
    (= estimator_names()),
    [estimators],
    [qstats],
    records,
    [lifetime],
    [progress],
    [alone_miss_hist],
    epoch_owner,
    [epoch_weights],
    epoch_counter,
    throttle,
    rng,
    now,
    next_req,
    executed_cycles,
    hier_version,
    [stall_memo],
    [core_wake],
    last_quantum_end,
    [retired_at_quantum_start],
    dropped_writebacks,
    [quantum_interference],
    telemetry,
    [attrib],
} => System::check_restored);

/// The cores with their lazy-advance bookkeeping, borrowed next to
/// [`Hier`] for one cycle (see `System::synced`).
struct LazyCores<'a> {
    cores: &'a mut [Core],
    synced: &'a mut [Cycle],
    wake: &'a mut [Cycle],
    /// The progress logs, when progress logging is on.
    progress: Option<&'a mut [ProgressLog]>,
}

impl LazyCores<'_> {
    /// Brings core `idx` up to `upto` if it has fallen behind.
    #[inline]
    fn catch_up(&mut self, idx: usize, upto: Cycle, attrib: Option<&mut RunAttrib>) {
        if self.synced[idx] < upto {
            self.replay(idx, upto, attrib);
        }
    }

    /// Replays core `idx`'s private cycles `synced[idx]..upto`, feeding
    /// the progress log and the attribution ledger what those ticks
    /// would have fed them.
    fn replay(&mut self, idx: usize, upto: Cycle, attrib: Option<&mut RunAttrib>) {
        let from = self.synced[idx];
        let core = &mut self.cores[idx];
        let progress = self.progress.as_deref_mut().map(|p| &mut p[idx]);
        if progress.is_none() && attrib.is_none() {
            core.advance(from, upto, &mut ());
        } else {
            let mut obs = CoreObserver {
                app: idx,
                progress,
                attrib,
            };
            core.advance(from, upto, &mut obs);
        }
        self.synced[idx] = upto;
    }
}

/// Feeds one core's replayed ticks to whichever per-tick consumers are
/// switched on.
struct CoreObserver<'a> {
    app: usize,
    progress: Option<&'a mut ProgressLog>,
    attrib: Option<&'a mut RunAttrib>,
}

impl AdvanceObserver for CoreObserver<'_> {
    fn on_tick(&mut self, now: Cycle, retired: u64, progressed: bool, head: HeadStall) {
        if let Some(p) = self.progress.as_deref_mut() {
            p.record(retired, now);
        }
        if let Some(a) = self.attrib.as_deref_mut() {
            a.on_tick(self.app, now, progressed, stall_kind(head));
        }
    }

    fn on_progress_span(
        &mut self,
        start: Cycle,
        ticks: u64,
        retired_before: u64,
        per_tick: u64,
        head: HeadStall,
    ) {
        if let Some(p) = self.progress.as_deref_mut() {
            p.record_ramp(retired_before, start, ticks, per_tick);
        }
        if let Some(a) = self.attrib.as_deref_mut() {
            a.on_progress_span(self.app, start, ticks, stall_kind(head));
        }
    }
}

/// The memory-hierarchy context used during one cycle's core ticks; split
/// out of [`System`] so core ticks can borrow cores and the hierarchy
/// disjointly.
struct Hier<'a> {
    config: &'a SystemConfig,
    l1s: &'a mut Vec<SetAssocCache>,
    llc: &'a mut SetAssocCache,
    ats: &'a mut Vec<AuxiliaryTagStore>,
    pollution: &'a mut Vec<PollutionFilter>,
    prefetchers: &'a mut Vec<StridePrefetcher>,
    mem: &'a mut MemorySystem,
    mshr: &'a mut DetHashMap<u64, MissEntry>,
    estimators: &'a mut Vec<Box<dyn SlowdownEstimator>>,
    qstats: &'a mut Vec<AppQuantumStats>,
    epoch_owner: Option<AppId>,
    next_req: &'a mut u64,
    dropped_writebacks: &'a mut u64,
    alone_miss_hist: &'a mut Option<Histogram>,
    /// Bumped on every mutation of the LLC/MSHR state that a stalled
    /// core's retry decision can observe; see `System::stall_memo`.
    version: &'a mut u64,
    quantum_interference: &'a mut Vec<Cycle>,
    telemetry: &'a mut SysTelemetry,
    attrib: &'a mut Option<Box<SysAttrib>>,
}

impl Hier<'_> {
    fn fresh_id(&mut self) -> u64 {
        *self.next_req += 1;
        *self.next_req
    }

    /// Handles a finished DRAM read: fill waiters, emit the miss event,
    /// insert prefetched lines.
    fn handle_completion(
        &mut self,
        now: Cycle,
        c: &Completion,
        lazy: &mut LazyCores<'_>,
    ) {
        let Some(entry) = self.mshr.remove(&c.line.raw()) else {
            return; // e.g. a dropped-writeback artefact; cannot happen for reads
        };
        *self.version += 1;
        // The delivery reads and changes the core: bring it up to `now`.
        let owner = entry.app.index();
        lazy.catch_up(owner, now, self.attrib.as_deref_mut().map(|a| &mut a.run));
        let core = &mut lazy.cores[owner];
        // Ground-truth attribution: if this completion unblocks the waiting
        // core's reorder-buffer head, close the pending memory-stall episode
        // with this request's cause accounting — before delivery below
        // retires the head and the blocking token disappears.
        let mut stall_span = None;
        if let Some(att) = self.attrib.as_deref_mut() {
            if let Some(bt) = core.blocking_token() {
                if entry.tokens.iter().any(|&t| t == bt) {
                    let pollution = if entry.prefetch {
                        entry.demand_merge.as_ref().is_some_and(|m| m.pollution_hit)
                    } else {
                        entry.pollution_hit
                    };
                    let ep = MemEpisode {
                        service: c.finish - c.service_start,
                        cause: c.cause,
                        induced: c.induced,
                        induced_by: c.induced_by.map(|a| a.index()),
                        pollution,
                    };
                    stall_span = att.run.on_blocking_completion(owner, now, &ep);
                }
            }
        }
        if let Some((start, len)) = stall_span {
            self.trace_stall(entry.app, c, start, len);
        }
        for token in entry.tokens.iter() {
            core.complete(*token, c.finish);
        }
        // The delivery may retire the head or free MLP: tick the core
        // this cycle instead of trusting its cached wake-up.
        lazy.wake[owner] = now;
        if entry.prefetch {
            // Fill the prefetched line into the shared cache now, and
            // mirror the fill into the ATS (the alone run prefetches the
            // same stream); demand counters are not touched.
            let out = self.llc.access(c.line, entry.app, false);
            self.handle_llc_eviction(entry.app, out.eviction, now);
            self.ats[entry.app.index()].touch(c.line);
            // A demand access that merged into this prefetch experienced
            // only the residual latency; report that short miss.
            let Some(merge) = entry.demand_merge else {
                return;
            };
            self.emit_demand_miss(
                entry.app,
                c,
                merge.arrival,
                merge.epoch_owned,
                merge.ats_hit,
                merge.pollution_hit,
            );
            return;
        }
        self.emit_demand_miss(
            entry.app,
            c,
            c.arrival,
            entry.epoch_owned,
            entry.ats_hit,
            entry.pollution_hit,
        );
    }

    /// Records a finished demand miss: quantum stats, the measured-latency
    /// histogram, and the estimator event.
    #[allow(clippy::too_many_arguments)]
    fn emit_demand_miss(
        &mut self,
        app: AppId,
        c: &Completion,
        arrival: Cycle,
        epoch_owned: bool,
        ats_hit: Option<bool>,
        pollution_hit: bool,
    ) {
        let stats = &mut self.qstats[app.index()];
        stats.miss_time.add(arrival, c.finish);
        let concurrent = self.mem.outstanding_reads(app) + 1;
        stats.mlp_sum += concurrent;
        stats.mlp_samples += 1;
        if let Some(h) = self.alone_miss_hist {
            h.add((c.finish - arrival) as f64);
        }
        let interference = c.interference_cycles.min(c.finish - arrival);
        self.quantum_interference[app.index()] += interference;
        if self.telemetry.enabled {
            self.telemetry.record_mem_latency(c.finish - arrival);
        }
        self.trace_mem_read(app, c, arrival, interference);
        let epoch_end = if epoch_owned {
            (arrival / self.config.epoch + 1) * self.config.epoch
        } else {
            Cycle::MAX
        };
        let ev = MissEvent {
            app,
            line: c.line,
            arrival,
            finish: c.finish,
            interference_cycles: interference,
            concurrent_misses: concurrent,
            epoch_owned_at_issue: epoch_owned,
            epoch_end,
            was_ats_hit: ats_hit,
            pollution_hit,
        };
        for est in self.estimators.iter_mut() {
            est.on_miss_complete(&ev);
        }
    }

    /// Emits the sampled `mem_read` span for a finished demand miss.
    // asm-lint: allow(R9): sampled-trace emission — gated on
    // `sample_request`, so it allocates only for traced requests when
    // the opt-in tracer is attached
    fn trace_mem_read(&mut self, app: AppId, c: &Completion, arrival: Cycle, interference: u64) {
        if self.telemetry.tracer.sample_request(c.id) {
            self.telemetry.tracer.complete(
                "mem_read",
                "mem",
                arrival,
                c.finish - arrival,
                app.index() as u64,
                vec![
                    ("interference".to_owned(), JsonValue::num_u64(interference)),
                    ("row_hit".to_owned(), JsonValue::Bool(c.row_hit)),
                ],
            );
        }
    }

    /// Emits the sampled starvation span for a resolved memory-stall
    /// episode (attribution runs only): the interval the app's head was
    /// pinned on one request, with the request's interference context.
    // asm-lint: allow(R9): sampled-trace emission — gated on
    // `sample_request`, so it allocates only for traced requests when
    // the opt-in tracer is attached
    fn trace_stall(&mut self, app: AppId, c: &Completion, start: Cycle, len: Cycle) {
        if self.telemetry.tracer.sample_request(c.id) {
            self.telemetry.tracer.complete(
                "mem_stall",
                "attrib",
                start,
                len,
                app.index() as u64,
                vec![
                    (
                        "interference".to_owned(),
                        JsonValue::num_u64(c.interference_cycles),
                    ),
                    ("row_hit".to_owned(), JsonValue::Bool(c.row_hit)),
                ],
            );
        }
    }

    /// Side effects of an LLC insertion's eviction: pollution-filter update
    /// when another application caused the eviction, and a writeback when
    /// the line was dirty.
    fn handle_llc_eviction(
        &mut self,
        inserter: AppId,
        eviction: Option<asm_cache::EvictedLine>,
        now: Cycle,
    ) {
        let Some(ev) = eviction else { return };
        if ev.owner != inserter {
            self.pollution[ev.owner.index()].insert(ev.line);
            self.telemetry
                .registry
                .add(self.telemetry.llc_evictions_caused[inserter.index()], 1);
            if let Some(att) = self.attrib.as_deref_mut() {
                att.run.on_eviction(ev.owner.index(), inserter.index());
            }
        }
        if ev.dirty {
            let id = self.fresh_id();
            let req = MemRequest::write(id, ev.line, ev.owner, now);
            if self.mem.enqueue(req).is_err() {
                *self.dropped_writebacks += 1;
            }
        }
    }

    /// The full demand-access path: L1 → LLC → memory.
    fn issue(&mut self, now: Cycle, app: AppId, line: LineAddr, is_write: bool) -> MemIssueResult {
        let a = app.index();

        // Private L1 (single-scan hit path).
        if self.l1s[a].touch(line, is_write).is_some() {
            return MemIssueResult::Completed(now + self.config.l1_latency);
        }

        // L1 miss. Before mutating anything, make sure a memory request
        // could be issued if needed (otherwise stall the core).
        let llc_line = self.llc.find(line);
        let merged = self.mshr.contains_key(&line.raw());
        if llc_line.is_none() && !merged && !self.mem.can_accept_read(line) {
            return MemIssueResult::Stall;
        }
        *self.version += 1;

        // Commit the L1 fill (allocate-on-miss) and push any dirty victim
        // down to the LLC (or memory if not resident there). The `touch`
        // above established absence, so the fill skips the residency scan.
        let l1_victim = self.l1s[a].insert_absent(line, app, is_write);
        if let Some(victim) = l1_victim {
            if victim.dirty {
                if self.llc.touch(victim.line, true).is_some() {
                    // Resident in the LLC: absorbed as a write hit.
                } else {
                    let id = self.fresh_id();
                    let req = MemRequest::write(id, victim.line, victim.owner, now);
                    if self.mem.enqueue(req).is_err() {
                        *self.dropped_writebacks += 1;
                    }
                }
            }
        }

        // Demand access to the shared cache (this is the access CAR
        // counts). The stall check already located the line, and its
        // handle survives the victim writeback above (a promotion never
        // moves line payloads), so hit and miss take single-scan paths.
        let ats_out = self.ats[a].access(line);
        let llc_out = if let Some(handle) = llc_line {
            let pos = self.llc.promote(handle, is_write);
            asm_cache::AccessOutcome {
                hit: true,
                hit_recency: Some(pos),
                eviction: None,
            }
        } else {
            asm_cache::AccessOutcome {
                hit: false,
                hit_recency: None,
                eviction: self.llc.insert_absent(line, app, is_write),
            }
        };
        let pollution_hit = !llc_out.hit && self.pollution[a].probably_contains(line);
        self.handle_llc_eviction(app, llc_out.eviction, now);

        let stats = &mut self.qstats[a];
        stats.accesses += 1;
        if llc_out.hit {
            stats.hits += 1;
            stats.hit_time.add(now, now + self.config.llc_latency);
            self.telemetry.registry.add(self.telemetry.llc_hits[a], 1);
        } else {
            stats.misses += 1;
            self.telemetry.registry.add(self.telemetry.llc_misses[a], 1);
        }

        let event = AccessEvent {
            now,
            app,
            line,
            llc_hit: llc_out.hit,
            ats: ats_out,
            pollution_hit,
            epoch_owner: self.epoch_owner,
            is_write,
        };
        for est in self.estimators.iter_mut() {
            est.on_access(&event);
        }

        // The prefetcher observes the demand stream; its prefetches are
        // issued only after the demand request claims its queue slot, so
        // prefetch traffic can never invalidate the capacity check above.
        let prefetches = if self.prefetchers.is_empty() {
            Vec::new()
        } else {
            self.prefetchers[a].observe(line)
        };

        let result = if llc_out.hit {
            MemIssueResult::Completed(now + self.config.llc_latency)
        } else if self.mshr.contains_key(&line.raw()) {
            // Merge into the outstanding request for this line. If that
            // request is a prefetch, remember the demand context so the
            // residual wait is reported as a (short) miss.
            let epoch_owned = self.epoch_owner == Some(app);
            let token = if is_write {
                None
            } else {
                Some(self.fresh_id())
            };
            let entry = self.mshr.get_mut(&line.raw()).expect("checked above");
            if entry.prefetch && entry.demand_merge.is_none() {
                entry.demand_merge = Some(DemandMerge {
                    arrival: now,
                    epoch_owned,
                    ats_hit: ats_out.map(|o| o.hit),
                    pollution_hit,
                });
            }
            match token {
                Some(token) => {
                    entry.tokens.push(token);
                    MemIssueResult::Pending(token)
                }
                None => MemIssueResult::Completed(now + 1),
            }
        } else {
            let id = self.fresh_id();
            let tokens = if is_write {
                TokenList::default()
            } else {
                TokenList::one(id)
            };
            self.mshr.insert(
                line.raw(),
                MissEntry {
                    app,
                    tokens,
                    prefetch: false,
                    epoch_owned: self.epoch_owner == Some(app),
                    ats_hit: ats_out.map(|o| o.hit),
                    pollution_hit,
                    demand_merge: None,
                },
            );
            self.mem
                .enqueue(MemRequest::read(id, line, app, now))
                .expect("capacity was checked before mutation");
            if is_write {
                MemIssueResult::Completed(now + 1)
            } else {
                MemIssueResult::Pending(id)
            }
        };

        for pline in prefetches {
            self.maybe_prefetch(now, app, pline);
        }
        result
    }

    /// Issues a prefetch for `line` if it is absent everywhere and the
    /// memory system has room. The ATS is updated when the fill completes
    /// (see `handle_completion`), keeping its state aligned with the
    /// shared cache's actual contents.
    fn maybe_prefetch(&mut self, now: Cycle, app: AppId, line: LineAddr) {
        if self.llc.probe(line)
            || self.mshr.contains_key(&line.raw())
            || !self.mem.can_accept_read(line)
        {
            return;
        }
        *self.version += 1;
        let id = self.fresh_id();
        self.mshr.insert(
            line.raw(),
            MissEntry {
                app,
                tokens: TokenList::default(),
                prefetch: true,
                epoch_owned: false,
                ats_hit: None,
                pollution_hit: false,
                demand_merge: None,
            },
        );
        self.mem
            .enqueue(MemRequest::prefetch(id, line, app, now))
            .expect("capacity was checked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CachePolicy, EstimatorSet, MemPolicy};
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
            suite::by_name("libquantum_like").unwrap(),
            suite::by_name("h264ref_like").unwrap(),
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
        // The registry agrees with the system's own accounting.
        let s0 = sys.app_summary(AppId::new(0));
        assert_eq!(get("llc.app0.hits"), s0.llc_hits);
        assert_eq!(get("llc.app0.misses"), s0.llc_misses);
        assert_eq!(get("core1.retired"), sys.retired(AppId::new(1)));
        assert_eq!(get("sys.executed_cycles"), sys.executed_cycles());

        // Per-quantum series sampled at each boundary.
        let est = t.series.id_of("app0.est_slowdown").expect("series exists");
        let samples = t.series.samples(est);
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

        // The ledger is republished through telemetry: per-component
        // counters match the totals and every blame series is sampled at
        // each quantum boundary.
        let t = sys.take_telemetry();
        let get = |name: &str| {
            t.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        for v in 0..2 {
            for comp in Component::ALL {
                assert_eq!(
                    get(&names::attrib_component(v, comp.name())),
                    totals[v * COMPONENTS + comp.index()],
                );
            }
        }
        let s = t
            .series
            .id_of("attrib.app0.blame.app1")
            .expect("blame series registered");
        assert_eq!(t.series.samples(s).len(), 3);
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
    fn estimator_handles_follow_the_estimator_set() {
        // The mechanisms read ASM and FST through indices resolved at
        // construction; whatever else is instantiated around them, the
        // handles must land on those two estimators.
        for bits in 0u8..32 {
            let mut cfg = small_config();
            cfg.estimators = crate::config::EstimatorSet {
                asm: bits & 1 != 0,
                fst: bits & 2 != 0,
                ptca: bits & 4 != 0,
                mise: bits & 8 != 0,
                stfm: bits & 16 != 0,
            };
            let sys = System::new(&two_apps(), cfg.clone());
            let name_at = |idx: Option<usize>| idx.map(|i| sys.estimators[i].name());
            assert_eq!(name_at(sys.asm_idx), cfg.estimators.asm.then_some("ASM"));
            assert_eq!(name_at(sys.fst_idx), cfg.estimators.fst.then_some("FST"));
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
        let mut r = asm_simcore::persist::StateReader::new(bytes, "test-system", 1).unwrap();
        sys.restore(&mut r).unwrap();
        r.finish().unwrap();
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
        let err = other.restore(&mut r).expect_err("two estimators are not six");
        assert!(
            err.to_string().starts_with("corrupt: System.estimator_names: stored [\"ASM\", \"FST\""),
            "{err}"
        );

        // Wrong application count: the first structural field says so.
        let mut wide = System::new(&[two_apps(), two_apps()].concat(), small_config());
        let mut r = asm_simcore::persist::StateReader::new(&snap, "test-system", 1).unwrap();
        let err = wide.restore(&mut r).expect_err("two cores are not four");
        assert_eq!(err.to_string(), "corrupt: System.cores: stored length 2, target 4");

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
        assert!(sys.estimator_latency_hist("ASM").is_some());
        assert!(sys.estimator_latency_hist("FST").unwrap().total() > 0);
    }
}
