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
//!    [`MissEvent`](crate::estimator::MissEvent)s, insert prefetched
//!    lines).
//! 4. Tick each active core; demand accesses traverse L1 → LLC → memory,
//!    updating the ATS/pollution filters and emitting
//!    [`AccessEvent`](crate::estimator::AccessEvent)s along the way.
//!
//! With `skip_mode` on, step 4 ticks only the cores that may issue this
//! cycle; the rest fall behind and are caught up (`Core::advance`) before
//! anything reads or touches them, and cycles on which nothing can touch
//! shared state are not executed at all (DESIGN.md §8, "Core-private
//! advance").
//!
//! # Who owns what
//!
//! ```text
//! System               run loop and boundary state: clock, deadlines, records, epoch
//! │                    weights and RNG, throttle levels, stall memo, sibling policies
//! ├─ lazy: LazyCores   cores, wake-ups, progress logs; `synced` (derived)
//! └─ hier: Hierarchy   caches, ATS, pollution filters, prefetchers, MemorySystem, MSHR,
//!    │                 estimators, qstats, epoch owner, request ids, stall-memo version
//!    └─ probes: Probes tracer, attribution ledger, latency tallies, the telemetry view
//! ```
//!
//! Each owner persists through its own `persist_fields!` list, nested the
//! same way. A cycle borrows `lazy` and `hier` side by side: a core tick
//! calls `hier.issue`, a completion delivery `lazy.catch_up`. `Probes`
//! alone builds and switches instruments and renders the telemetry view;
//! everything else reports events to it unconditionally. It lends the
//! ledger (`probes.ledger()`) to `LazyCores` whenever core ticks are
//! executed or replayed — per-tick head states are facts only `cores.rs`
//! sees. Derived and un-persisted: `synced` and the boundary deadlines
//! (`check_restored` rebuilds them), the sibling observers and the
//! completion buffer.

mod boundary;
mod cores;
mod hierarchy;
mod probes;
#[cfg(test)]
mod tests;

use asm_attrib::QuantumLedger;
use asm_cache::WayPartition;
use asm_cpu::{AppProfile, Core, ProgressLog};
use asm_dram::Completion;
use asm_simcore::persist::{ensure, PersistError};
use asm_simcore::{AppId, Cycle, Histogram, SimRng};

use crate::config::{CachePolicy, SystemConfig};
use crate::estimator::UnionTime;
use crate::mech::{self, BoundaryDecision, BoundaryPolicies};
use cores::{LazyCores, NEVER};
use hierarchy::Hierarchy;

pub use probes::RunTelemetry;

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

    /// The ATS miss rate ASM sampled for `app` over this quantum; `None`
    /// without ASM or without a sampled access.
    #[must_use]
    pub fn ats_miss_rate(&self, app: usize) -> Option<f64> {
        let &(hits, misses) = self.ats_samples.get(app)?;
        (hits + misses > 0).then(|| misses as f64 / (hits + misses) as f64)
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
    lazy: LazyCores,
    hier: Hierarchy,
    records: Vec<QuantumRecord>,
    /// Cumulative (accesses, hits, misses) per app from *completed* quanta;
    /// `app_summary` adds the in-progress quantum on top.
    lifetime: Vec<(u64, u64, u64)>,
    epoch_weights: Vec<f64>,
    epoch_counter: u64,
    throttle: mech::throttle::ThrottleState,
    rng: SimRng,
    now: Cycle,
    active_only: Option<AppId>,
    /// Cycles actually executed (ticked); with skip mode the rest of
    /// `now` was jumped over. Diagnostic for the throughput bench.
    executed_cycles: u64,
    /// Per core: the hierarchy version (`Hierarchy::stall_version`) at
    /// which its last issue attempt stalled. While the version is
    /// unchanged a re-attempt would stall identically with zero side
    /// effects, so the tick is elided.
    stall_memo: Vec<Option<u64>>,
    /// The cycle the open quantum ends on (one quantum past the last
    /// record) and the next epoch boundary (`NEVER` with epochs off), so
    /// the hot loop compares instead of dividing. Derived, not
    /// checkpointed.
    next_quantum_at: Cycle,
    next_epoch_at: Cycle,
    completion_buf: Vec<Completion>,
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
    /// Panics if `profiles` is empty, the configuration is inconsistent
    /// (see [`SystemConfig::validate`]), or a way-partitioning cache
    /// policy is given more applications than the LLC has ways.
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
        // The look-ahead partitioners reserve one way per application;
        // reject the geometry here rather than panic at the first boundary.
        let ways = config.llc_geometry.ways();
        assert!(
            n <= ways || matches!(config.cache_policy, CachePolicy::None | CachePolicy::NaiveQos(_)),
            "cache policy {:?} gives every application at least one LLC way: \
             {n} applications do not fit in {ways} ways",
            config.cache_policy
        );

        System {
            app_names,
            lazy: LazyCores {
                // Cores fall behind only in skip mode, and only those that run.
                synced: (0..n)
                    .map(|i| config.skip_mode && active_only.is_none_or(|a| a.index() == i))
                    .map(|lazy| if lazy { 0 } else { NEVER })
                    .collect(),
                wake: vec![0; n],
                progress: vec![ProgressLog::new(config.progress_interval); n],
                record_progress: false,
                cores,
            },
            hier: Hierarchy::new(&config, n),
            records: Vec::new(),
            lifetime: vec![(0, 0, 0); n],
            epoch_weights: vec![1.0; n],
            epoch_counter: 0,
            throttle: mech::throttle::ThrottleState::new(n),
            rng: SimRng::seed_from(config.seed ^ 0xE90C),
            now: 0,
            active_only,
            executed_cycles: 0,
            stall_memo: vec![None; n],
            next_quantum_at: config.quantum,
            next_epoch_at: if config.epochs_enabled { 0 } else { NEVER },
            completion_buf: Vec::new(),
            sibling_policies: Vec::new(),
            sibling_decisions: Vec::new(),
            config,
        }
    }

    /// Turns telemetry on (post-construction, like
    /// [`asm_dram::MemorySystem::enable_audit`], so configuration hashes
    /// and the alone-run cache are unaffected): the next
    /// [`take_telemetry`](Self::take_telemetry) renders the whole run so
    /// far, whenever this was called. `trace_sample` additionally starts
    /// the sim-time tracer, keeping 1-in-`n` request lifecycles — the one
    /// instrument that only sees what happens after it is switched on.
    pub fn enable_telemetry(&mut self, trace_sample: Option<u64>) {
        self.hier.probes.enable_telemetry(trace_sample);
    }

    /// Turns on ground-truth cycle attribution: every core cycle is
    /// classified into the [`asm_attrib::Component`] ledger and
    /// interference cycles are blamed on their offender, per quantum
    /// (DESIGN.md §13). The ledger is read through
    /// [`attrib_quanta`](Self::attrib_quanta) and its totals; it is not
    /// part of the telemetry view.
    pub fn enable_attribution(&mut self) {
        self.hier.mem.enable_attribution();
        self.hier.probes.enable_attribution();
    }

    /// Whether ground-truth cycle attribution is being maintained.
    #[must_use]
    pub fn attribution_enabled(&self) -> bool {
        self.hier.probes.attribution().is_some()
    }

    /// The finalized per-quantum attribution ledgers (oldest first), or
    /// `None` when attribution was never enabled.
    #[must_use]
    pub fn attrib_quanta(&self) -> Option<&[QuantumLedger]> {
        self.hier.probes.attribution().map(|a| a.quanta())
    }

    /// Whole-run component totals (`app_count × COMPONENTS`, app-major)
    /// over finalized quanta, or `None` when attribution is off.
    #[must_use]
    pub fn attrib_totals(&self) -> Option<Vec<Cycle>> {
        self.hier.probes.attribution().map(|a| a.totals())
    }

    /// Whole-run app×app blame totals (victim-major) over finalized
    /// quanta, or `None` when attribution is off.
    #[must_use]
    pub fn attrib_blame_totals(&self) -> Option<Vec<Cycle>> {
        self.hier.probes.attribution().map(|a| a.blame_totals())
    }

    /// Renders the run so far as telemetry — counters and series derived
    /// from the quantum records, lifetime cache totals, component gauges
    /// (per-core retire/stall counts, per-bank DRAM row outcomes) —
    /// detaches the trace, and leaves telemetry off. Returns empty
    /// artefacts when telemetry is not on.
    pub fn take_telemetry(&mut self) -> RunTelemetry {
        let llc = (0..self.app_count()).map(|i| {
            let s = self.app_summary(AppId::new(i));
            (s.llc_hits, s.llc_misses)
        });
        let sim = probes::Recorded {
            records: &self.records,
            asm: self.hier.estimators.asm().is_some(),
            llc: llc.collect(),
            cores: &self.lazy.cores,
            mem: &self.hier.mem,
            banks_per_channel: self.config.dram.banks,
            executed_cycles: self.executed_cycles,
            dropped_writebacks: self.hier.dropped_writebacks,
        };
        self.hier.probes.take_telemetry(&sim)
    }

    /// Number of applications in the workload.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.lazy.cores.len()
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
        self.lazy.cores[app.index()].retired()
    }

    /// Enables per-cycle progress logging (used by alone runs).
    /// Milestones the cores have already passed are stamped with the
    /// current cycle.
    pub fn enable_progress_logging(&mut self) {
        self.lazy.record_progress = true;
        for i in 0..self.app_count() {
            if self.is_active(i) {
                self.lazy.progress[i].record(self.lazy.cores[i].retired(), self.now);
            }
        }
    }

    /// The progress log for `app` (meaningful when progress logging was
    /// enabled).
    #[must_use]
    pub fn progress_log(&self, app: AppId) -> &ProgressLog {
        &self.lazy.progress[app.index()]
    }

    /// Writebacks dropped because a write queue was full (diagnostic; at
    /// sane configurations this stays zero or negligible).
    #[must_use]
    pub fn dropped_writebacks(&self) -> u64 {
        self.hier.dropped_writebacks
    }

    /// Histogram of *measured* miss latencies (only collected when
    /// `latency_hist` is configured) — during an alone run this is the
    /// ground-truth alone miss-service-time distribution of Figure 6.
    #[must_use]
    pub fn measured_miss_latency_hist(&self) -> Option<&Histogram> {
        self.hier.probes.measured_miss_latency_hist()
    }

    /// The estimators' alone-miss-latency histograms (Figure 6), named
    /// and in report order.
    pub fn estimator_latency_hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.hier.estimators.latency_hists()
    }

    /// The shared-cache way partition currently in force.
    #[must_use]
    pub fn current_partition(&self) -> Option<&WayPartition> {
        self.hier.llc.partition()
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
        let open = &self.hier.qstats[i];
        accesses += open.accesses;
        hits += open.hits;
        misses += open.misses;
        let instructions = self.retired(app);
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
        if let Some(m) = self.hier.mem.next_event(executed) {
            next = next.min(m);
        }
        // `wake` holds each core's `next_issue` as of its last real tick
        // (nothing has touched the core since, so it still holds).
        // `NEVER` = waiting on a completion, which is itself a memory
        // event already folded above.
        for (i, &w) in self.lazy.wake.iter().enumerate() {
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
        self.tick(now);
        self.now = now + 1;
    }

    /// Replays every core's private cycles up to (not including) `upto`.
    fn sync_cores(&mut self, upto: Cycle) {
        for idx in 0..self.lazy.cores.len() {
            self.lazy.catch_up(idx, upto, self.hier.probes.ledger());
        }
    }

    fn is_active(&self, idx: usize) -> bool {
        self.active_only.is_none_or(|a| a.index() == idx)
    }

    /// One cycle of memory + cores.
    fn tick(&mut self, now: Cycle) {
        let System {
            config,
            lazy,
            hier,
            completion_buf,
            active_only,
            stall_memo,
            ..
        } = self;

        // Memory tick + completions.
        completion_buf.clear();
        hier.mem.tick(now, completion_buf);
        for c in completion_buf.drain(..) {
            hier.handle_completion(now, &c, lazy);
        }

        // Core ticks.
        for idx in 0..lazy.cores.len() {
            if active_only.is_some_and(|a| a.index() != idx) {
                continue;
            }
            if config.skip_mode {
                if lazy.wake[idx] > now {
                    // `wake` says the core cannot issue before that
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
                        Some(v) if v == hier.stall_version() => continue,
                        Some(_) => {}
                    }
                }
                lazy.catch_up(idx, now, hier.probes.ledger());
            }
            stall_memo[idx] = lazy.tick(idx, now, hier);
            if config.skip_mode {
                lazy.synced[idx] = now + 1;
                lazy.wake[idx] = lazy.cores[idx].next_issue(now).unwrap_or(NEVER);
            }
        }
    }

    /// What the field lists cannot see: per-app record shapes against
    /// this system's application count, and the state derived from what
    /// was restored.
    fn check_restored(&mut self) -> Result<(), PersistError> {
        let n = self.app_count();
        ensure(
            self.records.iter().all(|rec| rec.fits(n)),
            "record per-app length mismatch",
        )?;
        // Snapshots are taken between public calls, where every core that
        // can fall behind is caught up to `now`.
        for s in self.lazy.synced.iter_mut().filter(|s| **s != NEVER) {
            *s = self.now;
        }
        let out_of_range = || PersistError::Corrupt("cycle out of range".to_owned());
        let last_quantum_end = self.records.last().map_or(0, |rec| rec.end_cycle);
        self.next_quantum_at = last_quantum_end
            .checked_add(self.config.quantum)
            .ok_or_else(out_of_range)?;
        self.next_epoch_at = if self.config.epochs_enabled {
            let next = self.now.checked_next_multiple_of(self.config.epoch);
            next.ok_or_else(out_of_range)?
        } else {
            NEVER
        };
        Ok(())
    }
}

// The complete dynamic simulation state, nested as it is owned.
// Everything derivable from the configuration (geometries, policies) is
// structural: the restore target is constructed from the same
// configuration and workload, and continuing it is bitwise-identical to
// continuing the system that was saved. The boundary deadlines and the
// sibling observers are derived or transient and stay out.
asm_simcore::persist_fields!(System {
    (= active_only), lazy, hier, records, [lifetime], [epoch_weights], epoch_counter,
    throttle, rng, now, executed_cycles, [stall_memo],
} => System::check_restored);
