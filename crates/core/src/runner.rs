//! The experiment runner: pairs a shared run with per-application alone
//! runs to compute ground-truth slowdowns (§5, Metrics).
//!
//! "Actual slowdown" for a quantum is `IPC_alone / IPC_shared` *for the
//! same amount of work*: the alone-run cycle cost of the instruction window
//! the shared run retired in that quantum, read off the alone run's
//! [`asm_cpu::ProgressLog`].
//!
//! Alone runs are cached in an [`AloneCache`] keyed by
//! `(profile, slot, alone machine, horizon)`, so sweeping many shared
//! workloads that reuse applications does not repeat alone simulations,
//! and neither does sweeping configurations that differ only in what an
//! alone run cannot read ([`checkpoint::alone_config`]).
//! The cache is thread-safe and can be shared across [`Runner`]s — the parallel
//! experiment harness hands one cache to every worker so concurrent
//! workloads never repeat an alone simulation either.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_attrib::QuantumLedger;
use asm_cpu::{AppProfile, ProgressLog};
use asm_simcore::hash::DetHasher;
use asm_simcore::persist::{Persist, PersistError, StateReader, StateWriter};
use asm_simcore::{AppId, Cycle, Histogram};
use asm_telemetry::names;

use crate::checkpoint;
use crate::config::SystemConfig;
use crate::system::{RunTelemetry, System};

/// One quantum's estimates and ground truth.
#[derive(Debug, Clone, Default)]
pub struct QuantumResult {
    /// Slowdown estimates per estimator `(name, per-app)`.
    pub estimates: Vec<(String, Vec<f64>)>,
    /// Measured slowdown per application (NaN when the application retired
    /// nothing in the quantum).
    pub actual: Vec<f64>,
    /// Measured `CAR_shared` per application.
    pub car_shared: Vec<f64>,
    /// Way partition applied at this quantum's end, if any.
    pub partition: Option<Vec<usize>>,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Profile names per application slot.
    pub app_names: Vec<String>,
    /// Per-quantum results.
    pub quanta: Vec<QuantumResult>,
    /// Whole-run measured slowdown per application (alone cycles for the
    /// total work divided by total shared cycles).
    pub whole_run_slowdowns: Vec<f64>,
    /// Measured alone miss-latency distribution, merged over applications
    /// (present when `latency_hist` is configured).
    pub alone_latency_hist: Option<Histogram>,
    /// Estimated alone miss-latency distributions per estimator, from the
    /// shared run.
    pub estimator_latency_hists: Vec<(String, Histogram)>,
    /// Counter/series/trace artefacts (`Some` only when the run was made
    /// with [`RunOptions::telemetry`]; alone runs are never instrumented).
    pub telemetry: Option<RunTelemetry>,
    /// Ground-truth cycle attribution (`Some` only when the run was made
    /// with [`RunOptions::attrib`]; alone runs never attribute — there is
    /// no co-runner to blame).
    pub attribution: Option<RunAttribution>,
}

/// The ground-truth attribution artefacts of one shared run: every
/// finalized quantum's ledger/blame matrix plus whole-run totals.
#[derive(Debug, Clone)]
pub struct RunAttribution {
    /// Per-quantum ledgers, oldest first; each row sums exactly to the
    /// quantum length.
    pub quanta: Vec<QuantumLedger>,
    /// Whole-run component totals, app-major
    /// (`app_count × asm_attrib::COMPONENTS`).
    pub totals: Vec<Cycle>,
    /// Whole-run app×app blame totals, victim-major.
    pub blame: Vec<Cycle>,
}

impl RunResult {
    /// Names of the estimators present in this run.
    #[must_use]
    pub fn estimator_names(&self) -> Vec<String> {
        self.quanta
            .first()
            .map(|q| q.estimates.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default()
    }
}

#[derive(Clone)]
struct AloneRecord {
    progress: Arc<ProgressLog>,
    latency_hist: Option<Histogram>,
}

impl Default for AloneRecord {
    /// The blank a cache load fills in.
    fn default() -> Self {
        AloneRecord {
            progress: Arc::new(ProgressLog::new(1)),
            latency_hist: None,
        }
    }
}

// The progress log and the histogram validate themselves on restore
// (positive interval, monotonic milestones, positive bucket width).
asm_simcore::persist_fields!(AloneRecord { progress, latency_hist });

/// Cache key: `(slot, fingerprint, horizon)`. The fingerprint folds
/// [`config_hash`] of the alone machine ([`checkpoint::alone_config`])
/// with the profile's complete parameters, name included
/// ([`checkpoint::mix_fingerprint`]), so entries for different hardware,
/// seeds, or profiles that merely share a name never collide, while
/// configurations that differ only in observers, policies, Q or E share
/// one entry. A persisted cache from a different machine is silently —
/// and correctly — never hit. The horizon is part of the key because a
/// record is not a prefix of a longer one: its latency histogram covers
/// the whole run, and its progress log extrapolates past its last
/// milestone where a longer log interpolates.
type AloneKey = (usize, u64, Cycle);

/// Deterministic 64-bit fingerprint of a [`SystemConfig`], derived from
/// its complete `Debug` rendering: any field change (including added
/// fields) changes the hash.
///
/// The rendering is frozen, not just this function: the sampled tier
/// seeds its k-means selection from this hash, and
/// `tests/sampled_gate.rs` holds at that one seed only. Prefixing the
/// hashed bytes with a single `u64` moved the gate's figure-metric
/// geomean from 4.19% to 5.02% (gate 5%) and its per-app geomean from
/// 5.47% to 8.95% (gate 8%), so any change to `SystemConfig`'s `Debug`
/// output fails CI until the gate holds across seeds (ROADMAP 11, 16).
#[must_use]
pub fn config_hash(config: &SystemConfig) -> u64 {
    use std::hash::Hasher as _;
    let mut h = DetHasher::default();
    h.write(format!("{config:?}").as_bytes());
    h.finish()
}

/// A thread-safe cache of alone runs, shareable across [`Runner`]s (and
/// across the threads of the parallel experiment harness).
///
/// Determinism argument: every entry is a pure function of its key — an
/// alone run has no cross-application state, and the key names its
/// horizon — and an entry, once in, is never replaced. So the cache's
/// contents cannot depend on lock acquisition order: threads racing on
/// the same key at worst duplicate one alone simulation; they can never
/// observe different results, and only the first of them adds a record.
///
/// The cache travels whole as one persist envelope
/// ([`ALONE_CACHE_FORMAT`]): `--checkpoint-dir`'s alone store.
#[derive(Debug, Default)]
pub struct AloneCache {
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned lock in simulation code: it guards a deterministic memo table (see the type docs), so lock order can change timing but never simulated results"
    )]
    inner: std::sync::Mutex<BTreeMap<AloneKey, AloneRecord>>,
}

impl AloneCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached alone runs. Records are only ever added, so what
    /// `len` grows by over a campaign is the alone runs it simulated
    /// (`alone_runs=` on its `campaign:` line).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned (a thread panicked while
    /// holding it — impossible short of allocation failure, since no user
    /// code runs under the lock).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<AloneKey, AloneRecord>> {
        self.inner
            .lock()
            .expect("alone-cache lock is never poisoned: no user code runs under it")
    }

    fn get(&self, key: &AloneKey) -> Option<AloneRecord> {
        self.lock().get(key).cloned()
    }

    /// Inserts `rec` unless `key` already has an entry; returns the
    /// entry either way.
    fn insert_or_keep(&self, key: AloneKey, rec: AloneRecord) -> AloneRecord {
        self.lock().entry(key).or_insert(rec).clone()
    }
}

impl Persist for AloneCache {
    fn save(&self, w: &mut StateWriter) {
        self.lock().save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        self.lock().restore(r)
    }
}

/// Format name of the persisted alone-run cache. Bump
/// [`ALONE_CACHE_VERSION`] whenever the record layout changes *or* a
/// simulator change alters what alone runs compute without touching
/// `SystemConfig` — an old file must never be read as if it were current.
pub const ALONE_CACHE_FORMAT: &str = "asm-alone-cache";

/// Version of [`ALONE_CACHE_FORMAT`]. v1 was a line-oriented text file;
/// v2 a persist envelope written from `AloneRecord`'s field list; v3 is
/// a keyed envelope ([`asm_simcore::persist::seal`]) whose records are
/// keyed by their horizon; v4 drops the profile name from the key and
/// hashes the alone machine ([`checkpoint::alone_config`]).
pub const ALONE_CACHE_VERSION: u32 = 4;

/// Per-run observability switches for [`Runner::run_with`]. The default
/// (all off) makes [`Runner::run`] behave exactly as before telemetry
/// existed — the differential tests pin this byte-for-byte.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Collect counters, per-quantum series, and the memory-latency
    /// histogram on the *shared* run.
    pub telemetry: bool,
    /// Additionally trace sim-time events, sampling 1-in-`n` request
    /// lifecycles (`Some(1)` keeps every request). Implies `telemetry`
    /// plumbing on the shared system.
    pub trace_sample: Option<u64>,
    /// Maintain the ground-truth cycle-attribution ledger on the shared
    /// run and attach [`RunResult::attribution`]. Guaranteed not to
    /// change simulated behaviour (pinned by differential tests).
    pub attrib: bool,
}

/// Runs workloads against a fixed [`SystemConfig`], caching alone runs.
///
/// [`run`](Self::run) takes `&self`, and `Runner` is `Send + Sync`: one
/// runner can drive many workloads from many threads concurrently, with
/// the shared [`AloneCache`] deduplicating alone simulations across all
/// of them.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Runner {
    config: SystemConfig,
    alone_cache: Arc<AloneCache>,
    /// [`config_hash`] of [`checkpoint::alone_config`], computed once.
    alone_fingerprint: u64,
}

impl std::fmt::Debug for AloneRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AloneRecord({} milestones)", self.progress.milestones())
    }
}

impl Runner {
    /// Creates a runner for the given configuration, with a fresh private
    /// alone-run cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        Self::with_cache(config, Arc::new(AloneCache::new()))
    }

    /// Creates a runner that shares `cache` with other runners. Sharing is
    /// always safe — entries are keyed by the alone machine
    /// ([`checkpoint::alone_config`]), so runners for different hardware
    /// never collide, and runners that differ only in what an alone run
    /// cannot read share their alone runs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_cache(config: SystemConfig, cache: Arc<AloneCache>) -> Self {
        config.validate();
        Runner {
            alone_fingerprint: config_hash(&checkpoint::alone_config(&config)),
            config,
            alone_cache: cache,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The alone-run cache this runner reads and fills.
    #[must_use]
    pub fn alone_cache(&self) -> &Arc<AloneCache> {
        &self.alone_cache
    }

    fn alone_record(&self, apps: &[AppProfile], slot: usize, cycles: Cycle) -> AloneRecord {
        let profile = checkpoint::mix_fingerprint(&apps[slot..=slot]);
        let key = (slot, self.alone_fingerprint ^ profile, cycles);
        if let Some(rec) = self.alone_cache.get(&key) {
            return rec;
        }
        // Miss: simulate outside the lock (concurrent misses on the same
        // key duplicate work but, being pure, agree on the result).
        let alone = checkpoint::alone_config(&self.config);
        let mut sys = System::new_alone(apps, alone, AppId::new(slot));
        sys.enable_progress_logging();
        sys.run_for(cycles);
        let rec = AloneRecord {
            progress: Arc::new(sys.progress_log(AppId::new(slot)).clone()),
            latency_hist: sys.measured_miss_latency_hist().cloned(),
        };
        self.alone_cache.insert_or_keep(key, rec)
    }

    /// The (cached) alone-run progress log for `apps[slot]` over `cycles`
    /// cycles — the milestone table `cycles_between`/`cycle_at`
    /// read ground-truth alone costs from. Computes and caches the alone
    /// run on a miss, exactly like [`run`](Self::run) would. The sampled
    /// tier reads interval-windowed alone costs through this.
    #[must_use]
    pub fn alone_progress(
        &self,
        apps: &[AppProfile],
        slot: usize,
        cycles: Cycle,
    ) -> Arc<ProgressLog> {
        self.alone_record(apps, slot, cycles).progress
    }

    /// Runs `apps` together for `cycles` cycles (plus the necessary alone
    /// runs) and returns estimates and ground truth per quantum.
    ///
    /// Takes `&self`: concurrent runs on one runner are safe and share the
    /// alone cache.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn run(&self, apps: &[AppProfile], cycles: Cycle) -> RunResult {
        self.run_with(apps, cycles, RunOptions::default())
    }

    /// Like [`run`](Self::run), with observability switches. Telemetry is
    /// enabled on the shared system only — alone runs (and their cache)
    /// stay untouched — and cannot change simulated behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn run_with(&self, apps: &[AppProfile], cycles: Cycle, opts: RunOptions) -> RunResult {
        let mut sys = self.start(apps, opts);
        sys.run_for(cycles);
        self.finish(apps, opts, sys)
    }

    /// A fresh shared system for `apps` under this runner's
    /// configuration, instrumented as `opts` asks: the first third of
    /// [`run_with`](Self::run_with), for callers that drive the cycles
    /// themselves and hand the system back to [`finish`](Self::finish).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    #[must_use]
    pub fn start(&self, apps: &[AppProfile], opts: RunOptions) -> System {
        assert!(!apps.is_empty(), "need at least one application");
        let mut sys = System::new(apps, self.config.clone());
        if opts.telemetry || opts.trace_sample.is_some() {
            sys.enable_telemetry(opts.trace_sample);
        }
        if opts.attrib {
            sys.enable_attribution();
        }
        sys
    }

    /// The key identifying warmup snapshots this runner can fork for
    /// `apps`: a fingerprint of the prefix-relevant configuration
    /// ([`checkpoint::prefix_config`]), the workload mix, and the
    /// attribution switch (the ledger is state a snapshot carries;
    /// telemetry is a view of state every run keeps, so an instrumented
    /// run forks an uninstrumented warm-up). Runners whose configurations
    /// differ only in the quantum-boundary policies produce the same key
    /// — that is the sharing the sweep planner exploits.
    #[must_use]
    pub fn warmup_key(&self, apps: &[AppProfile], opts: RunOptions) -> u64 {
        use std::hash::Hasher as _;
        let mut h = DetHasher::default();
        h.write_u64(config_hash(&checkpoint::prefix_config(&self.config)));
        h.write_u64(checkpoint::mix_fingerprint(apps));
        h.write_u8(u8::from(opts.attrib));
        h.finish()
    }

    /// Simulates the first quantum of `apps` with the boundary deferred
    /// ([`System::run_prefix`]) and returns it as a snapshot keyed by
    /// [`warmup_key`](Self::warmup_key). No boundary fires, so this
    /// runner's policies are never read: the snapshot forks into any
    /// member configuration with
    /// [`run_with_snapshot`](Self::run_with_snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or `opts` requests tracing (the
    /// sim-time tracer is deliberately outside snapshots).
    #[must_use]
    pub fn warm_snapshot(&self, apps: &[AppProfile], opts: RunOptions) -> Vec<u8> {
        assert!(
            opts.trace_sample.is_none(),
            "traced runs are not snapshot-eligible"
        );
        let warm = self.config.quantum;
        let mut sys = self.start(apps, opts);
        sys.run_prefix(warm);
        checkpoint::capture(&sys, self.warmup_key(apps, opts), warm)
    }

    /// [`start`](Self::start), then the state of `snapshot` restored into
    /// the fresh system: it stands at the snapshot's cycle with that
    /// cycle's quantum boundary (if one is due) still pending, to fire
    /// under this runner's policies.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] from the snapshot: foreign or stale artefact,
    /// key mismatch (different prefix configuration, mix, or attribution
    /// switch), or damage.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or `opts` requests tracing.
    pub fn restore(
        &self,
        apps: &[AppProfile],
        opts: RunOptions,
        snapshot: &[u8],
    ) -> Result<System, PersistError> {
        assert!(
            opts.trace_sample.is_none(),
            "traced runs are not snapshot-eligible"
        );
        let mut sys = self.start(apps, opts);
        checkpoint::resume(snapshot, self.warmup_key(apps, opts), &mut sys)?;
        Ok(sys)
    }

    /// Like [`run_with`](Self::run_with), but seeds the shared system
    /// from a warmup snapshot instead of simulating the first quantum
    /// ([`restore`](Self::restore)) and runs the remaining cycles under
    /// this runner's own policies. The result is bitwise-identical to a
    /// cold [`run_with`](Self::run_with) — the deferred first-quantum
    /// boundary fires as the first step of the continuation.
    ///
    /// # Errors
    ///
    /// Those of [`restore`](Self::restore), or a warm prefix longer than
    /// `cycles`. On error the caller falls back to a cold run.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or `opts` requests tracing.
    pub fn run_with_snapshot(
        &self,
        apps: &[AppProfile],
        cycles: Cycle,
        opts: RunOptions,
        snapshot: &[u8],
    ) -> Result<RunResult, PersistError> {
        let mut sys = self.restore(apps, opts, snapshot)?;
        let warm = sys.now();
        if warm > cycles {
            return Err(PersistError::Corrupt(format!(
                "snapshot covers {warm} cycles but the run is only {cycles}"
            )));
        }
        sys.run_for(cycles - warm);
        Ok(self.finish(apps, opts, sys))
    }

    /// Turns a shared system that has run its cycles into a
    /// [`RunResult`]: pairs it with the (cached) alone runs over the same
    /// horizon for ground truth and attaches telemetry. The result is a
    /// function of the system's state and records — of this runner's
    /// configuration only through the alone runs, which the cache and
    /// memory policies do not reach.
    pub fn finish(&self, apps: &[AppProfile], opts: RunOptions, mut sys: System) -> RunResult {
        let n = apps.len();
        let cycles = sys.now();

        // Alone runs (cached).
        let alone: Vec<AloneRecord> = (0..n)
            .map(|slot| self.alone_record(apps, slot, cycles))
            .collect();

        // Ground truth per quantum.
        let quanta: Vec<QuantumResult> = sys
            .records()
            .iter()
            .map(|r| {
                let q_cycles = (r.end_cycle - r.start_cycle) as f64;
                let actual: Vec<f64> = (0..n)
                    .map(|i| {
                        let work = r.retired_end[i].saturating_sub(r.retired_start[i]);
                        if work == 0 {
                            return f64::NAN;
                        }
                        let alone_cycles = alone[i]
                            .progress
                            .cycles_between(r.retired_start[i], r.retired_end[i]);
                        if alone_cycles <= 0.0 {
                            return f64::NAN;
                        }
                        let ipc_shared = work as f64 / q_cycles;
                        let ipc_alone = work as f64 / alone_cycles;
                        (ipc_alone / ipc_shared).max(1.0)
                    })
                    .collect();
                QuantumResult {
                    estimates: r.estimates.clone(),
                    actual,
                    car_shared: r.car_shared.clone(),
                    partition: r.partition.clone(),
                }
            })
            .collect();

        // Whole-run slowdowns.
        let total_cycles = sys.now() as f64;
        let whole_run_slowdowns: Vec<f64> = (0..n)
            .map(|i| {
                let retired = sys.retired(AppId::new(i));
                if retired == 0 {
                    return f64::NAN;
                }
                let alone_cycles = alone[i].progress.cycle_at(retired);
                (total_cycles / alone_cycles.max(1.0)).max(1.0)
            })
            .collect();

        // Latency histograms (Figure 6).
        let alone_latency_hist =
            alone
                .iter()
                .filter_map(|a| a.latency_hist.clone())
                .reduce(|mut acc, h| {
                    acc.merge(&h);
                    acc
                });
        let estimator_latency_hists = sys
            .estimator_latency_hists()
            .map(|(name, h)| (name.to_owned(), h.clone()))
            .collect();

        let telemetry = if opts.telemetry || opts.trace_sample.is_some() {
            let mut t = sys.take_telemetry();
            // Ground truth per quantum as a series, sampled at the same
            // boundary cycles as the estimator series so the two line up.
            for i in 0..n {
                let samples = sys.records().iter().zip(&quanta);
                let samples = samples
                    .map(|(r, q)| (r.end_cycle, q.actual[i]))
                    .filter(|(_, actual)| actual.is_finite());
                t.series.push(names::app_actual_slowdown(i), samples.collect());
            }
            Some(t)
        } else {
            None
        };

        let attribution = sys.attrib_quanta().map(|q| RunAttribution {
            quanta: q.to_vec(),
            totals: sys.attrib_totals().expect("attribution enabled"),
            blame: sys.attrib_blame_totals().expect("attribution enabled"),
        });

        RunResult {
            app_names: sys.app_names().to_vec(),
            quanta,
            whole_run_slowdowns,
            alone_latency_hist,
            estimator_latency_hists,
            telemetry,
            attribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimatorSet;
    use asm_simcore::persist;
    use asm_workloads::suite;

    fn config() -> SystemConfig {
        let mut c = SystemConfig::default();
        c.quantum = 50_000;
        c.epoch = 1_000;
        c.estimators = EstimatorSet::all();
        c
    }

    fn apps() -> Vec<AppProfile> {
        vec![
            suite::by_name("mcf_like").unwrap(),
            suite::by_name("h264ref_like").unwrap(),
        ]
    }

    #[test]
    fn produces_one_result_per_quantum() {
        let runner = Runner::new(config());
        let r = runner.run(&apps(), 150_000);
        assert_eq!(r.quanta.len(), 3);
        assert_eq!(r.app_names.len(), 2);
    }

    #[test]
    fn actual_slowdowns_are_sane() {
        let runner = Runner::new(config());
        let r = runner.run(&apps(), 150_000);
        for q in &r.quanta {
            for &a in &q.actual {
                assert!(a.is_nan() || (1.0..100.0).contains(&a), "actual {a}");
            }
        }
        for &s in &r.whole_run_slowdowns {
            assert!((1.0..100.0).contains(&s), "whole-run {s}");
        }
    }

    #[test]
    fn alone_cache_reused_across_runs() {
        let runner = Runner::new(config());
        let _ = runner.run(&apps(), 100_000);
        let cached = runner.alone_cache().len();
        assert_eq!(cached, 2);
        let _ = runner.run(&apps(), 100_000);
        assert_eq!(runner.alone_cache().len(), cached);
        // Another horizon is another record, never served from a longer one.
        let _ = runner.run(&apps(), 50_000);
        assert_eq!(runner.alone_cache().len(), 2 * cached);
    }

    #[test]
    fn shared_cache_dedupes_across_runners_but_not_across_configs() {
        let cache = std::sync::Arc::new(AloneCache::new());
        let a = Runner::with_cache(config(), cache.clone());
        let _ = a.run(&apps(), 100_000);
        assert_eq!(cache.len(), 2);

        // A second runner on identical hardware hits the shared entries.
        let b = Runner::with_cache(config(), cache.clone());
        let _ = b.run(&apps(), 100_000);
        assert_eq!(cache.len(), 2);

        // A runner that differs only in what an alone run cannot read
        // (the ATS size, the pollution filter, the epoch length) shares
        // both entries.
        let mut observers = config();
        observers.ats_sampled_sets = Some(32);
        observers.pollution_filter_bits = 1 << 10;
        observers.epoch = 2_000;
        let c = Runner::with_cache(observers, cache.clone());
        let _ = c.run(&apps(), 100_000);
        assert_eq!(cache.len(), 2);

        // Different hardware (another LLC latency) must not collide.
        let mut other = config();
        other.llc_latency = 30;
        let d = Runner::with_cache(other, cache.clone());
        let _ = d.run(&apps(), 100_000);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn same_name_different_profile_does_not_share_alone_runs() {
        // Two profiles called "x", a light and a memory-bound one: on one
        // runner the second must not be measured against the first's
        // alone run (which inflates its slowdown many times over).
        let x = |mpk: u32, lines: u64| {
            let x = AppProfile::builder("x").mem_per_kilo(mpk).working_set_lines(lines).build();
            [x, suite::by_name("h264ref_like").unwrap()]
        };
        let (light, heavy) = (x(2, 1 << 10), x(60, 1 << 18));
        let shared = Runner::new(config());
        let _ = shared.run(&light, 200_000);
        let after_light = shared.run(&heavy, 200_000).whole_run_slowdowns[0];
        let fresh = Runner::new(config()).run(&heavy, 200_000).whole_run_slowdowns[0];
        assert_eq!(after_light.to_bits(), fresh.to_bits());
        // x-light, x-heavy, and the partner once.
        assert_eq!(shared.alone_cache().len(), 3);
    }

    #[test]
    fn run_with_attaches_telemetry_and_run_does_not() {
        let runner = Runner::new(config());
        let plain = runner.run(&apps(), 100_000);
        assert!(plain.telemetry.is_none());

        let opts = RunOptions {
            telemetry: true,
            trace_sample: Some(1),
            attrib: false,
        };
        let traced = runner.run_with(&apps(), 100_000, opts);
        let t = traced.telemetry.as_ref().expect("telemetry attached");
        assert!(!t.counters.is_empty());
        assert!(!t.tracer.events().is_empty());

        // Ground-truth slowdowns from the quantum records are re-exposed
        // as a series aligned with the estimator series.
        let samples = t.series.get("app0.actual_slowdown").expect("series");
        assert_eq!(
            samples.len(),
            traced
                .quanta
                .iter()
                .filter(|q| q.actual[0].is_finite())
                .count()
        );
        for (s, q) in samples
            .iter()
            .zip(traced.quanta.iter().filter(|q| q.actual[0].is_finite()))
        {
            assert!((s.1 - q.actual[0]).abs() < 1e-12);
        }

        // Attaching telemetry must not perturb the simulation itself.
        assert_eq!(plain.quanta.len(), traced.quanta.len());
        for (a, b) in plain.quanta.iter().zip(&traced.quanta) {
            assert_eq!(
                a.actual.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.actual.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn runner_and_results_are_send_and_sync() {
        // Compile-time guards: the parallel harness shares one `Runner`
        // across worker threads and moves `RunResult`s back. If a future
        // change reintroduces an `Rc` (or other non-Send state) anywhere
        // inside, these bounds fail to compile rather than silently
        // blocking the harness.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<RunResult>();
        assert_send::<QuantumResult>();
        assert_send::<Runner>();
        assert_sync::<Runner>();
        assert_send::<AloneCache>();
        assert_sync::<AloneCache>();
    }

    /// The cache as `--checkpoint-dir`'s alone store seals it, and back.
    fn seal(cache: &AloneCache) -> Vec<u8> {
        persist::seal(ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION, 0, cache)
    }

    fn unseal(bytes: &[u8]) -> Result<AloneCache, PersistError> {
        persist::unseal(bytes, ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION, 0)
    }

    #[test]
    fn persisted_cache_roundtrips_bitwise() {
        let mut c = config();
        c.latency_hist = Some((50.0, 40));
        let runner = Runner::new(c);
        let _ = runner.run(&apps(), 100_000);
        let cache = runner.alone_cache();
        assert_eq!(cache.len(), 2);

        let bytes = seal(cache);
        let reloaded = unseal(&bytes).expect("roundtrip parse");
        assert_eq!(reloaded.len(), cache.len());
        let (a, b) = (cache.lock(), reloaded.lock());
        for ((ka, ra), (kb, rb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(*ra.progress, *rb.progress);
            assert_eq!(ra.latency_hist, rb.latency_hist);
        }
        drop((a, b));
        assert_eq!(seal(&reloaded), bytes);
    }

    #[test]
    fn reloaded_cache_produces_identical_results() {
        let runner = Runner::new(config());
        let fresh = runner.run(&apps(), 100_000);

        let reloaded = Arc::new(unseal(&seal(runner.alone_cache())).expect("parse"));
        let warm = Runner::with_cache(config(), reloaded.clone());
        let before = reloaded.len();
        let from_cache = warm.run(&apps(), 100_000);
        assert_eq!(reloaded.len(), before, "warm run must not re-simulate");

        // Ground truth from persisted alone runs is bitwise identical.
        for (q1, q2) in fresh.quanta.iter().zip(&from_cache.quanta) {
            for (a1, a2) in q1.actual.iter().zip(&q2.actual) {
                assert_eq!(a1.to_bits(), a2.to_bits());
            }
        }
        for (s1, s2) in fresh
            .whole_run_slowdowns
            .iter()
            .zip(&from_cache.whole_run_slowdowns)
        {
            assert_eq!(s1.to_bits(), s2.to_bits());
        }
    }

    /// One record, written field by field in `AloneRecord`'s wire order
    /// after the store's key, so that values the checked constructors
    /// refuse can be stored.
    fn forged(interval: u64, milestones: &[u64], bucket_width: Option<f64>) -> Vec<u8> {
        let mut w = StateWriter::new(ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION);
        w.u64(0);
        w.usize(1);
        w.usize(0);
        w.u64(0x0123);
        w.u64(500);
        w.u64(interval);
        w.u64_slice(milestones);
        w.bool(bucket_width.is_some());
        if let Some(width) = bucket_width {
            // Two buckets holding one sample, nothing in overflow.
            w.f64(width);
            w.u64_slice(&[1, 0]);
            w.u64(0);
            w.u64(1);
        }
        w.finish()
    }

    #[test]
    fn corrupt_or_stale_cache_text_is_rejected() {
        // The text format of earlier builds is a foreign artefact now,
        // whatever it holds; so are older versions of this one.
        let old_text = b"asm-alone-cache v1\nentry mcf_like 0 0123 500\nprogress 100 5\nhist none\n";
        assert!(matches!(unseal(old_text), Err(PersistError::BadHeader(_))));
        for old in [1, 2, 3] {
            let stale = StateWriter::new(ALONE_CACHE_FORMAT, old).finish();
            assert!(matches!(
                unseal(&stale),
                Err(PersistError::StaleVersion { found, .. }) if found == old
            ));
        }
        // A well-formed record loads; cut short, it does not.
        let good = forged(100, &[5, 9], Some(50.0));
        assert_eq!(unseal(&good).expect("well-formed").len(), 1);
        assert!(unseal(&good[..good.len() - 12]).is_err());
        // Records that fail their own checks.
        for (bad, culprit) in [
            (forged(0, &[5, 9], None), "ProgressLog"),
            (forged(100, &[90, 50], None), "ProgressLog"),
            (forged(100, &[5, 9], Some(-1.0)), "Histogram"),
            (forged(100, &[5, 9], Some(f64::INFINITY)), "Histogram"),
        ] {
            let err = unseal(&bad).expect_err("refused");
            assert!(err.to_string().contains(culprit), "{err}");
        }
        // The empty cache is fine.
        let empty = unseal(&seal(&AloneCache::new())).expect("empty cache");
        assert!(empty.is_empty());
    }

    #[test]
    fn config_hash_separates_configs() {
        let a = config_hash(&config());
        let mut other = config();
        other.epoch = 2_000;
        assert_ne!(a, config_hash(&other));
        assert_eq!(a, config_hash(&config()));
    }

    #[test]
    fn samples_skip_invalid_ground_truth() {
        let runner = Runner::new(config());
        let r = runner.run(&apps(), 100_000);
        // ASM's (estimated, actual) pairs over the quanta with valid
        // ground truth.
        let samples: Vec<(f64, f64)> = r
            .quanta
            .iter()
            .filter_map(|q| q.estimates.iter().find(|(n, _)| n == "ASM").map(|(_, e)| (e, q)))
            .flat_map(|(e, q)| e.iter().copied().zip(q.actual.iter().copied()))
            .filter(|&(_, a)| a.is_finite() && a > 0.0)
            .collect();
        assert!(!samples.is_empty());
        for &(estimated, actual) in &samples {
            assert!(actual.is_finite() && actual >= 1.0);
            assert!(estimated >= 1.0);
        }
    }

    #[test]
    fn estimator_names_reported() {
        let runner = Runner::new(config());
        let r = runner.run(&apps(), 60_000);
        let names = r.estimator_names();
        assert_eq!(names, vec!["ASM", "FST", "PTCA", "MISE"]);
    }

    #[test]
    fn latency_hists_present_when_configured() {
        let mut c = config();
        c.latency_hist = Some((50.0, 40));
        let runner = Runner::new(c);
        let r = runner.run(&apps(), 100_000);
        assert!(r.alone_latency_hist.is_some());
        assert!(!r.estimator_latency_hists.is_empty());
    }
}
