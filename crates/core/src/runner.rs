//! The experiment runner: pairs a shared run with per-application alone
//! runs to compute ground-truth slowdowns (§5, Metrics).
//!
//! "Actual slowdown" for a quantum is `IPC_alone / IPC_shared` *for the
//! same amount of work*: the alone-run cycle cost of the instruction window
//! the shared run retired in that quantum, read off the alone run's
//! [`asm_cpu::ProgressLog`].
//!
//! Alone runs are cached in an [`AloneCache`] keyed by
//! `(profile, slot, alone config)`, so sweeping many shared workloads that
//! reuse applications does not repeat alone simulations. The cache is
//! thread-safe and can be shared across [`Runner`]s — the parallel
//! experiment harness hands one cache to every worker so concurrent
//! workloads never repeat an alone simulation either.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm_attrib::QuantumLedger;
use asm_cpu::{AppProfile, ProgressLog};
use asm_metrics::SlowdownSample;
use asm_simcore::hash::DetHasher;
use asm_simcore::persist::{self, Persist as _, PersistError, StateReader, StateWriter};
use asm_simcore::{AppId, Cycle, Histogram};
use asm_telemetry::names;

use crate::checkpoint;
use crate::config::{CachePolicy, EstimatorSet, MemPolicy, SystemConfig};
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
    /// Flattens this run into `(estimated, actual)` samples for the named
    /// estimator, one per application per quantum (skipping quanta without
    /// valid ground truth).
    #[must_use]
    pub fn samples(&self, estimator: &str) -> Vec<SlowdownSample> {
        let mut out = Vec::new();
        for q in &self.quanta {
            let Some(est) = q
                .estimates
                .iter()
                .find(|(n, _)| n == estimator)
                .map(|(_, v)| v)
            else {
                continue;
            };
            for (i, (&e, &a)) in est.iter().zip(&q.actual).enumerate() {
                if a.is_finite() && a > 0.0 {
                    out.push(SlowdownSample {
                        app_name: self.app_names[i].clone(),
                        estimated: e,
                        actual: a,
                    });
                }
            }
        }
        out
    }

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
    cycles: Cycle,
    progress: Arc<ProgressLog>,
    latency_hist: Option<Histogram>,
}

impl Default for AloneRecord {
    /// The blank a cache load fills in.
    fn default() -> Self {
        AloneRecord {
            cycles: 0,
            progress: Arc::new(ProgressLog::new(1)),
            latency_hist: None,
        }
    }
}

// The progress log and the histogram validate themselves on restore
// (positive interval, monotonic milestones, positive bucket width).
asm_simcore::persist_fields!(AloneRecord { cycles, progress, latency_hist });

/// Cache key: `(profile name, slot, fingerprint)`. The fingerprint folds
/// [`config_hash`] of the full alone [`SystemConfig`] with the profile's
/// parameters ([`checkpoint::mix_fingerprint`]), so entries for different
/// hardware, seeds, or profiles that merely share a name never collide,
/// and a persisted cache from a different configuration is silently —
/// and correctly — never hit.
type AloneKey = (String, usize, u64);

/// Deterministic 64-bit fingerprint of a [`SystemConfig`], derived from
/// its complete `Debug` rendering: any field change (including added
/// fields) changes the hash.
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
/// Determinism argument: every entry is a pure function of its key plus
/// the requested cycle horizon — an alone run has no cross-application
/// state — and a longer record agrees with a shorter one on their common
/// prefix (a single-application simulation extended by more cycles never
/// rewrites its past). So the cache's contents cannot depend on lock
/// acquisition order: threads racing on the same key at worst duplicate
/// one alone simulation; they can never observe different results.
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

    /// Number of cached alone runs.
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

    /// Returns the cached record for `key` if it covers at least `cycles`.
    fn get_at_least(&self, key: &AloneKey, cycles: Cycle) -> Option<AloneRecord> {
        self.lock().get(key).filter(|r| r.cycles >= cycles).cloned()
    }

    /// Inserts `rec` unless an entry with at least as many cycles already
    /// exists; returns the winning record either way.
    fn insert_or_keep_longer(&self, key: AloneKey, rec: AloneRecord) -> AloneRecord {
        let mut map = self.lock();
        match map.get(&key) {
            Some(existing) if existing.cycles >= rec.cycles => existing.clone(),
            _ => {
                map.insert(key, rec.clone());
                rec
            }
        }
    }

    /// Writes the cache to `path` ([`to_bytes`](Self::to_bytes)),
    /// atomically (temp file + rename): a reader racing the write sees
    /// either the old cache or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        persist::write_atomic(path, &self.to_bytes())
    }

    /// Reads a cache previously written by [`Self::save_to`] under the
    /// workspace-wide warn-and-rebuild policy
    /// ([`persist::load_or_rebuild`]): a missing file starts empty
    /// silently; an unreadable, stale, or corrupt file starts empty with
    /// a warning string the caller surfaces on stderr (sim crates cannot
    /// print — lint rule R7).
    ///
    /// Entries are keyed by [`config_hash`] of the alone configuration
    /// they were simulated under, so a file recorded with different
    /// hardware parameters loads fine but never satisfies a lookup.
    #[must_use]
    pub fn load_or_warn(path: &std::path::Path) -> (AloneCache, Option<String>) {
        let (cache, warning) = persist::load_or_rebuild(path, Self::from_bytes);
        (cache.unwrap_or_default(), warning)
    }

    /// The cache as one persist envelope: every record with its progress
    /// log and optional latency histogram, floats as bit patterns so the
    /// round trip is bitwise exact.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new(ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION);
        self.lock().save(&mut w);
        w.finish()
    }

    /// Reads what [`to_bytes`](Self::to_bytes) wrote.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`]: a foreign or stale artefact (the text format
    /// of earlier builds included), damage, or a record that fails its
    /// own checks — nothing half-loads.
    pub fn from_bytes(bytes: &[u8]) -> Result<AloneCache, PersistError> {
        let mut r = StateReader::new(bytes, ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION)?;
        let cache = AloneCache::new();
        cache.lock().restore(&mut r)?;
        r.finish()?;
        Ok(cache)
    }
}

/// On-disk format name for the persisted alone-run cache. Bump
/// [`ALONE_CACHE_VERSION`] whenever the record layout changes *or* a
/// simulator change alters what alone runs compute without touching
/// `SystemConfig` — an old file must never be read as if it were current.
pub const ALONE_CACHE_FORMAT: &str = "asm-alone-cache";

/// Version of [`ALONE_CACHE_FORMAT`]. v1 was a line-oriented text file;
/// v2 is a persist envelope written from `AloneRecord`'s field list.
pub const ALONE_CACHE_VERSION: u32 = 2;

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
    /// [`config_hash`] of [`Self::alone_config`], computed once.
    alone_fingerprint: u64,
}

impl std::fmt::Debug for AloneRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AloneRecord({} cycles)", self.cycles)
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
    /// always safe — entries are keyed by the full alone configuration, so
    /// runners for different hardware never collide.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_cache(config: SystemConfig, cache: Arc<AloneCache>) -> Self {
        config.validate();
        let mut runner = Runner {
            config,
            alone_cache: cache,
            alone_fingerprint: 0,
        };
        runner.alone_fingerprint = config_hash(&runner.alone_config());
        runner
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

    /// The configuration used for alone runs: same hardware, but no
    /// estimators or allocation mechanisms (they would be no-ops or noise
    /// for a single application).
    fn alone_config(&self) -> SystemConfig {
        let mut c = self.config.clone();
        c.estimators = EstimatorSet::none();
        c.cache_policy = CachePolicy::None;
        c.mem_policy = MemPolicy::Uniform;
        c
    }

    fn alone_record(&self, apps: &[AppProfile], slot: usize, cycles: Cycle) -> AloneRecord {
        let profile = checkpoint::mix_fingerprint(&apps[slot..=slot]);
        let key = (apps[slot].name().to_owned(), slot, self.alone_fingerprint ^ profile);
        if let Some(rec) = self.alone_cache.get_at_least(&key, cycles) {
            return rec;
        }
        // Miss: simulate outside the lock (concurrent misses on the same
        // key duplicate work but, being pure, agree on the result).
        let mut sys = System::new_alone(apps, self.alone_config(), AppId::new(slot));
        sys.enable_progress_logging();
        sys.run_for(cycles);
        let rec = AloneRecord {
            cycles,
            progress: Arc::new(sys.progress_log(AppId::new(slot)).clone()),
            latency_hist: sys.measured_miss_latency_hist().cloned(),
        };
        self.alone_cache.insert_or_keep_longer(key, rec)
    }

    /// The (cached) alone-run progress log for `apps[slot]` covering at
    /// least `cycles` — the milestone table `cycles_between`/`cycle_at`
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
        let estimator_latency_hists = ["ASM", "FST", "PTCA"]
            .iter()
            .filter_map(|name| {
                sys.estimator_latency_hist(name)
                    .map(|h| ((*name).to_owned(), h.clone()))
            })
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

        // Different hardware (another epoch length) must not collide.
        let mut other = config();
        other.epoch = 2_000;
        let c = Runner::with_cache(other, cache.clone());
        let _ = c.run(&apps(), 100_000);
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

    #[test]
    fn persisted_cache_roundtrips_bitwise() {
        let mut c = config();
        c.latency_hist = Some((50.0, 40));
        let runner = Runner::new(c);
        let _ = runner.run(&apps(), 100_000);
        let cache = runner.alone_cache();
        assert_eq!(cache.len(), 2);

        let bytes = cache.to_bytes();
        let reloaded = AloneCache::from_bytes(&bytes).expect("roundtrip parse");
        assert_eq!(reloaded.len(), cache.len());
        let (a, b) = (cache.lock(), reloaded.lock());
        for ((ka, ra), (kb, rb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(ra.cycles, rb.cycles);
            assert_eq!(*ra.progress, *rb.progress);
            assert_eq!(ra.latency_hist, rb.latency_hist);
        }
        drop((a, b));
        assert_eq!(reloaded.to_bytes(), bytes);
    }

    #[test]
    fn reloaded_cache_produces_identical_results() {
        let runner = Runner::new(config());
        let fresh = runner.run(&apps(), 100_000);

        let bytes = runner.alone_cache().to_bytes();
        let reloaded = Arc::new(AloneCache::from_bytes(&bytes).expect("parse"));
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

    /// One record, written field by field in `AloneRecord`'s wire order,
    /// so that values the checked constructors refuse can be stored.
    fn forged(interval: u64, milestones: &[u64], bucket_width: Option<f64>) -> Vec<u8> {
        let mut w = StateWriter::new(ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION);
        w.usize(1);
        w.str("mcf_like");
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
        // whatever it holds; so is another version of this one.
        let old_text = b"asm-alone-cache v1\nentry mcf_like 0 0123 500\nprogress 100 5\nhist none\n";
        assert!(matches!(
            AloneCache::from_bytes(old_text),
            Err(PersistError::BadHeader(_))
        ));
        let path = std::env::temp_dir().join(format!("asm_alone_cache_v1_{}", std::process::id()));
        std::fs::write(&path, old_text).expect("write");
        let (cache, warning) = AloneCache::load_or_warn(&path);
        std::fs::remove_file(&path).ok();
        assert!(cache.is_empty());
        assert!(warning.expect("warned").contains("ignoring"));
        let v1 = StateWriter::new(ALONE_CACHE_FORMAT, 1).finish();
        assert!(matches!(
            AloneCache::from_bytes(&v1),
            Err(PersistError::StaleVersion { found: 1, .. })
        ));
        // A well-formed record loads; cut short, it does not.
        let good = forged(100, &[5, 9], Some(50.0));
        assert_eq!(AloneCache::from_bytes(&good).expect("well-formed").len(), 1);
        assert!(AloneCache::from_bytes(&good[..good.len() - 12]).is_err());
        // Records that fail their own checks.
        for (bad, culprit) in [
            (forged(0, &[5, 9], None), "ProgressLog"),
            (forged(100, &[90, 50], None), "ProgressLog"),
            (forged(100, &[5, 9], Some(-1.0)), "Histogram"),
            (forged(100, &[5, 9], Some(f64::INFINITY)), "Histogram"),
        ] {
            let err = AloneCache::from_bytes(&bad).expect_err("refused");
            assert!(err.to_string().contains(culprit), "{err}");
        }
        // The empty cache is fine.
        let empty = AloneCache::from_bytes(&AloneCache::new().to_bytes()).expect("empty cache");
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
        let samples = r.samples("ASM");
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(s.actual.is_finite() && s.actual >= 1.0);
            assert!(s.estimated >= 1.0);
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
