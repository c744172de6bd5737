//! Deterministic system checkpoints: fork-shared warmups and resumable
//! sweeps (DESIGN.md §11).
//!
//! A [`System`] is a pure function of its configuration, workload, and
//! cycle count, so its complete dynamic state at any cycle can be written
//! once and replayed into any number of continuations. Two campaign-level
//! optimisations build on that:
//!
//! * **Shared trajectories.** The cache/memory/throttle policies act only
//!   inside the quantum boundary (`end_quantum`, through
//!   [`crate::mech::decide`]); every cycle in between is policy-blind.
//!   [`System::run_prefix`] exploits this by leaving a quantum that
//!   completes exactly at the end of the run *unfinalised*, so the first
//!   quantum of any configuration is bitwise-identical to the first
//!   quantum of every configuration with the same [`prefix_config`] —
//!   the configuration with all three policies neutralised — and the
//!   deferred boundary fires as the first step of whatever continues the
//!   snapshot, under the continuation's own policies. The same holds at
//!   every later boundary for continuations whose policies *decide* the
//!   same there, which is how the sweep planner lets members share one
//!   simulation until they diverge.
//! * **Resumable sweeps.** Snapshots and per-run result manifests are
//!   written atomically under a checkpoint directory, so a campaign
//!   killed mid-flight resumes from completed work with byte-identical
//!   output.
//!
//! Snapshots carry a caller-provided key — [`Runner::warmup_key`] folds
//! the prefix-relevant configuration hash, the workload mix, and the
//! attribution switch (the ledger is simulator state; telemetry is a view
//! and leaves no trace in a snapshot) — and are rejected on any mismatch,
//! so a stale file can only fail to speed things up, never change results.
//!
//! [`Runner::warmup_key`]: crate::runner::Runner::warmup_key

use asm_cpu::AppProfile;
use asm_simcore::persist::{self, ensure, Persist, PersistError, StateWriter};
use asm_simcore::Cycle;

use crate::config::{CachePolicy, MemPolicy, SystemConfig, ThrottlePolicy};
use crate::runner::{QuantumResult, RunResult};
use crate::system::System;

/// Format name of a binary warmup snapshot. Bump [`SNAPSHOT_VERSION`] on
/// any edit to a `persist_fields!` list (or hand-written [`Persist`] impl)
/// reachable from [`System`]'s.
pub const SNAPSHOT_FORMAT: &str = "asm-snapshot";
/// Version of [`SNAPSHOT_FORMAT`].
/// v2: appended the attribution presence flag (and ledger state when on)
/// after the telemetry section.
/// v3: cores store their in-window memory operations instead of one
/// tagged slot per instruction, and the persisted per-core wake-ups mean
/// "earliest cycle the core can issue" rather than "next cycle its state
/// changes" — a v2 snapshot would be mis-read on both counts.
/// v4: every component's state is written from its `persist_fields!` list
/// — structural containers carry their length, application ids and
/// optional flags use the shared encodings, several sections moved.
/// v5: `System`'s list nests those of its owners (`LazyCores`,
/// `Hierarchy`, `Probes`), and an in-flight miss stores its demand context
/// once.
/// v6: no telemetry state — `Probes` lists the eviction and read-latency
/// tallies (always on), the ledger and the measured-latency histogram;
/// the counter registry and the series rings are gone.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Format name of a binary per-run result manifest: a [`RunResult`]
/// [`persist::seal`]ed under its run's key (the harness's `--resume`).
pub const MANIFEST_FORMAT: &str = "asm-run-manifest";
/// Version of [`MANIFEST_FORMAT`].
/// v2: written from [`RunResult`]'s `persist_fields!` list.
pub const MANIFEST_VERSION: u32 = 2;

/// The prefix-relevant configuration: `config` with the three
/// quantum-boundary policies neutralised. Configurations that agree on
/// this derivation share one warmup trajectory (see the module docs);
/// everything else — geometries, estimators, epochs, seed, scheduler —
/// stays, because it shapes the simulation from cycle 0.
#[must_use]
pub fn prefix_config(config: &SystemConfig) -> SystemConfig {
    let mut c = config.clone();
    c.cache_policy = CachePolicy::None;
    c.mem_policy = MemPolicy::Uniform;
    c.throttle_policy = ThrottlePolicy::None;
    c
}

/// Readable signature of a workload mix: profile names joined by `+`
/// (slot order matters — the same profiles in different slots are a
/// different simulation). Names only: keys use [`mix_fingerprint`].
#[must_use]
pub fn mix_signature(apps: &[AppProfile]) -> String {
    apps.iter()
        .map(AppProfile::name)
        .collect::<Vec<_>>()
        .join("+")
}

/// Deterministic fingerprint of a workload mix, for cache and artefact
/// keys: every profile's complete parameter set in slot order, so two
/// profiles that share a name but not their parameters never share an
/// alone run, a warm-up snapshot or a result manifest.
#[must_use]
pub fn mix_fingerprint(apps: &[AppProfile]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = asm_simcore::hash::DetHasher::default();
    h.write(format!("{apps:?}").as_bytes());
    h.finish()
}

/// Serializes a warmed system into a snapshot artefact tagged with `key`
/// and the warm cycle count. The system must have been advanced with
/// [`System::run_prefix`] (boundary deferred) and must not be tracing —
/// the sim-time tracer is deliberately outside the snapshot.
#[must_use]
pub fn capture(sys: &System, key: u64, warm_cycles: Cycle) -> Vec<u8> {
    let mut w = StateWriter::new(SNAPSHOT_FORMAT, SNAPSHOT_VERSION);
    w.u64(key);
    w.u64(warm_cycles);
    sys.save(&mut w);
    w.finish()
}

/// Restores a snapshot produced by [`capture`] into a freshly constructed
/// system and returns the warm cycle count it covers.
///
/// # Errors
///
/// [`PersistError::BadHeader`] / [`PersistError::StaleVersion`] for
/// foreign or outdated artefacts, [`PersistError::Corrupt`] when the key
/// does not match (a snapshot of a different configuration, mix, or
/// attribution switch) or the state does not fit `sys`'s structure.
pub fn resume(bytes: &[u8], key: u64, sys: &mut System) -> Result<Cycle, PersistError> {
    let mut r = persist::open(bytes, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, key)?;
    let warm_cycles = r.u64()?;
    sys.restore(&mut r)?;
    r.finish()?;
    Ok(warm_cycles)
}

impl RunResult {
    /// Every per-application vector of a reloaded manifest must cover
    /// exactly the manifest's applications.
    fn check_restored(&self) -> Result<(), PersistError> {
        let n = self.app_names.len();
        let fits = self.whole_run_slowdowns.len() == n
            && self.quanta.iter().all(|q| {
                q.actual.len() == n
                    && q.car_shared.len() == n
                    && q.estimates.iter().all(|(_, est)| est.len() == n)
                    && q.partition.as_ref().is_none_or(|p| p.len() == n)
            });
        ensure(fits, "vector length does not match app count")
    }
}

// What a manifest holds of a result: plain runs only (the harness never
// writes a manifest for an instrumented run), so the telemetry and
// attribution artefacts are not in the list.
asm_simcore::persist_fields!(QuantumResult { estimates, actual, car_shared, partition });
asm_simcore::persist_fields!(RunResult {
    app_names,
    quanta,
    whole_run_slowdowns,
    alone_latency_hist,
    estimator_latency_hists,
} => RunResult::check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimatorSet;
    use crate::runner::Runner;
    use asm_workloads::suite;

    fn config() -> SystemConfig {
        let mut c = SystemConfig::default();
        c.quantum = 50_000;
        c.epoch = 1_000;
        c.estimators = EstimatorSet::asm_only();
        c
    }

    fn apps() -> Vec<AppProfile> {
        vec![
            suite::by_name("mcf_like").unwrap(),
            suite::by_name("h264ref_like").unwrap(),
        ]
    }

    #[test]
    fn prefix_config_neutralises_exactly_the_boundary_policies() {
        let mut c = config();
        c.cache_policy = CachePolicy::AsmCache;
        c.mem_policy = MemPolicy::SlowdownWeighted;
        c.throttle_policy = ThrottlePolicy::Fst {
            unfairness_threshold: 1.4,
        };
        let p = prefix_config(&c);
        assert_eq!(p.cache_policy, CachePolicy::None);
        assert_eq!(p.mem_policy, MemPolicy::Uniform);
        assert_eq!(p.throttle_policy, ThrottlePolicy::None);
        // Everything else must survive: neutralising twice is idempotent
        // and equals neutralising the already-neutral base.
        assert_eq!(
            crate::runner::config_hash(&prefix_config(&p)),
            crate::runner::config_hash(&prefix_config(&config()))
        );
    }

    #[test]
    fn mix_signature_is_slot_ordered() {
        let a = apps();
        let mut b = apps();
        b.reverse();
        assert_eq!(mix_signature(&a), "mcf_like+h264ref_like");
        assert_ne!(mix_signature(&a), mix_signature(&b));
    }

    #[test]
    fn snapshot_rejects_wrong_key_and_damage() {
        let apps = apps();
        let runner = Runner::new(config());
        let snap = runner.warm_snapshot(&apps, crate::runner::RunOptions::default());
        let key = runner.warmup_key(&apps, crate::runner::RunOptions::default());

        let mut sys = System::new(&apps, config());
        assert!(matches!(
            resume(&snap, key ^ 1, &mut sys),
            Err(PersistError::Corrupt(_))
        ));
        let mut sys = System::new(&apps, config());
        assert!(resume(&snap[..snap.len() - 3], key, &mut sys).is_err());
        let mut flipped = snap.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let mut sys = System::new(&apps, config());
        assert!(resume(&flipped, key, &mut sys).is_err());
    }

    fn assert_results_bitwise_equal(a: &RunResult, b: &RunResult) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.app_names, b.app_names);
        assert_eq!(a.quanta.len(), b.quanta.len());
        for (qa, qb) in a.quanta.iter().zip(&b.quanta) {
            assert_eq!(qa.estimates.len(), qb.estimates.len());
            for ((n1, e1), (n2, e2)) in qa.estimates.iter().zip(&qb.estimates) {
                assert_eq!(n1, n2);
                assert_eq!(bits(e1), bits(e2));
            }
            assert_eq!(bits(&qa.actual), bits(&qb.actual));
            assert_eq!(bits(&qa.car_shared), bits(&qb.car_shared));
            assert_eq!(qa.partition, qb.partition);
        }
        assert_eq!(bits(&a.whole_run_slowdowns), bits(&b.whole_run_slowdowns));
        assert_eq!(a.alone_latency_hist, b.alone_latency_hist);
        assert_eq!(a.estimator_latency_hists, b.estimator_latency_hists);
    }

    #[test]
    fn one_warmup_forks_into_every_policy_bitwise() {
        use crate::runner::RunOptions;
        let apps = apps();
        // One snapshot, taken under the neutral prefix configuration,
        // serves members that differ (only) in their boundary policies.
        let snap = Runner::new(config()).warm_snapshot(&apps, RunOptions::default());
        let members = [
            (CachePolicy::None, MemPolicy::Uniform),
            (CachePolicy::Ucp, MemPolicy::Uniform),
            (CachePolicy::AsmCache, MemPolicy::Uniform),
            (CachePolicy::AsmCache, MemPolicy::SlowdownWeighted),
        ];
        for (cache, mem) in members {
            let mut c = config();
            c.cache_policy = cache;
            c.mem_policy = mem;
            let runner = Runner::new(c);
            let cold = runner.run(&apps, 150_000);
            let forked = runner
                .run_with_snapshot(&apps, 150_000, RunOptions::default(), &snap)
                .expect("every member shares the warmup key");
            assert_results_bitwise_equal(&cold, &forked);
        }
    }

    #[test]
    fn an_instrumented_run_forks_an_uninstrumented_warmup_bitwise() {
        use crate::runner::RunOptions;
        let apps = apps();
        let mut c = config();
        c.cache_policy = CachePolicy::AsmCache;
        let runner = Runner::new(c);
        // Telemetry is a view of state every run keeps: the warm-up needs
        // no instrument for the fork to report the whole run.
        let snap = runner.warm_snapshot(&apps, RunOptions::default());
        let instrumented = RunOptions {
            telemetry: true,
            trace_sample: None,
            attrib: false,
        };
        let cold = runner.run_with(&apps, 150_000, instrumented);
        let forked = runner
            .run_with_snapshot(&apps, 150_000, instrumented, &snap)
            .expect("telemetry is not part of the warmup key");
        assert_results_bitwise_equal(&cold, &forked);
        let (cold, forked) = (cold.telemetry.expect("on"), forked.telemetry.expect("on"));
        assert!(cold.counters.iter().any(|(name, v)| name == "llc.app0.misses" && *v > 0));
        assert_eq!(cold.counters, forked.counters);
        let bits = |t: &crate::RunTelemetry| -> Vec<(String, Vec<(Cycle, u64)>)> {
            let samples = |s: &[(Cycle, f64)]| s.iter().map(|&(c, v)| (c, v.to_bits())).collect();
            t.series.iter().map(|(name, s)| (name.to_owned(), samples(s))).collect()
        };
        assert_eq!(bits(&cold), bits(&forked));
        assert!(cold.mem_latency_hist.total() > 0);
        assert_eq!(cold.mem_latency_hist, forked.mem_latency_hist);
    }

    #[test]
    fn warmup_key_shared_across_policies_but_not_hardware_or_mix() {
        use crate::runner::RunOptions;
        let apps = apps();
        let opts = RunOptions::default();
        let base = Runner::new(config()).warmup_key(&apps, opts);
        let mut with_policy = config();
        with_policy.cache_policy = CachePolicy::AsmCache;
        with_policy.throttle_policy = ThrottlePolicy::Fst {
            unfairness_threshold: 1.4,
        };
        assert_eq!(Runner::new(with_policy).warmup_key(&apps, opts), base);

        let mut other_hw = config();
        other_hw.epoch = 2_000;
        assert_ne!(Runner::new(other_hw).warmup_key(&apps, opts), base);

        let mut rev = apps.clone();
        rev.reverse();
        assert_ne!(Runner::new(config()).warmup_key(&rev, opts), base);
        // A profile is more than its name: same names, another working set.
        let mut renamed = apps.clone();
        renamed[0] = AppProfile::builder(apps[0].name()).working_set_lines(1 << 10).build();
        assert_eq!(mix_signature(&renamed), mix_signature(&apps));
        assert_ne!(Runner::new(config()).warmup_key(&renamed, opts), base);
        let telem = RunOptions {
            telemetry: true,
            trace_sample: None,
            attrib: false,
        };
        // Telemetry is a view: it shares the uninstrumented warm-up.
        assert_eq!(Runner::new(config()).warmup_key(&apps, telem), base);
        let attrib = RunOptions {
            telemetry: false,
            trace_sample: None,
            attrib: true,
        };
        assert_ne!(Runner::new(config()).warmup_key(&apps, attrib), base);
    }

    #[test]
    fn snapshot_attrib_flag_must_match_and_ledger_rides_the_fork() {
        use crate::runner::RunOptions;
        let runner = Runner::new(config());
        let on = RunOptions {
            telemetry: false,
            trace_sample: None,
            attrib: true,
        };
        let snap_on = runner.warm_snapshot(&apps(), on);
        let snap_off = runner.warm_snapshot(&apps(), RunOptions::default());
        // Mismatched attribution state can never restore (the warmup key
        // embeds the flag, and the snapshot body double-checks it).
        assert!(runner
            .run_with_snapshot(&apps(), 150_000, RunOptions::default(), &snap_on)
            .is_err());
        assert!(runner
            .run_with_snapshot(&apps(), 150_000, on, &snap_off)
            .is_err());
        // Matching flags fork fine; the warm quantum's ledger rides along
        // and the forked run's attribution is bit-identical to a cold one.
        let forked = runner
            .run_with_snapshot(&apps(), 150_000, on, &snap_on)
            .expect("matching flags restore");
        let cold = runner.run_with(&apps(), 150_000, on);
        let fa = forked.attribution.expect("attribution attached");
        let ca = cold.attribution.expect("attribution attached");
        assert_eq!(fa.quanta.len(), 3);
        assert_eq!(fa.totals, ca.totals);
        assert_eq!(fa.blame, ca.blame);
        for (f, c) in fa.quanta.iter().zip(&ca.quanta) {
            assert_eq!(f.ledger, c.ledger);
            assert_eq!(f.blame, c.blame);
        }
    }

    /// A run manifest as `--resume` writes it.
    fn seal_manifest(result: &RunResult, key: u64) -> Vec<u8> {
        persist::seal(MANIFEST_FORMAT, MANIFEST_VERSION, key, result)
    }

    /// A run manifest as `--resume` reads it.
    fn unseal_manifest(bytes: &[u8], key: u64) -> Result<RunResult, PersistError> {
        persist::unseal(bytes, MANIFEST_FORMAT, MANIFEST_VERSION, key)
    }

    #[test]
    fn manifest_round_trips_bitwise_and_validates_key() {
        let mut c = config();
        c.latency_hist = Some((50.0, 40));
        c.cache_policy = CachePolicy::AsmCache;
        let runner = Runner::new(c);
        let result = runner.run(&apps(), 150_000);

        let bytes = seal_manifest(&result, 7);
        let back = unseal_manifest(&bytes, 7).expect("roundtrip");
        assert_eq!(back.app_names, result.app_names);
        assert_eq!(back.quanta.len(), result.quanta.len());
        for (a, b) in result.quanta.iter().zip(&back.quanta) {
            assert_eq!(a.estimates.len(), b.estimates.len());
            for ((n1, e1), (n2, e2)) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(n1, n2);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(e1), bits(e2));
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.actual), bits(&b.actual));
            assert_eq!(bits(&a.car_shared), bits(&b.car_shared));
            assert_eq!(a.partition, b.partition);
        }
        assert_eq!(result.alone_latency_hist, back.alone_latency_hist);
        assert_eq!(
            result.estimator_latency_hists,
            back.estimator_latency_hists
        );

        assert!(matches!(
            unseal_manifest(&bytes, 8),
            Err(PersistError::Corrupt(_))
        ));
        assert!(unseal_manifest(&bytes[..bytes.len() - 1], 7).is_err());
    }

    #[test]
    fn manifest_rejects_a_partition_of_the_wrong_length() {
        let mut c = config();
        c.cache_policy = CachePolicy::AsmCache;
        let mut result = Runner::new(c).run(&apps(), 150_000);
        unseal_manifest(&seal_manifest(&result, 7), 7).expect("valid as run");
        let partition = result
            .quanta
            .iter_mut()
            .find_map(|q| q.partition.as_mut())
            .expect("ASM-Cache partitions at the first boundary");
        partition.pop();
        let short = seal_manifest(&result, 7);
        match unseal_manifest(&short, 7) {
            Err(PersistError::Corrupt(why)) => assert!(why.contains("app count"), "{why}"),
            other => panic!("a one-way-short partition loaded: {other:?}"),
        }
    }

    #[test]
    fn artefacts_of_the_previous_format_versions_are_stale() {
        // A v5 snapshot carries a counter registry and series rings and a
        // v1 manifest predates the field lists; their bytes must never be
        // read as if they were current.
        let old_snapshot = StateWriter::new(SNAPSHOT_FORMAT, 5).finish();
        let mut sys = System::new(&apps(), config());
        assert!(matches!(
            resume(&old_snapshot, 0, &mut sys),
            Err(PersistError::StaleVersion { found: 5, expected: SNAPSHOT_VERSION, .. })
        ));
        assert!(matches!(
            persist::open(&old_snapshot, SNAPSHOT_FORMAT, SNAPSHOT_VERSION, 0),
            Err(PersistError::StaleVersion { .. })
        ));
        let old_manifest = StateWriter::new(MANIFEST_FORMAT, 1).finish();
        assert!(matches!(
            unseal_manifest(&old_manifest, 0),
            Err(PersistError::StaleVersion { found: 1, expected: MANIFEST_VERSION, .. })
        ));
    }
}
