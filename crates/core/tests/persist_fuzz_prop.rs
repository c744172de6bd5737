//! Re-signed mutation fuzz of the four parsers that read untrusted
//! persisted bytes: snapshot restore, manifest load, and the alone-run
//! and reuse-profile stores.
//!
//! The envelope's whole-payload checksum turns every *accidental* damage
//! into an early `Corrupt`, which also hides the restore path from every
//! damage test — and the checksum is no secret, so a crafted artefact with
//! a valid trailer reaches it. Here real artefacts get random payload
//! words overwritten (huge lengths, out-of-range indices, bool bytes above
//! one), the trailer is recomputed, and `resume` / `persist::unseal`
//! must return `Ok` or `Err`: never panic, never size an allocation from
//! a length the payload cannot back.

use std::sync::OnceLock;

use asm_analytic::store::{PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION};
use asm_analytic::{ProfileParams, ProfileStore};
use asm_cache::CacheGeometry;
use asm_core::checkpoint::{self, MANIFEST_FORMAT, MANIFEST_VERSION, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
use asm_core::runner::{ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION};
use asm_core::{
    AloneCache, CachePolicy, EstimatorSet, RunOptions, RunResult, Runner, SystemConfig,
    ThrottlePolicy,
};
use asm_cpu::AppProfile;
use asm_dram::SchedulerKind;
use asm_simcore::persist::{self, PersistError, StateWriter};
use asm_simcore::SimRng;
use asm_workloads::suite;
use proptest::prelude::*;

/// Small caches, so the structured state (queues, windows, records,
/// ledgers) is a large share of the payload a mutation can land in.
fn config(scheduler: SchedulerKind) -> SystemConfig {
    let mut c = SystemConfig::default();
    c.l1_geometry = CacheGeometry::from_capacity(1024, 2);
    c.llc_geometry = CacheGeometry::from_capacity(8 * 1024, 4);
    c.ats_sampled_sets = Some(8);
    c.pollution_filter_bits = 1 << 8;
    c.quantum = 20_000;
    c.epoch = 1_000;
    c.scheduler = scheduler;
    c.estimators = EstimatorSet::all();
    c.cache_policy = CachePolicy::AsmCache;
    c.throttle_policy = ThrottlePolicy::Fst {
        unfairness_threshold: 1.4,
    };
    c.prefetcher = Some(asm_core::PrefetchConfig::default());
    c.latency_hist = Some((50.0, 16));
    c.validate();
    c
}

fn apps() -> Vec<AppProfile> {
    ["mcf_like", "libquantum_like", "h264ref_like"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite profile"))
        .collect()
}

const OBSERVED: RunOptions = RunOptions {
    telemetry: true,
    trace_sample: None,
    attrib: true,
};

/// The payload between an artefact's header and its checksum.
fn payload<'a>(bytes: &'a [u8], format: &str) -> &'a [u8] {
    &bytes[8 + 4 + format.len() + 4..bytes.len() - 8]
}

/// A validly-signed artefact around an arbitrary payload.
fn signed(format: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = StateWriter::new(format, version);
    payload.iter().for_each(|&b| w.u8(b));
    w.finish()
}

/// Overwrites one to four spots past the first `keep` bytes.
fn mutate(payload: &mut [u8], keep: usize, rng: &mut SimRng) {
    for _ in 0..=rng.gen_range(4) {
        let at = keep + rng.gen_range((payload.len() - keep) as u64) as usize;
        let word = match rng.gen_range(6) {
            0 => u64::MAX,
            1 => (usize::MAX / 2) as u64,
            2 => rng.gen_range(70_000),
            3 => rng.next_u64(),
            4 => 0,
            _ => {
                // One byte only: a bool or tag out of range.
                payload[at] = 2 + rng.gen_range(254) as u8;
                continue;
            }
        };
        let end = (at + 8).min(payload.len());
        payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
    }
}

/// The manifest reader `--resume` calls.
fn load_manifest(bytes: &[u8], key: u64) -> Result<RunResult, PersistError> {
    persist::unseal(bytes, MANIFEST_FORMAT, MANIFEST_VERSION, key)
}

struct Fixture {
    runner: Runner,
    opts: RunOptions,
    snapshot: Vec<u8>,
}

/// The key the stores are sealed under here.
const STORE_KEY: u64 = 5;

/// The alone store's reader.
fn load_alone(bytes: &[u8]) -> Result<AloneCache, PersistError> {
    persist::unseal(bytes, ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION, STORE_KEY)
}

/// The profile store's reader.
fn load_profiles(bytes: &[u8]) -> Result<ProfileStore, PersistError> {
    persist::unseal(bytes, PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION, STORE_KEY)
}

/// The two stores, sealed: the alone runs of one shared run (progress
/// logs and latency histograms) and the reuse profiles of the same mix.
fn caches() -> &'static (Vec<u8>, Vec<u8>) {
    static CACHES: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    CACHES.get_or_init(|| {
        let runner = Runner::new(config(SchedulerKind::FrFcfs));
        let _ = runner.run(&apps(), 40_000);
        let mut profiles = ProfileStore::new();
        for app in apps() {
            profiles.ensure(&app, &ProfileParams::default());
        }
        (
            persist::seal(ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION, STORE_KEY, &**runner.alone_cache()),
            persist::seal(PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION, STORE_KEY, &profiles),
        )
    })
}

/// Snapshots two and a half quanta in — records, a partition, throttle
/// levels and a ledger exist, and a quantum is under way — over the
/// scheduler × observer matrix, and one manifest.
fn fixtures() -> &'static (Vec<Fixture>, Vec<u8>) {
    static FIXTURES: OnceLock<(Vec<Fixture>, Vec<u8>)> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let snapshots = [
            (SchedulerKind::FrFcfs, RunOptions::default()),
            (SchedulerKind::Tcm, OBSERVED),
            (SchedulerKind::Parbs, RunOptions::default()),
            (SchedulerKind::Bliss, OBSERVED),
            (SchedulerKind::Atlas, RunOptions::default()),
        ]
        .into_iter()
        .map(|(scheduler, opts)| {
            let runner = Runner::new(config(scheduler));
            let mut sys = runner.start(&apps(), opts);
            sys.run_for(50_000);
            let snapshot = checkpoint::capture(&sys, runner.warmup_key(&apps(), opts), 50_000);
            Fixture {
                runner,
                opts,
                snapshot,
            }
        })
        .collect();
        let result = Runner::new(config(SchedulerKind::FrFcfs)).run(&apps(), 60_000);
        let manifest = persist::seal(MANIFEST_FORMAT, MANIFEST_VERSION, 7, &result);
        (snapshots, manifest)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn mutated_snapshots_never_panic(seed in 0u64..u64::MAX, which in 0usize..5) {
        let f = &fixtures().0[which];
        let mut rng = SimRng::seed_from(seed);
        let mut body = payload(&f.snapshot, SNAPSHOT_FORMAT).to_vec();
        // Past the key and the warm cycle count: both are checked or
        // merely returned, and a key mismatch would end the parse early.
        mutate(&mut body, 16, &mut rng);
        let forged = signed(SNAPSHOT_FORMAT, SNAPSHOT_VERSION, &body);
        let _ = f.runner.restore(&apps(), f.opts, &forged);
    }

    #[test]
    fn mutated_manifests_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = SimRng::seed_from(seed);
        let mut body = payload(&fixtures().1, MANIFEST_FORMAT).to_vec();
        mutate(&mut body, 8, &mut rng);
        let forged = signed(MANIFEST_FORMAT, MANIFEST_VERSION, &body);
        let _ = load_manifest(&forged, 7);
    }

    #[test]
    fn mutated_caches_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = SimRng::seed_from(seed);
        let (alone, profiles) = caches();
        // Past the key, as for manifests.
        let mut body = payload(alone, ALONE_CACHE_FORMAT).to_vec();
        mutate(&mut body, 8, &mut rng);
        let _ = load_alone(&signed(ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION, &body));
        let mut body = payload(profiles, PROFILE_CACHE_NAME).to_vec();
        mutate(&mut body, 8, &mut rng);
        let _ = load_profiles(&signed(PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION, &body));
    }
}

/// The fuzz is only worth its name if untouched artefacts restore, and if
/// some forged ones get past the envelope into the field-level checks.
#[test]
fn the_fixtures_restore_and_forgeries_reach_the_parsers() {
    let (snapshots, manifest) = fixtures();
    for f in snapshots {
        let body = payload(&f.snapshot, SNAPSHOT_FORMAT);
        let resigned = signed(SNAPSHOT_FORMAT, SNAPSHOT_VERSION, body);
        assert_eq!(resigned, f.snapshot, "re-signing is faithful");
        f.runner
            .restore(&apps(), f.opts, &resigned)
            .expect("an unmutated snapshot restores");
    }
    load_manifest(manifest, 7).expect("an unmutated manifest loads");
    let (alone, profiles) = caches();
    assert_eq!(load_alone(alone).expect("an unmutated store loads").len(), 3);
    assert_eq!(load_profiles(profiles).expect("unmutated profiles load").len(), 3);

    let f = &snapshots[0];
    let mut named = 0;
    for seed in 0..200 {
        let mut body = payload(&f.snapshot, SNAPSHOT_FORMAT).to_vec();
        mutate(&mut body, 16, &mut SimRng::seed_from(seed));
        let forged = signed(SNAPSHOT_FORMAT, SNAPSHOT_VERSION, &body);
        if let Err(e) = f.runner.restore(&apps(), f.opts, &forged) {
            named += usize::from(e.to_string().contains("System."));
        }
    }
    assert!(named > 20, "only {named}/200 forgeries were refused by a named field");
}
