//! The store of extracted [`ReuseProfile`]s: the `AloneCache` pattern,
//! analytic edition.
//!
//! Same discipline as the cycle tier's alone-run cache: the whole store
//! travels as one versioned, checksummed, keyed persist envelope
//! (`--checkpoint-dir`'s profile store, sealed by the harness), a restore
//! that rejects anything malformed, and staleness detection by
//! fingerprint — an entry whose key does not match the current (source
//! profile, parameters, algorithm) fingerprint is simply re-extracted, so
//! a store from an older binary can never change results, only fail to
//! speed things up.
//!
//! The payload is **integers only** (counters and bucket counts). The
//! floating-point tail/footprint curves are derived and recomputed on
//! load, so a loaded profile is bitwise identical to a freshly extracted
//! one (pinned by tests).

use std::collections::BTreeMap;

use asm_cpu::AppProfile;
use asm_simcore::persist::ensure;

use crate::profile::{profile_key, ProfileParams, ReuseProfile};

/// Format name of the profile cache; bump [`PROFILE_CACHE_VERSION`] on
/// any format change.
pub const PROFILE_CACHE_NAME: &str = "asm-reuse-profile";

/// Version of [`PROFILE_CACHE_NAME`]. v1 was a line-oriented text file;
/// v2 a persist envelope written from `ReuseProfile`'s field list; v3 is
/// the same payload in a keyed envelope ([`asm_simcore::persist::seal`]).
pub const PROFILE_CACHE_VERSION: u32 = 3;

/// A set of extracted profiles, keyed by workload name.
///
/// The store is a plain map — deliberately no interior mutability. The
/// harness populates it *before* fanning mixes across worker threads and
/// then shares it read-only (`Arc<ProfileStore>`), so the analytic tier
/// needs no locks at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStore {
    entries: BTreeMap<String, ReuseProfile>,
}

impl ProfileStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached profiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The profile filed under workload `name`, fresh or stale.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ReuseProfile> {
        self.entries.get(name)
    }

    /// Returns the profile for `profile`, extracting it if the store has
    /// no entry — or only a *stale* entry (fingerprint mismatch: the
    /// source model, the parameters or the algorithm changed).
    pub fn ensure(&mut self, profile: &AppProfile, params: &ProfileParams) -> &ReuseProfile {
        let key = profile_key(profile, params);
        if self.get(profile.name()).is_none_or(|e| e.key() != key) {
            let extracted = ReuseProfile::extract(profile, params);
            self.entries.insert(profile.name().to_owned(), extracted);
        }
        &self.entries[profile.name()]
    }
}

asm_simcore::persist_fields!(ProfileStore { entries } => |s: &ProfileStore| {
    let filed_by_name = s.entries.iter().all(|(name, p)| name == p.name());
    ensure(filed_by_name, "profile filed under another name")
});

#[cfg(test)]
mod tests {
    use super::*;
    use asm_simcore::persist::{self, PersistError, StateWriter};

    fn sample_store() -> ProfileStore {
        let params = ProfileParams::default();
        let mut store = ProfileStore::new();
        for (name, mpk, ws, run) in [("alpha", 50, 1u64 << 14, 8u32), ("beta", 110, 1 << 16, 64)] {
            let p = AppProfile::builder(name)
                .mem_per_kilo(mpk)
                .working_set_lines(ws)
                .hot_lines(ws / 16)
                .hot_frac(0.4)
                .seq_run(run)
                .build();
            store.ensure(&p, &params);
        }
        store
    }

    /// The store as `--checkpoint-dir`'s profile store seals it, and back.
    fn seal(store: &ProfileStore) -> Vec<u8> {
        persist::seal(PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION, 0, store)
    }

    fn unseal(bytes: &[u8]) -> Result<ProfileStore, PersistError> {
        persist::unseal(bytes, PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION, 0)
    }

    #[test]
    fn round_trip_is_bitwise_identical() {
        let store = sample_store();
        let bytes = seal(&store);
        let back = unseal(&bytes).expect("parse own output");
        assert_eq!(store, back);
        // And the re-rendered artefact is byte-identical.
        assert_eq!(bytes, seal(&back));
    }

    #[test]
    fn ensure_hits_fresh_entries_and_replaces_stale_ones() {
        let params = ProfileParams::default();
        let mut store = ProfileStore::new();
        let p = AppProfile::builder("w")
            .mem_per_kilo(40)
            .working_set_lines(1 << 12)
            .build();
        let key = store.ensure(&p, &params).key();
        assert_eq!(store.ensure(&p, &params).key(), key);
        assert_eq!(store.len(), 1);
        // Same name, different parameters: the old entry is stale.
        let other = ProfileParams {
            stream_seed: 99,
            ..params
        };
        let key2 = store.ensure(&p, &other).key();
        assert_ne!(key, key2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn wrong_header_is_rejected() {
        // The text format of earlier builds, an empty file, garbage.
        for foreign in ["asm-reuse-profile v1\nprofiles 0\n", "", "garbage\n"] {
            assert!(matches!(
                unseal(foreign.as_bytes()),
                Err(PersistError::BadHeader(_) | PersistError::Truncated { .. })
            ));
        }
        // Older envelopes: v1's header, and v2's unkeyed payload.
        for old in [1, 2] {
            let stale = StateWriter::new(PROFILE_CACHE_NAME, old).finish();
            assert!(matches!(
                unseal(&stale),
                Err(PersistError::StaleVersion { found, .. }) if found == old
            ));
        }
    }

    /// A validly-signed artefact around `payload` (the key included).
    fn signed(payload: &[u8]) -> Vec<u8> {
        let mut w = StateWriter::new(PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION);
        payload.iter().for_each(|&b| w.u8(b));
        w.finish()
    }

    #[test]
    fn corrupt_or_truncated_files_are_rejected() {
        let bytes = seal(&sample_store());
        let payload = &bytes[8 + 4 + PROFILE_CACHE_NAME.len() + 4..bytes.len() - 8];
        assert_eq!(signed(payload), bytes, "re-signing is faithful");
        // Damage the checksum catches.
        assert!(unseal(&bytes[..bytes.len() / 2]).is_err());
        // Truncated mid-profile, re-signed.
        assert!(unseal(&signed(&payload[..payload.len() / 2])).is_err());
        // Trailing garbage, re-signed.
        assert!(unseal(&signed(&[payload, b"junk"].concat())).is_err());
        // Filed under another key.
        let err = persist::unseal::<ProfileStore>(&bytes, PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION, 1)
            .expect_err("another key");
        assert!(err.to_string().contains("key"), "{err}");
        // A profile filed under another name: the first entry's name
        // ("alpha", after the key, the entry count and its length) edited.
        let mut renamed = payload.to_vec();
        assert_eq!(&renamed[24..29], b"alpha");
        renamed[24] = b'b';
        let err = unseal(&signed(&renamed)).expect_err("misfiled profile");
        assert!(err.to_string().contains("another name"), "{err}");
        // (Off-grid counts and inconsistent counters: `profile.rs`.)
    }

    /// The bytes `Session` (in `asm-experiments`, which tests the file
    /// handling itself) writes and reads back survive a trip through a
    /// file.
    #[test]
    fn save_and_load_round_trip_on_disk() {
        let store = sample_store();
        let dir = std::env::temp_dir()
            .join(format!("asm_reuse_profile_store_test_{}", std::process::id()));
        let path = dir.join(format!("{:016x}.bin", 0));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(&path, seal(&store)).expect("save");
        let back = unseal(&std::fs::read(&path).expect("load"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, Ok(store));
    }
}
