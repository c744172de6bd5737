//! Disk cache of [`ReuseProfile`]s: the `AloneCache` pattern, analytic
//! edition.
//!
//! Same discipline as the cycle tier's alone-run cache: one versioned,
//! checksummed persist envelope, a restore that rejects anything
//! malformed, and staleness detection by fingerprint — an entry whose key
//! does not match the current (source profile, parameters, algorithm)
//! fingerprint is simply re-extracted, so a cache file from an older
//! binary can never change results, only fail to speed things up.
//!
//! The payload is **integers only** (counters and bucket counts). The
//! floating-point tail/footprint curves are derived and recomputed on
//! load, so a loaded profile is bitwise identical to a freshly extracted
//! one (pinned by tests).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use asm_cpu::AppProfile;
use asm_simcore::persist::{self, ensure, Persist as _, PersistError, StateReader, StateWriter};

use crate::profile::{profile_key, ProfileParams, ReuseProfile};

/// Format name of the profile cache; bump [`PROFILE_CACHE_VERSION`] on
/// any format change.
pub const PROFILE_CACHE_NAME: &str = "asm-reuse-profile";

/// Version of [`PROFILE_CACHE_NAME`]. v1 was a line-oriented text file;
/// v2 is a persist envelope written from `ReuseProfile`'s field list.
pub const PROFILE_CACHE_VERSION: u32 = 2;

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

    /// Looks up a profile by workload name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ReuseProfile> {
        self.entries.get(name)
    }

    /// Inserts (or replaces) a profile under its workload name.
    pub fn put(&mut self, profile: ReuseProfile) {
        self.entries.insert(profile.name().to_owned(), profile);
    }

    /// Returns the profile for `profile`, extracting it if the store has
    /// no entry — or only a *stale* entry (fingerprint mismatch: the
    /// source model, the parameters or the algorithm changed).
    pub fn ensure(&mut self, profile: &AppProfile, params: &ProfileParams) -> &ReuseProfile {
        let key = profile_key(profile, params);
        let fresh = self
            .entries
            .get(profile.name())
            .is_some_and(|e| e.key() == key);
        if !fresh {
            self.put(ReuseProfile::extract(profile, params));
        }
        self.entries
            .get(profile.name())
            .expect("entry inserted above")
    }

    /// The store as one persist envelope.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new(PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION);
        self.save(&mut w);
        w.finish()
    }

    /// Reads what [`to_bytes`](Self::to_bytes) wrote.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: a foreign or stale artefact (the
    /// text format of earlier builds included), damage, counts off the
    /// canonical bucket grid, inconsistent counters, or a profile filed
    /// under another name.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = StateReader::new(bytes, PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION)?;
        let mut store = ProfileStore::new();
        store.restore(&mut r)?;
        r.finish()?;
        Ok(store)
    }

    /// Writes the store to `path` atomically (temp file + rename, via
    /// [`persist::write_atomic`]): a reader racing the write sees either
    /// the old store or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        persist::write_atomic(path, &self.to_bytes())
    }

    /// Reads a store previously written by [`Self::save_to`] under the
    /// workspace-wide warn-and-rebuild policy
    /// ([`persist::load_or_rebuild`]): a missing file starts empty
    /// silently; an unreadable, stale, or corrupt file starts empty with
    /// a warning string the caller surfaces — a bad cache file must never
    /// change results, only fail to speed things up.
    #[must_use]
    pub fn load_or_warn(path: &Path) -> (Self, Option<String>) {
        let (store, warning) = persist::load_or_rebuild(path, Self::from_bytes);
        (store.unwrap_or_default(), warning)
    }
}

asm_simcore::persist_fields!(ProfileStore { entries } => |s: &ProfileStore| {
    let filed_by_name = s.entries.iter().all(|(name, p)| name == p.name());
    ensure(filed_by_name, "profile filed under another name")
});

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_is_bitwise_identical() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let back = ProfileStore::from_bytes(&bytes).expect("parse own output");
        assert_eq!(store, back);
        // And the re-rendered artefact is byte-identical.
        assert_eq!(bytes, back.to_bytes());
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
                ProfileStore::from_bytes(foreign.as_bytes()),
                Err(PersistError::BadHeader(_) | PersistError::Truncated { .. })
            ));
        }
        let v1 = StateWriter::new(PROFILE_CACHE_NAME, 1).finish();
        assert!(matches!(
            ProfileStore::from_bytes(&v1),
            Err(PersistError::StaleVersion { found: 1, .. })
        ));
    }

    /// A validly-signed artefact around `payload`.
    fn signed(payload: &[u8]) -> Vec<u8> {
        let mut w = StateWriter::new(PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION);
        payload.iter().for_each(|&b| w.u8(b));
        w.finish()
    }

    #[test]
    fn corrupt_or_truncated_files_are_rejected() {
        let bytes = sample_store().to_bytes();
        let payload = &bytes[8 + 4 + PROFILE_CACHE_NAME.len() + 4..bytes.len() - 8];
        assert_eq!(signed(payload), bytes, "re-signing is faithful");
        // Damage the checksum catches.
        assert!(ProfileStore::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        // Truncated mid-profile, re-signed.
        assert!(ProfileStore::from_bytes(&signed(&payload[..payload.len() / 2])).is_err());
        // Trailing garbage, re-signed.
        assert!(ProfileStore::from_bytes(&signed(&[payload, b"junk"].concat())).is_err());
        // A profile filed under another name: the first entry's key
        // ("alpha", after the entry count and its length) edited.
        let mut renamed = payload.to_vec();
        assert_eq!(&renamed[16..21], b"alpha");
        renamed[16] = b'b';
        let err = ProfileStore::from_bytes(&signed(&renamed)).expect_err("misfiled profile");
        assert!(err.to_string().contains("another name"), "{err}");
        // (Off-grid counts and inconsistent counters: `profile.rs`.)
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let store = sample_store();
        let dir = std::env::temp_dir();
        let path = dir.join("asm_reuse_profile_store_test.bin");
        store.save_to(&path).expect("save");
        let (back, warning) = ProfileStore::load_or_warn(&path);
        assert_eq!(warning, None);
        assert_eq!(store, back);

        // Corrupt file: empty store plus a warning naming the file.
        std::fs::write(&path, "garbage\n").expect("write");
        let (empty, warning) = ProfileStore::load_or_warn(&path);
        assert!(empty.is_empty());
        assert!(warning.expect("warning").contains("asm_reuse_profile_store_test"));

        // Missing file: silent empty start.
        std::fs::remove_file(&path).ok();
        let (empty, warning) = ProfileStore::load_or_warn(&path);
        assert!(empty.is_empty());
        assert_eq!(warning, None);
    }
}
