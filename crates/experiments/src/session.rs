//! The harness session: the one owner of what an invocation's campaigns
//! share — CSV directory, artefact sink ([`crate::sink`]), checkpoint
//! directory and `--resume` bit, alone-run cache, the analytic tier's
//! profile store.
//!
//! The CLI builds a [`Session`] from its options table and hands it to
//! the experiment; every campaign driver takes `&Session`, so a test can
//! reach the resume, damaged-artefact and fallback paths in-process with
//! a private session over a temp dir. [`Session::global`] serves the
//! signatures that predate it ([`crate::plan::run_campaign`] and
//! siblings): a default session — no checkpoint dir, no sink, a fresh
//! alone cache per campaign until one is installed.
//!
//! Checkpointed artefacts live at `<dir>/<kind.dir>/<key, 16 hex
//! digits>.bin`, one [`persist::seal`]ed envelope each, written
//! atomically. A missing one is absent; an unreadable, stale, damaged or
//! re-keyed one is ignored with a `checkpoint:` warning and rebuilt by
//! whoever asked — results may never depend on what is on disk.
//!
//! Two of the kinds are stores rather than single results: the alone
//! runs (`alone/`) and the reuse profiles (`profiles/`), each one
//! envelope under a fixed key because every entry carries its own key.
//! Both are pure functions of their keys, so a session over a checkpoint
//! directory loads them whether or not it resumes, shares one alone
//! cache across all its campaigns, and saves both in
//! [`Session::finish`]. Finished-run manifests still wait for
//! `--resume`.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use asm_analytic::store::{PROFILE_CACHE_NAME, PROFILE_CACHE_VERSION};
use asm_analytic::ProfileStore;
use asm_core::runner::{ALONE_CACHE_FORMAT, ALONE_CACHE_VERSION};
use asm_core::AloneCache;
use asm_metrics::Table;
use asm_simcore::persist::{self, Persist, PersistError};

use crate::sink::{Record, SinkConfig};

/// What a session is built from: the harness options of the CLI's table.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// `--csv DIR`.
    pub csv_dir: Option<PathBuf>,
    /// `--report F` and `--trace F`.
    pub sink: SinkConfig,
    /// `--checkpoint-dir D`.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--resume`.
    pub resume: bool,
}

/// One kind of checkpointed artefact: its subdirectory and the persist
/// envelope (format name, version) it travels in.
#[derive(Debug)]
pub(crate) struct Kind {
    pub dir: &'static str,
    pub format: &'static str,
    pub version: u32,
}

/// The alone-run store: `<dir>/alone/`, one [`AloneCache`].
pub(crate) const ALONE: Kind = Kind {
    dir: "alone",
    format: ALONE_CACHE_FORMAT,
    version: ALONE_CACHE_VERSION,
};

/// The reuse-profile store: `<dir>/profiles/`, one [`ProfileStore`].
const PROFILES: Kind = Kind {
    dir: "profiles",
    format: PROFILE_CACHE_NAME,
    version: PROFILE_CACHE_VERSION,
};

/// The key each store is filed under.
const STORE_KEY: u64 = 0;

/// See the module docs.
#[derive(Debug, Default)]
pub struct Session {
    pub(crate) cfg: SessionConfig,
    /// What the sink has recorded, in submission order.
    pub(crate) records: Mutex<Vec<Record>>,
    /// Set once: by `--checkpoint-dir`, else the first `install_alone_cache`.
    alone: OnceLock<Arc<AloneCache>>,
    pub(crate) profiles: Mutex<ProfileStore>,
}

static GLOBAL: OnceLock<Session> = OnceLock::new();

impl Session {
    /// Opens a session. Under `--checkpoint-dir` it loads the alone and
    /// profile stores (module docs): a missing store starts empty, a
    /// damaged or stale one starts empty with a `checkpoint:` warning and
    /// is overwritten by [`Session::finish`].
    #[must_use]
    pub fn new(cfg: SessionConfig) -> Session {
        let mut session = Session {
            cfg,
            ..Session::default()
        };
        if session.cfg.checkpoint_dir.is_some() {
            let alone = session.load(&ALONE, STORE_KEY).unwrap_or_default();
            session.install_alone_cache(Arc::new(alone));
            let profiles = session.load(&PROFILES, STORE_KEY).unwrap_or_default();
            *session.profiles.get_mut().expect("profile store poisoned") = profiles;
        }
        session
    }

    /// The process-wide default session (module docs).
    #[must_use]
    pub fn global() -> &'static Session {
        GLOBAL.get_or_init(Session::default)
    }

    /// Prints `table` and, under `--csv`, writes `<dir>/<name>.csv` (the
    /// directory is created on first write), so results can be plotted
    /// without scraping stdout. I/O failures are reported to stderr but
    /// never abort the experiment.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{table}");
        let Some(dir) = &self.cfg.csv_dir else {
            return;
        };
        let path = dir.join(format!("{name}.csv"));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, table.to_csv()));
        match written {
            Ok(()) => eprintln!("[csv] wrote {}", path.display()),
            Err(e) => eprintln!("[csv] failed to write {name}.csv: {e}"),
        }
    }

    /// Routes all subsequent campaigns through `cache`. Harnesses that
    /// compare tiers pre-warm one cache and install it so every tier
    /// amortizes the same alone runs — what `--checkpoint-dir`'s alone
    /// store gives the CLI across invocations. First installation wins,
    /// the store's included.
    pub fn install_alone_cache(&self, cache: Arc<AloneCache>) {
        let _ = self.alone.set(cache);
    }

    /// The alone-run cache a campaign's runners share: the installed one,
    /// else one fresh cache per campaign — either way, every runner of
    /// the campaign dedupes alone simulations against the same table.
    #[must_use]
    pub fn campaign_cache(&self) -> Arc<AloneCache> {
        self.alone.get().map_or_else(|| Arc::new(AloneCache::new()), Arc::clone)
    }

    fn path(&self, kind: &Kind, key: u64) -> Option<PathBuf> {
        let dir = self.cfg.checkpoint_dir.as_ref()?;
        Some(dir.join(kind.dir).join(format!("{key:016x}.bin")))
    }

    fn read<T>(
        &self,
        kind: &Kind,
        key: u64,
        parse: impl FnOnce(&[u8]) -> Result<T, PersistError>,
    ) -> Option<T> {
        let (value, warning) = load_or_rebuild(&self.path(kind, key)?, parse);
        if let Some(w) = warning {
            eprintln!("checkpoint: {w}");
        }
        value
    }

    /// The value an earlier invocation stored under `(kind, key)`, if an
    /// intact one is on disk.
    fn load<T: Persist + Default>(&self, kind: &Kind, key: u64) -> Option<T> {
        self.read(kind, key, |bytes| persist::unseal(bytes, kind.format, kind.version, key))
    }

    /// [`Session::load`], under `--resume` only.
    pub(crate) fn replay<T: Persist + Default>(&self, kind: &Kind, key: u64) -> Option<T> {
        self.cfg.resume.then(|| self.load(kind, key))?
    }

    /// The envelope stored under `(kind, key)` itself — header, checksum
    /// and key verified, the value still sealed — for an artefact that is
    /// restored in place later (a warm-up snapshot).
    pub(crate) fn load_sealed(&self, kind: &Kind, key: u64) -> Option<Vec<u8>> {
        self.read(kind, key, |bytes| {
            persist::open(bytes, kind.format, kind.version, key).map(|_| bytes.to_vec())
        })
    }

    /// Under `--checkpoint-dir`: stores `value` under `(kind, key)`;
    /// failure is a warning.
    pub(crate) fn save<T: Persist + ?Sized>(&self, kind: &Kind, key: u64, value: &T) {
        if self.cfg.checkpoint_dir.is_some() {
            self.save_sealed(kind, key, &persist::seal(kind.format, kind.version, key, value));
        }
    }

    /// [`Session::save`] for an envelope already sealed for `(kind, key)`.
    pub(crate) fn save_sealed(&self, kind: &Kind, key: u64, sealed: &[u8]) {
        let Some(path) = self.path(kind, key) else {
            return;
        };
        if let Err(e) = write_atomic(&path, sealed) {
            eprintln!("warning: checkpoint: could not save {}: {e}", path.display());
        }
    }

    /// Ends the invocation: writes the requested report and trace and,
    /// under `--checkpoint-dir`, the alone and profile stores.
    pub fn finish(&self) {
        self.write_artefacts();
        if let Some(cache) = self.alone.get() {
            self.save(&ALONE, STORE_KEY, &**cache);
        }
        self.save(&PROFILES, STORE_KEY, &*self.profiles.lock().expect("profile store poisoned"));
    }
}

/// The warn-and-rebuild load policy for every checkpointed artefact.
///
/// * File missing → `(None, None)`: rebuild, silently.
/// * File parses → `(Some(artefact), None)`.
/// * File unreadable/stale/corrupt → `(None, Some(warning))`: rebuild;
///   the caller prints the warning.
fn load_or_rebuild<T>(
    path: &Path,
    parse: impl FnOnce(&[u8]) -> Result<T, PersistError>,
) -> (Option<T>, Option<String>) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (None, None),
        Err(e) => {
            return (
                None,
                Some(format!(
                    "could not read {}: {e}; rebuilding",
                    path.display()
                )),
            )
        }
    };
    match parse(&bytes) {
        Ok(t) => (Some(t), None),
        Err(e) => (
            None,
            Some(format!(
                "ignoring {}: {e}; rebuilding",
                path.display()
            )),
        ),
    }
}

/// Writes `bytes` to `path` atomically: a unique sibling temp file is
/// written and fsynced, then renamed over the target. A campaign killed
/// mid-write leaves either the old artefact or the new one, never a
/// torn file — the invariant `--resume` relies on.
///
/// # Errors
///
/// Propagates the underlying I/O error.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    // Unique per process so concurrent writers of the same artefact
    // (identical content, by determinism) cannot tear each other's temp.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asm_analytic::ProfileParams;
    use asm_core::{Runner, SystemConfig};
    use asm_cpu::AppProfile;
    use asm_workloads::suite;

    /// A fresh checkpoint directory under the system temp dir, and a way
    /// to open sessions over it with or without `--resume`.
    pub(crate) fn checkpoint_dir(label: &str) -> (PathBuf, impl Fn(bool) -> Session) {
        let dir = std::env::temp_dir().join(format!("asm_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoint_dir = Some(dir.clone());
        let open = move |resume| {
            Session::new(SessionConfig {
                checkpoint_dir: checkpoint_dir.clone(),
                resume,
                ..SessionConfig::default()
            })
        };
        (dir, open)
    }

    #[test]
    fn stores_round_trip_on_disk() {
        let (dir, open) = checkpoint_dir("session_stores");
        let apps: Vec<AppProfile> = ["mcf_like", "povray_like"]
            .iter()
            .map(|n| suite::by_name(n).expect("suite profile"))
            .collect();
        let stores = |session: &Session| {
            let profiles = session.profiles.lock().expect("profile store").clone();
            (profiles, session.campaign_cache().len())
        };

        let first = open(false);
        for app in &apps {
            first.profiles.lock().unwrap().ensure(app, &ProfileParams::default());
        }
        let runner = Runner::with_cache(SystemConfig::default(), first.campaign_cache());
        let _ = runner.alone_progress(&apps, 0, 20_000);
        first.finish();
        let saved = stores(&first);
        assert_eq!((saved.0.len(), saved.1), (2, 1));
        // With or without --resume, the next session starts from them.
        for resume in [false, true] {
            assert_eq!(stores(&open(resume)), saved);
        }

        // Damaged stores: empty starts (each with a warning), rewritten
        // whole by the next finish.
        for kind in [&ALONE, &PROFILES] {
            std::fs::write(dir.join(kind.dir).join(format!("{STORE_KEY:016x}.bin")), "garbage\n")
                .unwrap();
        }
        let damaged = open(false);
        assert_eq!(stores(&damaged), (ProfileStore::new(), 0));
        first.finish();
        assert_eq!(stores(&open(false)), saved);

        // Missing stores: a silent empty start.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(stores(&open(false)), (ProfileStore::new(), 0));
    }

    #[test]
    fn emit_without_csv_dir_only_prints() {
        // Must not panic or create files.
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into()]);
        Session::default().emit("smoke_test_no_csv", &t);
    }

    #[test]
    fn load_or_rebuild_policy() {
        let dir = std::env::temp_dir().join(format!("asm_persist_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing: silent empty start.
        let (t, warn) = load_or_rebuild(&dir.join("missing.bin"), |_| Ok(()));
        assert_eq!((t, warn), (None, None));

        // Present and parsable.
        let good = dir.join("good.bin");
        write_atomic(&good, b"x").unwrap();
        let (t, warn) = load_or_rebuild(&good, |b| Ok(b.len()));
        assert_eq!(t, Some(1));
        assert_eq!(warn, None);

        // Present but rejected: empty start plus a warning string.
        let (t, warn) = load_or_rebuild(&good, |_| {
            Err::<(), _>(PersistError::Corrupt("nope".to_owned()))
        });
        assert_eq!(t, None);
        let warn = warn.expect("warning expected");
        assert!(warn.contains("good.bin") && warn.contains("nope"), "{warn}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("asm_persist_atomic_{}", std::process::id()));
        let path = dir.join("nested").join("artefact.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let entries: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1, "temp files must not linger: {entries:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
