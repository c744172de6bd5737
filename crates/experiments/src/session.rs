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

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use asm_analytic::ProfileStore;
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
    /// `--alone-cache F`.
    pub alone_cache: Option<PathBuf>,
    /// `--profile-cache F`.
    pub profile_cache: Option<PathBuf>,
}

/// One kind of checkpointed artefact: its subdirectory and the persist
/// envelope (format name, version) it travels in.
#[derive(Debug)]
pub(crate) struct Kind {
    pub dir: &'static str,
    pub format: &'static str,
    pub version: u32,
}

/// See the module docs.
#[derive(Debug, Default)]
pub struct Session {
    pub(crate) cfg: SessionConfig,
    /// What the sink has recorded, in submission order.
    pub(crate) records: Mutex<Vec<Record>>,
    /// Set once: by `--alone-cache`, else the first `install_alone_cache`.
    alone: OnceLock<Arc<AloneCache>>,
    pub(crate) profiles: Mutex<ProfileStore>,
}

static GLOBAL: OnceLock<Session> = OnceLock::new();

fn report_load(what: &str, unit: &str, path: &Path, len: usize, warning: Option<String>) {
    match warning {
        Some(w) => eprintln!("warning: {what}: {w}"),
        None if len > 0 => eprintln!("{what}: loaded {len} {unit}(s) from {}", path.display()),
        None => {}
    }
}

fn report_save(what: &str, unit: &str, path: &Path, len: usize, saved: std::io::Result<()>) {
    match saved {
        Ok(()) => eprintln!("{what}: saved {len} {unit}(s) to {}", path.display()),
        Err(e) => eprintln!("warning: {what}: could not save {}: {e}", path.display()),
    }
}

impl Session {
    /// Opens a session: loads the file-backed caches (a missing file
    /// starts empty; a corrupt or stale one is ignored with a warning and
    /// overwritten by [`Session::finish`]).
    #[must_use]
    pub fn new(cfg: SessionConfig) -> Session {
        let session = Session {
            cfg,
            ..Session::default()
        };
        if let Some(path) = &session.cfg.alone_cache {
            let (cache, warning) = AloneCache::load_or_warn(path);
            report_load("alone-cache", "run", path, cache.len(), warning);
            session.install_alone_cache(Arc::new(cache));
        }
        if let Some(path) = &session.cfg.profile_cache {
            let (profiles, warning) = ProfileStore::load_or_warn(path);
            report_load("profile-cache", "profile", path, profiles.len(), warning);
            *session.profiles.lock().expect("profile store poisoned") = profiles;
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
    /// amortizes the same alone runs — what `--alone-cache` gives the CLI
    /// across invocations. First installation wins, the flag's included.
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
        let (value, warning) = persist::load_or_rebuild(&self.path(kind, key)?, parse);
        if let Some(w) = warning {
            eprintln!("checkpoint: {w}");
        }
        value
    }

    /// Under `--resume`: the value an earlier invocation stored under
    /// `(kind, key)`, if an intact one is on disk.
    pub(crate) fn replay<T: Persist + Default>(&self, kind: &Kind, key: u64) -> Option<T> {
        if !self.cfg.resume {
            return None;
        }
        self.read(kind, key, |bytes| persist::unseal(bytes, kind.format, kind.version, key))
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
        if let Err(e) = persist::write_atomic(&path, sealed) {
            eprintln!("warning: checkpoint: could not save {}: {e}", path.display());
        }
    }

    /// Ends the invocation: writes the requested report and trace and the
    /// file-backed caches.
    pub fn finish(&self) {
        self.write_artefacts();
        if let (Some(path), Some(cache)) = (&self.cfg.alone_cache, self.alone.get()) {
            report_save("alone-cache", "run", path, cache.len(), cache.save_to(path));
        }
        if let Some(path) = &self.cfg.profile_cache {
            let profiles = self.profiles.lock().expect("profile store poisoned");
            report_save("profile-cache", "profile", path, profiles.len(), profiles.save_to(path));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
    fn emit_without_csv_dir_only_prints() {
        // Must not panic or create files.
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into()]);
        Session::default().emit("smoke_test_no_csv", &t);
    }
}
