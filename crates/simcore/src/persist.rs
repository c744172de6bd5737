//! Versioned state persistence shared by every cache and checkpoint in
//! the workspace.
//!
//! Three artefact families are serialized across process lifetimes: the
//! alone-run cache (`asm-core`), the analytic reuse-profile cache
//! (`asm-analytic`), and full `System` snapshots plus run manifests (the
//! checkpoint layer). They all follow the same policy, implemented once
//! here:
//!
//! * **Versioned headers.** Every artefact starts with a magic string, a
//!   format name, and a `u32` version. Readers reject anything else — a
//!   stale or foreign file is never silently misinterpreted.
//! * **Little-endian binary framing.** All multi-byte values are
//!   little-endian; floats travel as IEEE-754 bit patterns so a
//!   save/load round trip is bitwise-exact.
//! * **Checksummed payloads.** Artefacts end with a [`DetHasher`]
//!   digest of the payload; truncation and bit rot surface as
//!   [`PersistError::Corrupt`], not as garbage state.
//! * **Keyed envelopes.** An artefact filed under a key opens with it
//!   ([`seal`] / [`open`]): one written for another configuration, mix
//!   or horizon is refused before a byte of its value is read.
//! * **Warn-and-rebuild.** A missing artefact is simply absent; an
//!   unreadable, stale, or corrupt one is discarded with a warning and
//!   rebuilt. The files are the harness's: `asm-experiments`' `Session`
//!   reads them and writes them atomically, because simulation crates
//!   neither touch the file system nor print (DESIGN.md §8, R9 and R7).
//!
//! # Component state: [`Persist`] and [`persist_fields!`](crate::persist_fields)
//!
//! Everything that rides in a snapshot or manifest implements
//! [`Persist`]: `save` appends the value to a [`StateWriter`], `restore`
//! overwrites a target **in place** — the target is first built from the
//! same configuration that built the saved value, so geometry, policies
//! and registrations already exist and only dynamic state travels.
//! Primitives, `Option`, arrays, tuples, `Box`, slices and the std
//! containers have impls here; a component declares its own with one
//! field list, each field named once:
//!
//! * `field` — restored through the field type's own impl (a `Vec` is
//!   *dynamic*: cleared and refilled to the stored length);
//! * `[field]` — *structural*: the container's shape is fixed by the
//!   configuration, so the stored length (or `Option` presence) must equal
//!   the target's and the elements restore in place;
//! * `(= field)` — *must-equal*: written, and on restore compared with
//!   the target's own value (application counts, enabled flags, names).
//!   `(= method())` does the same with a value the component derives.
//!
//! A failing field is named in the error (`Bank.open_rows: stored length
//! 8, target 16`). An optional `=> check` function runs after the fields
//! for what one field cannot see: cross-field consistency, index ranges,
//! rebuilding derived state.
//!
//! **Any edit to a field list is a format change**: bump the version of
//! every artefact the type travels in.
//!
//! # Examples
//!
//! ```
//! use asm_simcore::persist::{Persist, PersistError, StateReader, StateWriter};
//! use asm_simcore::persist_fields;
//!
//! struct Bank {
//!     banks: usize,
//!     open_rows: Vec<Option<u64>>,
//!     queue: Vec<u64>,
//! }
//!
//! impl Bank {
//!     fn check_restored(&self) -> Result<(), PersistError> {
//!         if self.queue.len() > 4 * self.banks {
//!             return Err(PersistError::Corrupt("queue over capacity".to_owned()));
//!         }
//!         Ok(())
//!     }
//! }
//!
//! persist_fields!(Bank { (= banks), [open_rows], queue } => Bank::check_restored);
//!
//! let saved = Bank { banks: 2, open_rows: vec![Some(7), None], queue: vec![1, 2, 3] };
//! let mut w = StateWriter::new("example-state", 1);
//! saved.save(&mut w);
//! let bytes = w.finish();
//!
//! // The target is built from the same configuration, then overwritten.
//! let mut target = Bank { banks: 2, open_rows: vec![None; 2], queue: Vec::new() };
//! let mut r = StateReader::new(&bytes, "example-state", 1).unwrap();
//! target.restore(&mut r).unwrap();
//! r.finish().unwrap();
//! assert_eq!(target.open_rows, saved.open_rows);
//! assert_eq!(target.queue, saved.queue);
//!
//! // A target of another shape is refused, and the error names the field.
//! let mut wide = Bank { banks: 2, open_rows: vec![None; 4], queue: Vec::new() };
//! let mut r = StateReader::new(&bytes, "example-state", 1).unwrap();
//! let err = wide.restore(&mut r).unwrap_err();
//! assert_eq!(err.to_string(), "corrupt: Bank.open_rows: stored length 2, target 4");
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::hash::DetHasher;
use crate::{AppId, DetHashMap, HeadStall, LineAddr};

/// Magic prefix identifying every binary artefact written by this module.
pub const MAGIC: &[u8; 8] = b"ASMPRST\0";

/// Why a persisted artefact was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The magic or format name did not match — not one of our artefacts,
    /// or an artefact of a different kind.
    BadHeader(String),
    /// Recognised format, incompatible version; the artefact predates (or
    /// postdates) this build and must be rebuilt.
    StaleVersion {
        /// The format name found in the header.
        format: String,
        /// The version found in the header.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// The payload ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// The payload is structurally invalid: checksum mismatch, trailing
    /// garbage, an out-of-range value, or state that does not match the
    /// structure it is being restored into.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader(what) => write!(f, "unrecognised header: {what}"),
            PersistError::StaleVersion {
                format,
                found,
                expected,
            } => write!(f, "{format}: version {found}, this build expects v{expected}"),
            PersistError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, {available} available")
            }
            PersistError::Corrupt(why) => write!(f, "corrupt: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Prefixes a [`Corrupt`](Self::Corrupt) reason with where it was
    /// found (`Type.field`); other errors pass through unchanged.
    #[must_use]
    pub fn at(self, place: &str) -> Self {
        match self {
            PersistError::Corrupt(why) => PersistError::Corrupt(format!("{place}: {why}")),
            other => other,
        }
    }
}

/// Little-endian binary state writer with a versioned header and a
/// trailing payload checksum. See the module docs for an example.
#[derive(Debug)]
pub struct StateWriter {
    buf: Vec<u8>,
    payload_start: usize,
}

impl StateWriter {
    /// Starts an artefact of the given format name and version.
    #[must_use]
    pub fn new(format: &str, version: u32) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(format.len() as u32).to_le_bytes());
        buf.extend_from_slice(format.as_bytes());
        buf.extend_from_slice(&version.to_le_bytes());
        let payload_start = buf.len();
        StateWriter { buf, payload_start }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bitwise round trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Writes a length-prefixed `f64` slice (bit patterns).
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Appends the payload checksum and returns the finished artefact.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let mut h = DetHasher::default();
        h.write(&self.buf[self.payload_start..]);
        let sum = h.finish();
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Reader for artefacts produced by [`StateWriter`]. Validates the
/// header and checksum up front; every read is bounds-checked.
#[derive(Debug)]
pub struct StateReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Validates magic, format name, version, and payload checksum, and
    /// positions the reader at the start of the payload.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadHeader`] on wrong magic or format name,
    /// [`PersistError::StaleVersion`] on a version mismatch,
    /// [`PersistError::Truncated`] / [`PersistError::Corrupt`] on a
    /// damaged payload.
    pub fn new(data: &'a [u8], format: &str, version: u32) -> Result<Self, PersistError> {
        let mut r = StateReader { data, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(PersistError::BadHeader("bad magic".to_owned()));
        }
        let name_len = r.raw_u32()? as usize;
        if name_len > 1024 {
            return Err(PersistError::BadHeader("format name too long".to_owned()));
        }
        let name = r.take(name_len)?.to_vec();
        let found_name = String::from_utf8(name)
            .map_err(|_| PersistError::BadHeader("format name not UTF-8".to_owned()))?;
        if found_name != format {
            return Err(PersistError::BadHeader(format!(
                "format '{found_name}', expected '{format}'"
            )));
        }
        let found_version = r.raw_u32()?;
        if found_version != version {
            return Err(PersistError::StaleVersion {
                format: found_name,
                found: found_version,
                expected: version,
            });
        }
        // Checksum covers everything between the header and the trailing
        // 8-byte digest.
        let payload_start = r.pos;
        if data.len() < payload_start + 8 {
            return Err(PersistError::Truncated {
                needed: payload_start + 8,
                available: data.len(),
            });
        }
        let sum_pos = data.len() - 8;
        let mut h = DetHasher::default();
        h.write(&data[payload_start..sum_pos]);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&data[sum_pos..]);
        if h.finish() != u64::from_le_bytes(stored) {
            return Err(PersistError::Corrupt("checksum mismatch".to_owned()));
        }
        // Reads must stop short of the checksum.
        Ok(StateReader {
            data: &data[..sum_pos],
            pos: payload_start,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let available = self.data.len() - self.pos;
        if n > available {
            return Err(PersistError::Truncated { needed: n, available });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn raw_u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] / [`PersistError::Corrupt`].
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        self.raw_u32()
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
    }

    /// Reads a `usize` written by [`StateWriter::usize`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if the value does not fit this
    /// platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| PersistError::Corrupt("string not UTF-8".to_owned()))
    }

    /// Reads a length-prefixed `u64` slice.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.checked_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed `f64` slice (bit patterns).
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of payload.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.checked_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a sequence length, rejecting lengths that could not possibly
    /// fit in the remaining payload (each element needs at least
    /// `min_elem_bytes`). Use before element loops so a corrupt length
    /// fails fast instead of attempting a huge allocation.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] when the declared length exceeds the
    /// remaining payload.
    pub fn checked_len(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        let available = self.data.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > available {
            return Err(PersistError::Truncated {
                needed: n.saturating_mul(min_elem_bytes.max(1)),
                available,
            });
        }
        Ok(n)
    }

    /// Declares the read complete; trailing payload bytes are an error.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] when unread payload bytes remain.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.data.len() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing payload bytes",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// `Ok` when `holds`, otherwise [`PersistError::Corrupt`] with `why` — the
/// shape of nearly every post-restore check.
///
/// # Errors
///
/// `Corrupt(why)` when `holds` is false.
pub fn ensure(holds: bool, why: &str) -> Result<(), PersistError> {
    if holds {
        Ok(())
    } else {
        Err(PersistError::Corrupt(why.to_owned()))
    }
}

/// State that travels in a persist envelope. See the module docs for the
/// field-list macro that implements it for components.
///
/// `restore` overwrites `self` in place, and the target must have been
/// built from the same configuration as the value that was saved. **On
/// `Err` the target may be half-written**: the caller drops it (as
/// `Runner::restore` does, before every harness falls back to a cold
/// run) — no impl buys all-or-nothing with a second copy of its state.
pub trait Persist {
    /// Appends this value to `w`.
    fn save(&self, w: &mut StateWriter);

    /// Overwrites this value with the next one in `r`.
    ///
    /// # Errors
    ///
    /// Reader errors, and [`PersistError::Corrupt`] when the stored value
    /// does not fit this target.
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError>;

    /// Appends every value of `run`, unframed. One by one by default; the
    /// primitives override both run methods so that the loop over a cache
    /// arena compiles next to the writer it fills (and is one copy for
    /// bytes) instead of calling across crates once per element.
    fn save_run(run: &[Self], w: &mut StateWriter)
    where
        Self: Sized,
    {
        run.iter().for_each(|v| v.save(w));
    }

    /// Overwrites every value of `run` in place.
    ///
    /// # Errors
    ///
    /// Those of [`restore`](Self::restore).
    fn restore_run(run: &mut [Self], r: &mut StateReader<'_>) -> Result<(), PersistError>
    where
        Self: Sized,
    {
        run.iter_mut().try_for_each(|v| v.restore(r))
    }
}

impl Persist for u8 {
    #[inline]
    fn save(&self, w: &mut StateWriter) {
        w.u8(*self);
    }
    #[inline]
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        *self = r.u8()?;
        Ok(())
    }
    fn save_run(run: &[u8], w: &mut StateWriter) {
        w.buf.extend_from_slice(run);
    }
    fn restore_run(run: &mut [u8], r: &mut StateReader<'_>) -> Result<(), PersistError> {
        run.copy_from_slice(r.take(run.len())?);
        Ok(())
    }
}

macro_rules! persist_primitives {
    ($($ty:ident),*) => {$(
        impl Persist for $ty {
            #[inline]
            fn save(&self, w: &mut StateWriter) {
                w.$ty(*self);
            }
            #[inline]
            fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
                *self = r.$ty()?;
                Ok(())
            }
            fn save_run(run: &[$ty], w: &mut StateWriter) {
                run.iter().for_each(|&v| w.$ty(v));
            }
            fn restore_run(run: &mut [$ty], r: &mut StateReader<'_>) -> Result<(), PersistError> {
                run.iter_mut().try_for_each(|v| v.restore(r))
            }
        }
    )*};
}
persist_primitives!(bool, u32, u64, i64, usize, f64);

impl Persist for AppId {
    fn save(&self, w: &mut StateWriter) {
        w.usize(self.index());
    }
    /// Any 16-bit index restores; whether it names one of the target's
    /// applications is for the owner's post-restore check to say.
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        let index = r.usize()?;
        if index > usize::from(u16::MAX) {
            return Err(PersistError::Corrupt(format!("application index {index}")));
        }
        *self = AppId::new(index);
        Ok(())
    }
}

impl Persist for LineAddr {
    fn save(&self, w: &mut StateWriter) {
        w.u64(self.raw());
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        *self = LineAddr::new(r.u64()?);
        Ok(())
    }
}

impl Persist for HeadStall {
    fn save(&self, w: &mut StateWriter) {
        w.u8(*self as u8);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        *self = match r.u8()? {
            0 => HeadStall::Progress,
            1 => HeadStall::HitWait,
            2 => HeadStall::Backpressure,
            3 => HeadStall::MemStall,
            other => return Err(PersistError::Corrupt(format!("stall kind byte {other}"))),
        };
        Ok(())
    }
}

impl Persist for String {
    fn save(&self, w: &mut StateWriter) {
        w.str(self);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        self.clear();
        self.push_str(r.str()?);
        Ok(())
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn save(&self, w: &mut StateWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        if r.bool()? {
            self.get_or_insert_with(T::default).restore(r)
        } else {
            *self = None;
            Ok(())
        }
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut StateWriter) {
        T::save_run(self, w);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        T::restore_run(self, r)
    }
}

macro_rules! persist_tuples {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            fn save(&self, w: &mut StateWriter) {
                $(self.$idx.save(w);)+
            }
            fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
                $(self.$idx.restore(r)?;)+
                Ok(())
            }
        }
    )*};
}
persist_tuples!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

impl<T: Persist + ?Sized> Persist for Box<T> {
    fn save(&self, w: &mut StateWriter) {
        (**self).save(w);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        (**self).restore(r)
    }
}

/// Restored through [`Arc::make_mut`]: a target shared at restore time is
/// cloned first, never written under its other holders.
impl<T: Persist + Clone> Persist for Arc<T> {
    fn save(&self, w: &mut StateWriter) {
        (**self).save(w);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        Arc::make_mut(self).restore(r)
    }
}

/// Structural: a slice cannot grow, so the stored length must equal the
/// target's, and the elements restore in place.
impl<T: Persist> Persist for [T] {
    fn save(&self, w: &mut StateWriter) {
        w.usize(self.len());
        T::save_run(self, w);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        let stored = r.usize()?;
        if stored != self.len() {
            return Err(PersistError::Corrupt(format!(
                "stored length {stored}, target {}",
                self.len()
            )));
        }
        T::restore_run(self, r)
    }
}

fn save_seq<'a, T: Persist + 'a>(
    w: &mut StateWriter,
    len: usize,
    items: impl IntoIterator<Item = &'a T>,
) {
    w.usize(len);
    items.into_iter().for_each(|v| v.save(w));
}

/// Reads a dynamic container's elements: the length prefix is bounded by
/// the remaining payload and nothing is allocated ahead of the elements
/// actually read, so a forged length costs nothing.
fn restore_seq<T: Persist + Default>(
    r: &mut StateReader<'_>,
    mut push: impl FnMut(T) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    for _ in 0..r.checked_len(1)? {
        let mut v = T::default();
        v.restore(r)?;
        push(v)?;
    }
    Ok(())
}

/// Dynamic: cleared and refilled to the stored length.
impl<T: Persist + Default> Persist for Vec<T> {
    fn save(&self, w: &mut StateWriter) {
        self.as_slice().save(w);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        self.clear();
        restore_seq(r, |v| {
            self.push(v);
            Ok(())
        })
    }
}

/// Dynamic, front to back.
impl<T: Persist + Default> Persist for VecDeque<T> {
    fn save(&self, w: &mut StateWriter) {
        save_seq(w, self.len(), self);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        self.clear();
        restore_seq(r, |v| {
            self.push_back(v);
            Ok(())
        })
    }
}

fn save_entries<'a, K: Persist + 'a, V: Persist + 'a>(
    w: &mut StateWriter,
    len: usize,
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) {
    w.usize(len);
    for (k, v) in entries {
        k.save(w);
        v.save(w);
    }
}

/// Reads a map's entries; a key stored twice is corrupt.
fn restore_entries<K: Persist + Default, V: Persist + Default>(
    r: &mut StateReader<'_>,
    mut insert: impl FnMut(K, V) -> Option<V>,
) -> Result<(), PersistError> {
    restore_seq(r, |(k, v): (K, V)| match insert(k, v) {
        None => Ok(()),
        Some(_) => Err(PersistError::Corrupt("key stored twice".to_owned())),
    })
}

/// Dynamic, written sorted by key: a hash map's iteration order is
/// arbitrary, so the sorted form is canonical.
impl<K, V> Persist for DetHashMap<K, V>
where
    K: Persist + Default + Ord + Hash,
    V: Persist + Default,
{
    fn save(&self, w: &mut StateWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        save_entries(w, entries.len(), entries);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        self.clear();
        restore_entries(r, |k, v| self.insert(k, v))
    }
}

/// Dynamic, in key order.
impl<K: Persist + Default + Ord, V: Persist + Default> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut StateWriter) {
        save_entries(w, self.len(), self);
    }
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        self.clear();
        restore_entries(r, |k, v| self.insert(k, v))
    }
}

/// The `(= field)` kind of [`persist_fields!`](crate::persist_fields):
/// reads a value of `target`'s type and requires it to equal `target`.
///
/// # Errors
///
/// Reader errors; [`PersistError::Corrupt`] naming both values when they
/// differ.
pub fn restore_equal<T: Persist + Clone + PartialEq + fmt::Debug>(
    target: &T,
    r: &mut StateReader<'_>,
) -> Result<(), PersistError> {
    let mut stored = target.clone();
    stored.restore(r)?;
    if stored == *target {
        return Ok(());
    }
    // Long values (a registry's whole name list) are cut, not dumped.
    let brief = |v: &T| format!("{v:?}").chars().take(80).collect::<String>();
    Err(PersistError::Corrupt(format!(
        "stored {}, target {}",
        brief(&stored),
        brief(target)
    )))
}

/// Implements [`Persist`] for a struct from one list of its persisted
/// fields, in wire order. See the module docs for the three field kinds
/// and an example. `=> check` is a function or closure taking `&mut Self`
/// (or `&Self`) and returning `Result<(), PersistError>`, run after the
/// fields are restored; [`ensure`](crate::persist::ensure) writes most.
#[macro_export]
macro_rules! persist_fields {
    ($ty:ident { $($field:tt),* $(,)? } $(=> $check:expr)?) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, w: &mut $crate::persist::StateWriter) {
                $($crate::persist_fields!(@save self w $field);)*
                let _ = w;
            }
            fn restore(
                &mut self,
                r: &mut $crate::persist::StateReader<'_>,
            ) -> Result<(), $crate::persist::PersistError> {
                $($crate::persist_fields!(@restore self r $field)
                    .map_err(|e| e.at(concat!(stringify!($ty), ".", $crate::persist_fields!(@name $field))))?;)*
                $($check(self).map_err(|e| e.at(stringify!($ty)))?;)?
                let _ = r;
                Ok(())
            }
        }
    };
    (@name [$f:ident]) => { stringify!($f) };
    (@name (= $f:ident $($call:tt)?)) => { stringify!($f) };
    (@name $f:ident) => { stringify!($f) };
    (@save $s:ident $w:ident [$f:ident]) => {
        $crate::persist::Persist::save($s.$f.as_slice(), $w)
    };
    (@save $s:ident $w:ident (= $f:ident $($call:tt)?)) => {
        $crate::persist::Persist::save(&$s.$f $($call)?, $w)
    };
    (@save $s:ident $w:ident $f:ident) => {
        $crate::persist::Persist::save(&$s.$f, $w)
    };
    (@restore $s:ident $r:ident [$f:ident]) => {
        $crate::persist::Persist::restore($s.$f.as_mut_slice(), $r)
    };
    (@restore $s:ident $r:ident (= $f:ident $($call:tt)?)) => {
        $crate::persist::restore_equal(&$s.$f $($call)?, $r)
    };
    (@restore $s:ident $r:ident $f:ident) => {
        $crate::persist::Persist::restore(&mut $s.$f, $r)
    };
}

/// A *keyed envelope*: an artefact of `format`/`version` whose payload
/// opens with the `key` it was stored under — everything the value is a
/// pure function of, hashed — followed by `value`. The one codec of
/// every keyed artefact (snapshots, run manifests, sampled manifests).
#[must_use]
pub fn seal<T: Persist + ?Sized>(format: &str, version: u32, key: u64, value: &T) -> Vec<u8> {
    let mut w = StateWriter::new(format, version);
    w.u64(key);
    value.save(&mut w);
    w.finish()
}

/// Opens a [`seal`]ed envelope and returns the reader positioned at the
/// value, for a caller that restores it in place.
///
/// # Errors
///
/// The reader's header, version and checksum errors;
/// [`PersistError::Corrupt`] when the envelope was sealed under another
/// key — an artefact of another configuration, mix or horizon.
pub fn open<'a>(
    bytes: &'a [u8],
    format: &str,
    version: u32,
    key: u64,
) -> Result<StateReader<'a>, PersistError> {
    let mut r = StateReader::new(bytes, format, version)?;
    let found = r.u64()?;
    if found != key {
        return Err(PersistError::Corrupt(format!(
            "{format} key {found:016x}, expected {key:016x}"
        )));
    }
    Ok(r)
}

/// [`open`]s an envelope and reads the whole value out of it.
///
/// # Errors
///
/// Those of [`open`] and of `T`'s [`Persist::restore`]; trailing bytes.
pub fn unseal<T: Persist + Default>(
    bytes: &[u8],
    format: &str,
    version: u32,
    key: u64,
) -> Result<T, PersistError> {
    let mut r = open(bytes, format, version, key)?;
    let mut value = T::default();
    value.restore(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = StateWriter::new("t", 3);
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(12345);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bytes(b"raw");
        w.str("text");
        w.u64_slice(&[1, 2, 3]);
        w.f64_slice(&[0.5, 1.5]);
        let bytes = w.finish();

        let mut r = StateReader::new(&bytes, "t", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "text");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f64_vec().unwrap(), vec![0.5, 1.5]);
        r.finish().unwrap();
    }

    #[test]
    fn wrong_format_name_is_bad_header() {
        let bytes = StateWriter::new("a", 1).finish();
        assert!(matches!(
            StateReader::new(&bytes, "b", 1),
            Err(PersistError::BadHeader(_))
        ));
    }

    #[test]
    fn version_mismatch_is_stale() {
        let bytes = StateWriter::new("a", 1).finish();
        assert_eq!(
            StateReader::new(&bytes, "a", 2).err(),
            Some(PersistError::StaleVersion {
                format: "a".to_owned(),
                found: 1,
                expected: 2,
            })
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = StateWriter::new("a", 1);
        w.u64_slice(&[1, 2, 3, 4]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let r = StateReader::new(&bytes[..cut], "a", 1);
            let err = match r {
                Err(e) => e,
                Ok(mut r) => {
                    // Header happens to survive the cut; the payload must
                    // not parse cleanly.
                    let e = r.u64_vec().err();
                    e.expect("truncated payload must not parse")
                }
            };
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Corrupt(_)
                        | PersistError::BadHeader(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_is_corrupt() {
        let mut w = StateWriter::new("a", 1);
        w.u64(77);
        w.str("payload");
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let r = StateReader::new(&bytes, "a", 1);
        assert!(r.is_err(), "flipped byte {mid} must not verify");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = StateWriter::new("a", 1);
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes, "a", 1).unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        assert!(matches!(r.finish(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_fails_fast() {
        // Hand-craft a payload whose declared slice length exceeds the
        // remaining bytes by orders of magnitude.
        let mut w = StateWriter::new("a", 1);
        w.usize(usize::MAX / 2);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes, "a", 1).unwrap();
        assert!(matches!(
            r.u64_vec(),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn keyed_envelope_round_trips_and_refuses_other_keys_formats_and_versions() {
        let value = vec![(1u64, "one".to_owned()), (2, "two".to_owned())];
        let bytes = seal("kv", 3, 0xFEED, &value);
        assert_eq!(unseal::<Vec<(u64, String)>>(&bytes, "kv", 3, 0xFEED), Ok(value));
        // In place: the reader `open` returns stands at the value.
        let mut first = 0u64;
        let mut r = open(&bytes, "kv", 3, 0xFEED).unwrap();
        r.usize().unwrap();
        first.restore(&mut r).unwrap();
        assert_eq!(first, 1);

        let other_key = unseal::<Vec<(u64, String)>>(&bytes, "kv", 3, 0xFEEE);
        assert!(matches!(other_key, Err(PersistError::Corrupt(why)) if why.contains("000000000000feed")));
        assert!(matches!(open(&bytes, "vk", 3, 0xFEED), Err(PersistError::BadHeader(_))));
        assert!(matches!(open(&bytes, "kv", 4, 0xFEED), Err(PersistError::StaleVersion { .. })));
        assert!(open(&bytes[..bytes.len() - 1], "kv", 3, 0xFEED).is_err());
        // A value shorter than the envelope's is trailing bytes, not a prefix read.
        assert!(matches!(unseal::<u64>(&bytes, "kv", 3, 0xFEED), Err(PersistError::Corrupt(_))));
    }
}
