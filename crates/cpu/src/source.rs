//! Memory-access sources: synthetic streams or recorded traces.
//!
//! The paper drives its simulator from Pin/PinPoints traces of real
//! benchmarks. This reproduction defaults to synthetic
//! [`AddressStream`]s, but the core is source-agnostic: anything
//! implementing [`AccessSource`] can drive it, including a
//! [`TraceSource`] replaying a recorded access trace — the interface a
//! downstream user with real traces would plug into.
//!
//! # Trace format
//!
//! One access per line: `R <hex line address>` or `W <hex line address>`.
//! Blank lines and lines starting with `#` are ignored.
//!
//! ```text
//! # libquantum, first phase
//! R 0x1a2b
//! R 0x1a2c
//! W 0x0040
//! ```

use std::fmt;
use std::io::{self, BufRead, Write};

use asm_simcore::LineAddr;

use crate::stream::{AddressStream, MemOp};

/// A supplier of memory operations for a core. Its
/// [`Persist`](asm_simcore::persist::Persist) state is its dynamic
/// position, not its configuration: the restore target is rebuilt from
/// the same profile or trace first, and the op stream continues bitwise
/// identically from the restored position.
pub trait AccessSource: fmt::Debug + Send + asm_simcore::persist::Persist {
    /// Produces the next memory operation.
    fn next_op(&mut self) -> MemOp;
}

impl AccessSource for AddressStream {
    fn next_op(&mut self) -> MemOp {
        AddressStream::next_op(self)
    }
}

/// Replays a recorded access trace, looping at the end (benchmarks are far
/// longer than any simulated window, so looping models steady-state
/// behaviour).
///
/// # Examples
///
/// ```
/// use asm_cpu::source::{AccessSource, TraceSource};
/// use asm_simcore::LineAddr;
///
/// let mut t = TraceSource::parse("R 0x10\nW 0x20\n".as_bytes()).unwrap();
/// assert_eq!(t.next_op().line, LineAddr::new(0x10));
/// assert!(t.next_op().is_write);
/// assert_eq!(t.next_op().line, LineAddr::new(0x10)); // loops
/// ```
#[derive(Debug, Clone)]
pub struct TraceSource {
    ops: Vec<MemOp>,
    pos: usize,
}

/// Error parsing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The trace contained no accesses.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Malformed { line, text } => {
                write!(f, "malformed trace line {line}: {text:?}")
            }
            TraceError::Empty => write!(f, "trace contains no accesses"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl TraceSource {
    /// Builds a trace from in-memory operations.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    #[must_use]
    pub fn new(ops: Vec<MemOp>) -> Self {
        assert!(!ops.is_empty(), "trace must contain at least one access");
        TraceSource { ops, pos: 0 }
    }

    /// Parses the text trace format from any reader.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure, malformed lines, or an empty
    /// trace.
    pub fn parse<R: io::Read>(reader: R) -> Result<Self, TraceError> {
        let mut ops = Vec::new();
        for (idx, line) in io::BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let malformed = || TraceError::Malformed {
                line: idx + 1,
                text: trimmed.to_owned(),
            };
            let (kind, addr) = trimmed
                .split_once(char::is_whitespace)
                .ok_or_else(malformed)?;
            let is_write = match kind {
                "R" | "r" => false,
                "W" | "w" => true,
                _ => return Err(malformed()),
            };
            let raw = addr.trim().trim_start_matches("0x");
            let value = u64::from_str_radix(raw, 16).map_err(|_| malformed())?;
            ops.push(MemOp {
                line: LineAddr::new(value),
                is_write,
            });
        }
        if ops.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceSource { ops, pos: 0 })
    }

    /// Writes a trace in the text format. A round-trip through
    /// [`parse`](Self::parse) reproduces the operations exactly.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        for op in &self.ops {
            writeln!(
                writer,
                "{} 0x{:x}",
                if op.is_write { "W" } else { "R" },
                op.line.raw()
            )?;
        }
        Ok(())
    }

    /// Number of operations before looping.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: traces are validated non-empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl AccessSource for TraceSource {
    fn next_op(&mut self) -> MemOp {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }
}

asm_simcore::persist_fields!(TraceSource { pos } => |t: &TraceSource| {
    asm_simcore::persist::ensure(t.pos < t.ops.len(), "position out of range")
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_reads_writes_and_comments() {
        let text = "# header\n\nR 0x10\nw 20\nR 0xff\n";
        let mut t = TraceSource::parse(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 3);
        let a = t.next_op();
        assert!(!a.is_write);
        assert_eq!(a.line, LineAddr::new(0x10));
        let b = t.next_op();
        assert!(b.is_write);
        assert_eq!(b.line, LineAddr::new(0x20));
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = TraceSource::parse("R 0x10\nX 0x20\n".as_bytes()).unwrap_err();
        match err {
            TraceError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_empty_traces() {
        assert!(matches!(
            TraceSource::parse("# nothing\n".as_bytes()),
            Err(TraceError::Empty)
        ));
    }

    #[test]
    fn round_trips_through_text() {
        let ops = vec![
            MemOp {
                line: LineAddr::new(1),
                is_write: false,
            },
            MemOp {
                line: LineAddr::new(0xabc),
                is_write: true,
            },
        ];
        let t = TraceSource::new(ops.clone());
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let mut parsed = TraceSource::parse(buf.as_slice()).unwrap();
        for expected in &ops {
            assert_eq!(parsed.next_op(), *expected);
        }
    }

    #[test]
    fn loops_at_end() {
        let mut t = TraceSource::parse("R 0x1\nR 0x2\n".as_bytes()).unwrap();
        let seq: Vec<u64> = (0..5).map(|_| t.next_op().line.raw()).collect();
        assert_eq!(seq, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn address_stream_implements_access_source() {
        use crate::appmodel::AppProfile;
        let p = AppProfile::builder("t").build();
        let mut s: Box<dyn AccessSource> = Box::new(AddressStream::new(&p, 0, 1));
        let _ = s.next_op();
    }
}
