//! The text trace format (`R 0x1f` / `W 0x20`, `#` comments) is read from
//! files this program did not write: `TraceSource::parse` returns — a
//! trace or a `TraceError` — on any bytes, and reads back exactly what
//! `write_to` wrote.

use asm_cpu::source::{AccessSource, TraceError, TraceSource};
use asm_cpu::stream::MemOp;
use asm_simcore::LineAddr;
use proptest::prelude::*;

fn ops_of(mut trace: TraceSource) -> Vec<MemOp> {
    (0..trace.len()).map(|_| trace.next_op()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_traces_round_trip(
        lines in prop::collection::vec(0u64..u64::MAX, 1..40),
        shifts in prop::collection::vec(0u64..64, 40..41),
        writes in 0u64..u64::MAX,
    ) {
        let ops: Vec<MemOp> = lines
            .iter()
            .enumerate()
            .map(|(i, &raw)| MemOp {
                line: LineAddr::new(raw >> shifts[i]),
                is_write: writes >> (i % 64) & 1 == 1,
            })
            .collect();
        let mut text = Vec::new();
        TraceSource::new(ops.clone()).write_to(&mut text).expect("Vec write");
        let parsed = TraceSource::parse(text.as_slice()).expect("writer output parses");
        prop_assert_eq!(ops_of(parsed.clone()), ops);
        let mut again = Vec::new();
        parsed.write_to(&mut again).expect("Vec write");
        prop_assert_eq!(again, text);
    }

    /// Any bytes — invalid UTF-8 and NULs included — parse or are refused
    /// with the line that was wrong.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..200)) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        match TraceSource::parse(bytes.as_slice()) {
            Ok(trace) => prop_assert!(trace.len() > 0),
            Err(TraceError::Malformed { line, .. }) => {
                prop_assert!(line >= 1 && line <= bytes.len());
            }
            Err(TraceError::Empty | TraceError::Io(_)) => {}
        }
    }

    /// Lines assembled from the format's own pieces: far likelier to get
    /// past the first token than raw bytes.
    #[test]
    fn line_soup_never_panics(picks in prop::collection::vec(0usize..18, 0..80)) {
        const PIECES: [&str; 18] = [
            "R", "W", "r", "w", "X", " ", "\t", "\n", "\r\n", "#", "0x", "0X", "ff", "1f",
            "ffffffffffffffffff", "-1", "+2", "g",
        ];
        let soup: String = picks.iter().map(|&i| PIECES[i]).collect();
        if let Ok(trace) = TraceSource::parse(soup.as_bytes()) {
            let mut text = Vec::new();
            trace.write_to(&mut text).expect("Vec write");
            let reread = TraceSource::parse(text.as_slice()).expect("canonical form parses");
            prop_assert_eq!(ops_of(reread), ops_of(trace));
        }
    }
}
