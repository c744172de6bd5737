//! `asm_telemetry::json::parse` reads bytes this program did not write
//! (an edited `--report` file, a trace from another build): whatever they
//! are it returns, never panics or overflows the stack, and everything
//! the writer emits it reads back to the same document.

use asm_telemetry::json::{parse, JsonValue, MAX_DEPTH};
use proptest::prelude::*;
use proptest::TestRng;

/// A document of at most `depth` levels, every value kind reachable.
fn arbitrary(rng: &mut TestRng, depth: usize) -> JsonValue {
    let text = |rng: &mut TestRng| -> String {
        let alphabet = ['a', 'Z', '9', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '≈', '{', ']'];
        (0..rng.below(6)).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize]).collect()
    };
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 1),
        2 => JsonValue::num_u64(rng.next_u64() >> rng.below(64)),
        3 => JsonValue::Num(f64::from_bits(rng.next_u64())),
        4 => JsonValue::Str(text(rng)),
        5 => JsonValue::Arr((0..rng.below(4)).map(|_| arbitrary(rng, depth - 1)).collect()),
        _ => JsonValue::Obj((0..rng.below(4)).map(|_| (text(rng), arbitrary(rng, depth - 1))).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compact and pretty output both parse back to the document that
    /// wrote them (non-finite numbers as the `null` they were written as).
    #[test]
    fn written_documents_round_trip(case in 0u64..u64::MAX) {
        let doc = arbitrary(&mut TestRng::for_case(case), 5);
        let compact = doc.to_json();
        let reread = parse(&compact).expect("writer output parses");
        prop_assert_eq!(reread.to_json(), compact.clone());
        let pretty = parse(&doc.to_json_pretty()).expect("pretty output parses");
        prop_assert_eq!(pretty.to_json(), compact);
    }

    /// A written document with a stretch cut out, overwritten or
    /// duplicated parses or is refused; what parses is a fixed point.
    #[test]
    fn damaged_documents_never_panic(case in 0u64..u64::MAX, cut in 0usize..400, len in 0usize..12, byte in 0u8..128) {
        let text = arbitrary(&mut TestRng::for_case(case), 4).to_json_pretty();
        let mut bytes = text.into_bytes();
        let at = cut % (bytes.len() + 1);
        let end = (at + len).min(bytes.len());
        match case % 3 {
            0 => drop(bytes.drain(at..end)),
            1 => bytes[at..end].fill(byte),
            _ => {
                let stretch = bytes[at..end].to_vec();
                bytes.splice(at..at, stretch);
            }
        }
        if let Ok(doc) = parse(&String::from_utf8_lossy(&bytes)) {
            let once = doc.to_json();
            prop_assert_eq!(parse(&once).expect("fixed point").to_json(), once);
        }
    }

    /// Token soup: any string over the grammar's own alphabet.
    #[test]
    fn token_soup_never_panics(picks in prop::collection::vec(0usize..20, 0..64)) {
        const TOKENS: [&str; 20] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "12", "-", ".5", "e+",
            "true", "nul", " ", "\n", "a", "\u{7f}",
        ];
        let soup: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = parse(&soup);
    }
}

#[test]
fn nesting_is_bounded_not_recursed_into() {
    let nest = |open: &str, close: &str, n: usize| format!("{}{}", open.repeat(n), close.repeat(n));
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        // An object's innermost value has to be a value.
        let (open_n, core) = if open == "[" { (MAX_DEPTH, "") } else { (MAX_DEPTH - 1, "{}") };
        let deepest = format!("{}{core}{}", open.repeat(open_n), close.repeat(open_n));
        parse(&deepest).expect("MAX_DEPTH levels parse");
        let err = parse(&nest(open, close, MAX_DEPTH + 1)).expect_err("one level too many");
        assert!(err.message.contains("nesting"), "{err}");
    }
    // Far past any stack: still an error, not an overflow. Unclosed, too.
    assert!(parse(&nest("[", "]", 1_000_000)).is_err());
    assert!(parse(&"[{\"k\":".repeat(500_000)).is_err());
}
