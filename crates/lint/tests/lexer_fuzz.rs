//! Property tests for the lexer/parser front end: no input — valid
//! Rust, truncated Rust, or byte noise — may panic the analysis, and
//! every reported span must stay inside the source on char boundaries.
//!
//! The vendored proptest shim draws from a deterministic splitmix64
//! stream, so a failing case reproduces bit-identically everywhere.

use asm_lint::{analyze_sources, FileModel};
use proptest::prelude::*;

/// Fragment pool for structured "token soup": pieces of real Rust
/// syntax (including the constructs the parser special-cases) that get
/// concatenated in random order, producing unbalanced delimiters,
/// dangling generics, half-open strings, and directive fragments.
const FRAGMENTS: &[&str] = &[
    "fn step(&mut self) {",
    "}",
    "pub type Fast = std::collections::HashMap<u64, u64>;",
    "use crate::aliases::Fast as F;",
    "// asm-lint: allow(R9): reason",
    "t.incr(\"llc.app0.hits\");",
    "unsafe {",
    "#[cfg(test)]",
    "mod tests {",
    "impl System {",
    "let x = \"unterminated",
    "/* block comment",
    "r#\"raw string\"#",
    "'\\u{1F600}'",
    "Vec::<u8>::new()",
    "x.lock().unwrap();",
    "<<",
    ">>",
    "::",
    "€λ漢", // multi-byte identifiers: span math must stay on char boundaries
    "\u{0}\u{1}",
    "b\"bytes\\xff\"",
    "($(",
    "]})",
];

/// The invariants every parse must uphold, regardless of input.
fn check_model(src: &str) {
    let model = FileModel::new("crates/core/src/fuzz.rs", src);
    let mut prev_lo = 0usize;
    for t in &model.tokens {
        prop_assert!(t.lo <= t.hi && t.hi <= src.len(), "span {}..{} out of bounds", t.lo, t.hi);
        prop_assert!(src.is_char_boundary(t.lo) && src.is_char_boundary(t.hi));
        prop_assert!(t.lo >= prev_lo, "tokens out of source order");
        prev_lo = t.lo;
    }
    for c in &model.comments {
        prop_assert!(c.lo <= c.hi && c.hi <= src.len());
        prop_assert!(src.is_char_boundary(c.lo) && src.is_char_boundary(c.hi));
        prop_assert!(c.line <= c.end_line);
    }
    prop_assert_eq!(model.match_of.len(), model.tokens.len());
    for (i, &m) in model.match_of.iter().enumerate() {
        prop_assert!(m < model.tokens.len(), "match_of[{}] dangles", i);
    }
    // Both rules and the directive check must not panic either.
    let _ = analyze_sources(&[("crates/core/src/fuzz.rs".to_owned(), src.to_owned())]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(words in prop::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        check_model(&src);
    }

    #[test]
    fn token_soup_never_panics(picks in prop::collection::vec(0usize..24, 0..40), seps in prop::collection::vec(0u8..3, 0..40)) {
        let mut src = String::new();
        for (i, &p) in picks.iter().enumerate() {
            src.push_str(FRAGMENTS[p % FRAGMENTS.len()]);
            src.push(match seps.get(i).copied().unwrap_or(0) {
                0 => '\n',
                1 => ' ',
                _ => '\t',
            });
        }
        check_model(&src);
    }
}
