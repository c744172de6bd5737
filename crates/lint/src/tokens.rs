//! The token-tree lexer `asm-lint`'s own pass is built on.
//!
//! Every token carries its byte span and 0-based line / byte-column, so
//! diagnostics stay byte-aligned with the source while the passes reason
//! over tokens instead of substrings. Comments are lexed out of band
//! (they carry allow directives, so their spans and text are kept).
//!
//! Design constraints, in order:
//!
//! 1. **Never panic.** The lexer runs on arbitrary bytes (a proptest
//!    pins this); malformed input degrades to reasonable tokens, it
//!    never aborts the lint. Unterminated strings/comments run to EOF.
//! 2. **Spans are exact.** `lo..hi` always lies inside the source and
//!    always falls on UTF-8 boundaries (multi-byte characters are only
//!    ever consumed whole), so `&src[lo..hi]` is safe everywhere.
//! 3. **Dependency-free.** `std` only, so the gate builds in seconds.
//!
//! The lexer understands line comments, nested block comments, string /
//! raw-string / byte-string / C-string literals, char literals vs
//! lifetimes, raw identifiers (`r#type`), numeric literals (including
//! floats, radix prefixes and exponents), and multi-character operators
//! (`::`, `==`, `..=`, ... — maximal munch, so `=>` is never misread as
//! `=` `>`).

/// A delimiter kind: `()`, `[]`, `{}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` / `)`.
    Paren,
    /// `[` / `]`.
    Bracket,
    /// `{` / `}`.
    Brace,
}

/// What a token is. Text is recovered from the span, not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `r#type`).
    Ident,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// An integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// A float literal (`1.0`, `2e9`, `0.5f32`), as opposed to a range
    /// (`0..1`) or a tuple index (`t.0`).
    Float,
    /// A string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// A char or byte literal: `'x'`, `b'\n'`.
    Char,
    /// An operator / punctuation token (`::`, `==`, `;`, `#`).
    Punct,
    /// An opening delimiter.
    Open(Delim),
    /// A closing delimiter.
    Close(Delim),
}

/// One token with its exact byte span and position.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Kind.
    pub kind: TokKind,
    /// Byte offset of the first byte (inclusive).
    pub lo: usize,
    /// Byte offset one past the last byte (exclusive).
    pub hi: usize,
    /// 0-based line of `lo`.
    pub line: usize,
    /// 0-based byte column of `lo` within its line.
    pub col: usize,
}

/// One comment (line or block), span-exact like tokens. Doc comments
/// (`///`, `/** */`) are comments too.
#[derive(Debug, Clone, Copy)]
pub struct Comment {
    /// Byte offset of the `//` / `/*`.
    pub lo: usize,
    /// Byte offset one past the end (for line comments: the newline).
    pub hi: usize,
    /// 0-based line the comment starts on.
    pub line: usize,
    /// 0-based byte column of `lo`.
    pub col: usize,
}

/// Lexer output: the token stream plus out-of-band comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first (maximal munch).
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Whether `b` can continue an identifier. Any non-ASCII byte counts as
/// identifier-continue: that consumes multi-byte UTF-8 sequences whole,
/// which is what keeps every span a valid slice boundary.
#[must_use]
pub fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Whether `b` can start an identifier.
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    line_start: usize,
    out: Lexed,
}

/// Lexes `src` into tokens and comments. Total: every byte is consumed
/// exactly once, so this is O(n) and always terminates.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer {
        bytes: src.as_bytes(),
        pos: 0,
        line: 0,
        line_start: 0,
        out: Lexed::default(),
    };
    lx.run();
    lx.out
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, maintaining the line counter.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
            self.line_start = self.pos + 1;
        }
        self.pos += 1;
    }

    /// Advances `n` bytes (none of which may be checked newlines — used
    /// only after `peek` confirmed ASCII operator bytes).
    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn col(&self, lo: usize) -> usize {
        lo.saturating_sub(self.line_start)
    }

    fn push(&mut self, kind: TokKind, lo: usize, line: usize, col: usize) {
        self.out.tokens.push(Token {
            kind,
            lo,
            hi: self.pos,
            line,
            col,
        });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek(0) {
            let lo = self.pos;
            let line = self.line;
            let col = self.col(lo);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(lo, line, col),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(lo, line, col),
                b'r' | b'b' | b'c' if self.try_prefixed_literal(lo, line, col) => {}
                b'"' => self.string(lo, line, col, false, 0),
                b'\'' => self.char_or_lifetime(lo, line, col),
                _ if b.is_ascii_digit() => self.number(lo, line, col),
                _ if is_ident_start(b) => self.ident(lo, line, col),
                b'(' => self.delim(TokKind::Open(Delim::Paren), lo, line, col),
                b')' => self.delim(TokKind::Close(Delim::Paren), lo, line, col),
                b'[' => self.delim(TokKind::Open(Delim::Bracket), lo, line, col),
                b']' => self.delim(TokKind::Close(Delim::Bracket), lo, line, col),
                b'{' => self.delim(TokKind::Open(Delim::Brace), lo, line, col),
                b'}' => self.delim(TokKind::Close(Delim::Brace), lo, line, col),
                _ => self.punct(lo, line, col),
            }
        }
    }

    fn delim(&mut self, kind: TokKind, lo: usize, line: usize, col: usize) {
        self.bump();
        self.push(kind, lo, line, col);
    }

    fn punct(&mut self, lo: usize, line: usize, col: usize) {
        for p in PUNCTS {
            if self.bytes[self.pos..].starts_with(p.as_bytes()) {
                self.bump_n(p.len());
                self.push(TokKind::Punct, lo, line, col);
                return;
            }
        }
        self.bump();
        self.push(TokKind::Punct, lo, line, col);
    }

    fn line_comment(&mut self, lo: usize, line: usize, col: usize) {
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump();
        }
        self.out.comments.push(Comment {
            lo,
            hi: self.pos,
            line,
            col,
        });
    }

    fn block_comment(&mut self, lo: usize, line: usize, col: usize) {
        self.bump_n(2);
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break, // unterminated: run to EOF
            }
        }
        self.out.comments.push(Comment {
            lo,
            hi: self.pos,
            line,
            col,
        });
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`, `b'x'`, and
    /// raw identifiers `r#ident`. Returns false when the `r`/`b`/`c` is
    /// just the start of a plain identifier.
    fn try_prefixed_literal(&mut self, lo: usize, line: usize, col: usize) -> bool {
        let b0 = self.peek(0).unwrap_or(0);
        // Longest prefixes first: br / rb? (only br is legal), then b/r/c.
        let (raw_at, quote_at) = match (b0, self.peek(1)) {
            (b'b' | b'c', Some(b'r')) => (1, 2),
            (b'b', Some(b'\'')) => {
                // Byte char literal b'x'.
                self.bump(); // b
                self.char_or_lifetime(lo, line, col);
                return true;
            }
            (b'r' | b'b' | b'c', _) => (0, 1),
            _ => return false,
        };
        let is_raw = self.peek(raw_at) == Some(b'r') && raw_at > 0 || b0 == b'r';
        // Count hashes after the (possible) raw marker.
        let hash_start = if is_raw { quote_at.max(1) } else { 1 };
        let mut hashes = 0usize;
        while self.peek(hash_start + hashes) == Some(b'#') {
            hashes += 1;
        }
        match self.peek(hash_start + hashes) {
            Some(b'"') if is_raw || (hashes == 0 && self.peek(hash_start) == Some(b'"')) => {
                // Raw or plain prefixed string.
                self.bump_n(hash_start + hashes);
                self.string(lo, line, col, is_raw, hashes);
                true
            }
            Some(bb) if b0 == b'r' && hashes > 0 && is_ident_start(bb) => {
                // Raw identifier r#ident.
                self.bump_n(1 + hashes);
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                self.push(TokKind::Ident, lo, line, col);
                true
            }
            _ => false,
        }
    }

    /// Consumes a string body starting at the opening quote. `raw`
    /// disables escape processing; `hashes` is the raw-string hash count.
    fn string(&mut self, lo: usize, line: usize, col: usize, raw: bool, hashes: usize) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                None => break, // unterminated: token runs to EOF
                Some(b'\\') if !raw => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                Some(b'"') => {
                    let mut n = 0usize;
                    while n < hashes && self.peek(1 + n) == Some(b'#') {
                        n += 1;
                    }
                    if n == hashes {
                        self.bump_n(1 + hashes);
                        break;
                    }
                    self.bump();
                }
                Some(_) => self.bump(),
            }
        }
        self.push(TokKind::Str, lo, line, col);
    }

    /// `'` starts either a char literal or a lifetime.
    fn char_or_lifetime(&mut self, lo: usize, line: usize, col: usize) {
        self.bump(); // '
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume escape then to closing '.
                self.bump();
                if self.peek(0).is_some() {
                    self.bump();
                }
                while self.peek(0).is_some_and(|b| b != b'\'' && b != b'\n') {
                    self.bump();
                }
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                }
                self.push(TokKind::Char, lo, line, col);
            }
            Some(b) if is_ident_start(b) => {
                // Could be 'a' (char) or 'a / 'static (lifetime): a char
                // closes with ' immediately after one character.
                // Multi-byte chars: consume the whole ident-run, then
                // decide by whether a ' follows.
                let run_start = self.pos;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                if self.peek(0) == Some(b'\'') && self.pos > run_start {
                    self.bump();
                    self.push(TokKind::Char, lo, line, col);
                } else {
                    self.push(TokKind::Lifetime, lo, line, col);
                }
            }
            Some(b'\'') => {
                // `''` — malformed; consume both quotes as a char token.
                self.bump();
                self.push(TokKind::Char, lo, line, col);
            }
            Some(_) => {
                // Non-ident char like '+' : char literal if ' follows.
                self.bump();
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                }
                self.push(TokKind::Char, lo, line, col);
            }
            None => self.push(TokKind::Char, lo, line, col),
        }
    }

    fn number(&mut self, lo: usize, line: usize, col: usize) {
        let mut is_float = false;
        // Radix-prefixed literals contain hex "e"/"E" digits that must
        // never be read as exponent markers (`0xE-5` is a subtraction).
        let hexish = self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
        // Integer part (covers radix prefixes and type suffixes: all are
        // ident-continue bytes; `1e9` exponents are too).
        while self.peek(0).is_some_and(is_ident_continue) {
            let cur = self.peek(0).unwrap_or(0);
            // `1e-9` / `1E+9`: a sign directly after e/E inside a number.
            self.bump();
            if !hexish
                && (cur == b'e' || cur == b'E')
                && matches!(self.peek(0), Some(b'+' | b'-'))
                && self.peek(1).is_some_and(|b| b.is_ascii_digit())
            {
                is_float = true;
                self.bump(); // sign
            }
        }
        // Fractional part: `.` followed by a digit, or a trailing `.`
        // that is not `..` (range) and not `.ident` (method call).
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                Some(d) if d.is_ascii_digit() => {
                    is_float = true;
                    self.bump(); // .
                    while self.peek(0).is_some_and(is_ident_continue) {
                        let cur = self.peek(0).unwrap_or(0);
                        self.bump();
                        if (cur == b'e' || cur == b'E')
                            && matches!(self.peek(0), Some(b'+' | b'-'))
                            && self.peek(1).is_some_and(|b| b.is_ascii_digit())
                        {
                            self.bump();
                        }
                    }
                }
                Some(b'.') => {}                            // range 0..1
                Some(b) if is_ident_start(b) => {}          // 1.max(2)
                _ => {
                    is_float = true;
                    self.bump(); // trailing-dot float `1.`
                }
            }
        }
        // `1e9` without sign: the e and digits were consumed above; look
        // for an exponent marker in the consumed text.
        let text = &self.bytes[lo..self.pos];
        if !is_float {
            // e/E followed by a digit inside the literal, outside a radix
            // prefix (hex digits include e!).
            let hexish = text.len() >= 2 && text[0] == b'0' && matches!(text[1], b'x' | b'X' | b'o' | b'b');
            if !hexish
                && text
                    .windows(2)
                    .any(|w| (w[0] == b'e' || w[0] == b'E') && w[1].is_ascii_digit())
            {
                is_float = true;
            }
        }
        self.push(
            if is_float { TokKind::Float } else { TokKind::Int },
            lo,
            line,
            col,
        );
    }

    fn ident(&mut self, lo: usize, line: usize, col: usize) {
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        self.push(TokKind::Ident, lo, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, src[t.lo..t.hi].to_owned()))
            .collect()
    }

    #[test]
    fn basic_stream_with_spans() {
        let src = "fn f(x: u64) -> u64 { x + 1 }\n";
        let toks = texts(src);
        assert_eq!(toks[0], (TokKind::Ident, "fn".to_owned()));
        assert_eq!(toks[1], (TokKind::Ident, "f".to_owned()));
        assert_eq!(toks[2], (TokKind::Open(Delim::Paren), "(".to_owned()));
        assert!(toks.contains(&(TokKind::Punct, "->".to_owned())));
        assert!(toks.contains(&(TokKind::Int, "1".to_owned())));
    }

    #[test]
    fn comments_are_out_of_band() {
        let src = "let a = 1; // trailing HashMap\n/* block\n over lines */ let b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 0);
        assert_eq!(lexed.comments[1].line, 1);
        // No token text mentions HashMap.
        assert!(lexed
            .tokens
            .iter()
            .all(|t| !src[t.lo..t.hi].contains("HashMap")));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ c */ let z = 3;";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(src[lexed.tokens[0].lo..lexed.tokens[0].hi].to_owned(), "let");
    }

    #[test]
    fn floats_vs_ranges_vs_tuple_fields() {
        assert_eq!(texts("1.0")[0].0, TokKind::Float);
        assert_eq!(texts("1.")[0].0, TokKind::Float);
        assert_eq!(texts("1e9")[0].0, TokKind::Float);
        assert_eq!(texts("1e-9")[0].0, TokKind::Float);
        assert_eq!(texts("0.5f32")[0].0, TokKind::Float);
        let range = texts("0..1");
        assert_eq!(range[0].0, TokKind::Int);
        assert_eq!(range[1], (TokKind::Punct, "..".to_owned()));
        let tup = texts("x.0");
        assert_eq!(tup[2].0, TokKind::Int);
        assert_eq!(texts("0xEE")[0].0, TokKind::Int);
        assert_eq!(texts("1_000u64")[0].0, TokKind::Int);
        assert_eq!(texts("1.max(2)")[0].0, TokKind::Int);
    }

    #[test]
    fn strings_and_raw_strings() {
        let toks = texts("let s = r#\"Hash\"Map\"# ; let t = b\"x\"; let u = \"a\\\"b\";");
        let strs: Vec<&String> = toks.iter().filter(|(k, _)| *k == TokKind::Str).map(|(_, s)| s).collect();
        assert_eq!(strs.len(), 3);
        assert_eq!(strs[0], "r#\"Hash\"Map\"#");
        assert_eq!(strs[1], "b\"x\"");
        assert_eq!(strs[2], "\"a\\\"b\"");
    }

    #[test]
    fn chars_vs_lifetimes() {
        let toks = texts("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let b = b'y'; }");
        let lifetimes = toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 3);
        assert!(toks.contains(&(TokKind::Ident, "str".to_owned())));
    }

    #[test]
    fn raw_identifiers() {
        let toks = texts("let r#type = 1;");
        assert_eq!(toks[1], (TokKind::Ident, "r#type".to_owned()));
    }

    #[test]
    fn multichar_operators_munch_maximally() {
        let toks = texts("a == b != c <= d ..= e :: f => g");
        let puncts: Vec<&String> = toks.iter().filter(|(k, _)| *k == TokKind::Punct).map(|(_, s)| s).collect();
        assert_eq!(puncts, &["==", "!=", "<=", "..=", "::", "=>"]);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* never closed", "'a", "b'", "1.", "r#"] {
            let lexed = lex(src);
            for t in &lexed.tokens {
                assert!(t.lo <= t.hi && t.hi <= src.len(), "span out of bounds for {src:?}");
                assert!(src.get(t.lo..t.hi).is_some(), "non-boundary span for {src:?}");
            }
        }
    }

    #[test]
    fn line_and_col_are_zero_based_bytes() {
        let src = "ab\n  cd\n";
        let toks = lex(src).tokens;
        assert_eq!((toks[0].line, toks[0].col), (0, 0));
        assert_eq!((toks[1].line, toks[1].col), (1, 2));
    }

    #[test]
    fn multibyte_chars_stay_whole() {
        let src = "let café = \"héllo\"; // naïve\n";
        let lexed = lex(src);
        for t in &lexed.tokens {
            assert!(src.get(t.lo..t.hi).is_some(), "span must be a char boundary");
        }
        assert!(lexed.tokens.iter().any(|t| &src[t.lo..t.hi] == "café"));
    }
}
