//! The item-level parser: one [`FileModel`] per source file.
//!
//! This is not a full Rust parser — it is the smallest syntactic layer
//! the remaining pass needs on top of the [`crate::tokens`] lexer:
//!
//! - **Delimiter matching** (`match_of`): every `(`/`[`/`{` knows its
//!   partner, so item extents and fn bodies are O(1) jumps. Unmatched
//!   delimiters match themselves; nothing panics on malformed input.
//! - **Test masking**: tokens covered by a `#[cfg(test)]` item (or a
//!   `#[test]` fn) are flagged so rules skip test code.
//! - **Allow directives**: `// asm-lint: allow(R9): reason`
//!   comments, trailing or standalone. Each remembers whether a pass
//!   consumed it, so a directive that suppresses nothing can be reported
//!   ([`FileModel::stale_allows`]).
//! - **Items**: `fn` definitions (name, signature line, body token
//!   range, receiver, enclosing `impl` type) — what the call graph
//!   ([`crate::callgraph`]) is built from.

use std::cell::Cell;

use crate::tokens::{lex, Comment, Delim, TokKind, Token};
use crate::RuleId;

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl`, if any.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword (fn-level allow directives bind
    /// here).
    pub sig_line: usize,
    /// Token index of the `fn` keyword.
    pub sig_tok: usize,
    /// Body as a token index range `(open_brace, close_brace)`, or
    /// `None` for body-less declarations (traits, externs).
    pub body: Option<(usize, usize)>,
    /// Whether the first parameter is a `self` receiver. Method-call
    /// syntax (`x.f(…)`) can only reach fns with a receiver, so call
    /// resolution uses this to keep constructors and free fns out of
    /// method edges.
    pub has_self: bool,
    /// Whether the definition sits inside test-masked code.
    pub is_test: bool,
}


/// One `asm-lint: allow(…)` directive, per rule it names.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 0-based line of the directive comment (where a stale one is
    /// reported).
    pub comment_line: usize,
    /// 0-based line the directive binds to: its own line when trailing
    /// code, else the next line carrying code.
    pub target: usize,
    /// The rule it names, or the name as written when `asm-lint` owns no
    /// such rule (`R5`: clippy's now — such a directive suppresses
    /// nothing by construction).
    pub rule: Result<RuleId, String>,
    /// Set by [`FileModel::use_allow`] when a pass honoured it.
    used: Cell<bool>,
}

/// A fully analysed source file.
pub struct FileModel {
    /// Display path used in diagnostics.
    pub path: String,
    /// The source text.
    pub src: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Comments (allow directives live here).
    pub comments: Vec<Comment>,
    /// For delimiter tokens: index of the matching partner (self when
    /// unmatched). For all other tokens: the token's own index.
    pub match_of: Vec<usize>,
    /// Per-token: inside a `#[cfg(test)]` item or `#[test]` fn.
    pub test_tokens: Vec<bool>,
    /// Allow directives, in source order.
    pub allows: Vec<Allow>,
    /// `fn` definitions.
    pub fns: Vec<FnDef>,
}

impl FileModel {
    /// Lexes and parses `content`, labelled `path` in diagnostics.
    #[must_use]
    pub fn new(path: &str, content: &str) -> Self {
        let lexed = lex(content);
        let mut model = FileModel {
            path: path.to_owned(),
            src: content.to_owned(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            match_of: Vec::new(),
            test_tokens: Vec::new(),
            allows: Vec::new(),
            fns: Vec::new(),
        };
        model.match_delims();
        model.mark_tests();
        model.find_allows();
        model.scan_fns();
        model.attach_impl_types();
        model
    }

    /// The source text of token `i` (empty for out-of-range indices).
    #[must_use]
    pub fn text(&self, i: usize) -> &str {
        self.tokens
            .get(i)
            .and_then(|t| self.src.get(t.lo..t.hi))
            .unwrap_or("")
    }

    /// Whether token `i` is the identifier `word`.
    #[must_use]
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.kind == TokKind::Ident) && self.text(i) == word
    }

    /// Whether token `i` is the punctuation `p`.
    #[must_use]
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct) && self.text(i) == p
    }

    /// Whether token `i` is inside test-masked code.
    #[must_use]
    pub fn is_test_token(&self, i: usize) -> bool {
        self.test_tokens.get(i).copied().unwrap_or(false)
    }

    /// Whether a directive allows `rule` on 0-based `line`, without
    /// consuming it (the call graph asks this of every fn signature
    /// before it knows which ones the walk reaches).
    #[must_use]
    pub fn has_allow(&self, line: usize, rule: RuleId) -> bool {
        self.allows
            .iter()
            .any(|a| a.target == line && a.rule == Ok(rule))
    }

    /// [`Self::has_allow`], and marks the matching directives as having
    /// suppressed something.
    pub fn use_allow(&self, line: usize, rule: RuleId) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.target == line && a.rule == Ok(rule) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Directives no pass consumed: a leftover `allow(R9)` on a line with
    /// no R9 finding, an fn-level one on a fn the hot-path walk never
    /// visits, or one naming a rule `asm-lint` does not own.
    pub fn stale_allows(&self) -> impl Iterator<Item = &Allow> {
        self.allows.iter().filter(|a| !a.used.get())
    }

    fn match_delims(&mut self) {
        self.match_of = (0..self.tokens.len()).collect();
        self.test_tokens = vec![false; self.tokens.len()];
        let mut stack: Vec<(Delim, usize)> = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            match t.kind {
                TokKind::Open(d) => stack.push((d, i)),
                TokKind::Close(d) => {
                    // Pop until a matching open; non-matching opens on
                    // top are abandoned (they match themselves).
                    if let Some(pos) = stack.iter().rposition(|&(od, _)| od == d) {
                        let (_, open) = stack[pos];
                        stack.truncate(pos);
                        self.match_of[open] = i;
                        self.match_of[i] = open;
                    }
                }
                _ => {}
            }
        }
    }


    /// Marks `#[cfg(test)]` / `#[test]` item extents.
    fn mark_tests(&mut self) {
        let n = self.tokens.len();
        let mut i = 0usize;
        while i < n {
            if self.is_punct(i, "#")
                && self
                    .tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Open(Delim::Bracket))
            {
                let close = self.match_of[i + 1];
                if close <= i + 1 {
                    i += 1;
                    continue;
                }
                let inner: Vec<&str> = ((i + 2)..close).map(|j| self.text(j)).collect();
                let is_test_attr = (inner.len() == 1 && inner[0] == "test")
                    || (inner.contains(&"cfg") && inner.contains(&"test"));
                if is_test_attr {
                    // Skip any further attributes, then mask the item.
                    let mut start = close + 1;
                    while self.is_punct(start, "#")
                        && self
                            .tokens
                            .get(start + 1)
                            .is_some_and(|t| t.kind == TokKind::Open(Delim::Bracket))
                        && self.match_of[start + 1] > start + 1
                    {
                        start = self.match_of[start + 1] + 1;
                    }
                    let end = self.item_extent(start);
                    for j in i..=end.min(n.saturating_sub(1)) {
                        self.test_tokens[j] = true;
                    }
                    i = close + 1;
                    continue;
                }
                i = close + 1;
                continue;
            }
            i += 1;
        }
    }

    /// The last token index of the item starting at token `start`:
    /// through the matching `}` of the first top-level brace, or the
    /// first top-level `;`.
    fn item_extent(&self, start: usize) -> usize {
        let n = self.tokens.len();
        let mut j = start;
        while j < n {
            match self.tokens[j].kind {
                TokKind::Open(Delim::Brace) => return self.match_of[j].max(j),
                TokKind::Open(_) => {
                    j = self.match_of[j].max(j) + 1;
                    continue;
                }
                TokKind::Close(_) => return j.saturating_sub(1).max(start),
                TokKind::Punct if self.text(j) == ";" => return j,
                _ => {}
            }
            j += 1;
        }
        n.saturating_sub(1).max(start)
    }

    /// Parses `asm-lint: allow(R…): reason` directives out of comments.
    fn find_allows(&mut self) {
        for c in &self.comments {
            let text = self.src.get(c.lo..c.hi).unwrap_or("");
            let Some(rules) = parse_allow(text) else {
                continue;
            };
            // Trailing directive: a token earlier on the same line.
            // Standalone: binds to the next line carrying code (past the
            // end of the file: to nothing, so it reads as stale).
            let trailing = self
                .tokens
                .iter()
                .any(|t| t.line == c.line && t.col < c.col);
            let target = if trailing {
                c.line
            } else {
                self.tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l >= c.line)
                    .unwrap_or(usize::MAX)
            };
            for rule in rules {
                self.allows.push(Allow {
                    comment_line: c.line,
                    target,
                    rule,
                    used: Cell::new(false),
                });
            }
        }
    }

    /// One linear walk collecting `fn` definitions.
    fn scan_fns(&mut self) {
        let mut fns = Vec::new();
        let mut i = 0usize;
        while i < self.tokens.len() {
            if self.is_ident(i, "fn") {
                i = self.parse_fn(i, &mut fns).max(i + 1);
            } else {
                i += 1;
            }
        }
        self.fns = fns;
    }

    /// Skips a `<…>` generic group starting at the `<`. Returns the
    /// index just past the closing `>` (best-effort on malformed input).
    #[must_use]
    pub fn skip_generics(&self, open: usize) -> usize {
        let n = self.tokens.len();
        let mut depth = 0i64;
        let mut i = open;
        while i < n {
            match self.text(i) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ";" => return i, // malformed: stop at statement end
                _ => {
                    if matches!(self.tokens[i].kind, TokKind::Open(_)) {
                        i = self.match_of[i].max(i);
                    }
                }
            }
            i += 1;
            if depth <= 0 {
                return i;
            }
        }
        n
    }


    /// Parses a `fn` definition starting at the `fn` keyword. Returns
    /// the index to resume scanning from (just past the signature — the
    /// body is scanned for nested items by the main loop).
    fn parse_fn(&self, fn_tok: usize, out: &mut Vec<FnDef>) -> usize {
        let name_tok = fn_tok + 1;
        if !self
            .tokens
            .get(name_tok)
            .is_some_and(|t| t.kind == TokKind::Ident)
        {
            return fn_tok + 1; // fn-pointer type `fn(u32)` — not a def
        }
        let name = self.text(name_tok).to_owned();
        let n = self.tokens.len();
        // Find the parameter list: first `(` outside generics.
        let mut i = name_tok + 1;
        if self.is_punct(i, "<") {
            i = self.skip_generics(i);
        }
        if !self
            .tokens
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
        {
            return name_tok + 1;
        }
        let params_close = self.match_of[i].max(i);
        // Receiver check: `self` in the first parameter (`self`,
        // `&mut self`, `mut self`, `self: Pin<&mut Self>` all qualify).
        let mut has_self = false;
        let mut k = i + 1;
        while k < params_close {
            match self.tokens[k].kind {
                TokKind::Ident if self.text(k) == "self" => {
                    has_self = true;
                    break;
                }
                TokKind::Punct if self.text(k) == "," => break,
                TokKind::Open(_) => k = self.match_of[k].max(k),
                _ => {}
            }
            k += 1;
        }
        // Find the body `{` (or `;` for body-less declarations), jumping
        // groups and skipping generic angles in the return type.
        let mut j = params_close + 1;
        let mut angle = 0i64;
        let mut body = None;
        while j < n {
            match self.tokens[j].kind {
                TokKind::Open(Delim::Brace) if angle <= 0 => {
                    body = Some((j, self.match_of[j].max(j)));
                    break;
                }
                TokKind::Open(_) => {
                    j = self.match_of[j].max(j);
                }
                TokKind::Close(_) => break, // malformed / trait default end
                TokKind::Punct => match self.text(j) {
                    ";" if angle <= 0 => break,
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        }
        out.push(FnDef {
            name,
            impl_type: None,
            sig_line: self.tokens[fn_tok].line,
            sig_tok: fn_tok,
            body,
            has_self,
            is_test: self.is_test_token(fn_tok),
        });
        params_close + 1
    }


    /// Post-pass: attach impl self-types to fns by interval containment.
    fn attach_impl_types(&mut self) {
        // Impl ranges: (body_open, body_close, self_type).
        let mut impls: Vec<(usize, usize, String)> = Vec::new();
        let n = self.tokens.len();
        let mut i = 0usize;
        while i < n {
            if self.tokens[i].kind == TokKind::Ident && self.text(i) == "impl" {
                if let Some((open, close, ty)) = self.parse_impl_header(i) {
                    impls.push((open, close, ty));
                    i += 1;
                    continue;
                }
            }
            i += 1;
        }
        for f in &mut self.fns {
            // Innermost impl range containing the fn keyword.
            let mut best: Option<(usize, usize, &String)> = None;
            for (open, close, ty) in &impls {
                if *open < f.sig_tok && f.sig_tok < *close {
                    if best.is_none_or(|(bo, bc, _)| close - open < bc - bo) {
                        best = Some((*open, *close, ty));
                    }
                }
            }
            f.impl_type = best.map(|(_, _, ty)| ty.clone());
        }
    }

    /// Parses an `impl` header at `impl_tok`: returns the body brace
    /// range and the self type name.
    fn parse_impl_header(&self, impl_tok: usize) -> Option<(usize, usize, String)> {
        let n = self.tokens.len();
        let mut i = impl_tok + 1;
        if self.is_punct(i, "<") {
            i = self.skip_generics(i);
        }
        let mut angle = 0i64;
        let mut candidate: Option<String> = None;
        let mut in_where = false;
        while i < n {
            match self.tokens[i].kind {
                TokKind::Open(Delim::Brace) if angle <= 0 => {
                    let close = self.match_of[i].max(i);
                    return candidate.map(|ty| (i, close, ty));
                }
                TokKind::Open(_) => i = self.match_of[i].max(i),
                TokKind::Close(_) => return None,
                TokKind::Punct => match self.text(i) {
                    ";" if angle <= 0 => return None,
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                },
                TokKind::Ident if angle <= 0 => match self.text(i) {
                    "for" => candidate = None, // self type follows `for`
                    "where" => in_where = true,
                    "dyn" | "mut" | "const" => {}
                    w if !in_where => candidate = Some(w.to_owned()),
                    _ => {}
                },
                _ => {}
            }
            i += 1;
        }
        None
    }
}

/// Extracts the rule list from one comment's text, if it is an
/// `asm-lint: allow(...)` directive: `Ok` for a rule `asm-lint` owns,
/// `Err(name)` for anything else between the parentheses.
fn parse_allow(comment: &str) -> Option<Vec<Result<RuleId, String>>> {
    let idx = comment.find("asm-lint:")?;
    let rest = comment[idx + "asm-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|name| RuleId::parse(name).ok_or_else(|| name.trim().to_owned()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::new("t.rs", src)
    }

    #[test]
    fn cfg_test_region_covers_module_body() {
        let src = "\
fn prod() { }

#[cfg(test)]
mod tests {
    fn helper() { }
}

fn also_prod() { }
";
        let m = model(src);
        let fns: Vec<(&str, bool)> = m.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(fns, vec![("prod", false), ("helper", true), ("also_prod", false)]);
    }

    #[test]
    fn braceless_cfg_test_item_stops_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { }\n";
        let m = model(src);
        let line_is_test = |l: usize| {
            m.tokens
                .iter()
                .enumerate()
                .any(|(i, t)| t.line == l && m.is_test_token(i))
        };
        assert!(line_is_test(1));
        assert!(!line_is_test(2));
    }

    #[test]
    fn allow_directive_trailing_and_standalone() {
        let src = "\
let a = frob(); // asm-lint: allow(R9): the trailing form
// asm-lint: allow(R5, R9): a multi-line reason
// wraps before the code it binds to
let b = frob();
let c = frob();
// asm-lint: allow(R9): quantum-boundary path
fn boundary() { }
";
        let m = model(src);
        assert!(m.has_allow(0, RuleId::R9));
        assert!(!m.has_allow(1, RuleId::R9));
        assert!(m.has_allow(3, RuleId::R9));
        assert!(!m.has_allow(4, RuleId::R9));
        assert!(m.has_allow(6, RuleId::R9));
    }

    #[test]
    fn unconsumed_and_unowned_directives_are_stale() {
        let src = "\
// asm-lint: allow(R9): consumed below
fn a() { }
// asm-lint: allow(R9): nothing consumes this one
fn b() { }
fn c() { } // asm-lint: allow(R5): clippy owns casts now
// asm-lint: allow(R9): past the last line of code
";
        let m = model(src);
        assert!(!m.has_allow(4, RuleId::R9));
        assert!(m.use_allow(1, RuleId::R9));
        let stale: Vec<_> = m
            .stale_allows()
            .map(|a| (a.comment_line, a.rule.clone()))
            .collect();
        assert_eq!(
            stale,
            vec![
                (2, Ok(RuleId::R9)),
                (4, Err("R5".to_owned())),
                (5, Ok(RuleId::R9)),
            ]
        );
    }

    #[test]
    fn fns_get_impl_context_and_bodies() {
        let src = "\
struct System;
impl System {
    pub fn step(&mut self) { self.tick(); }
    fn tick(&self) { }
}
impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
fn free() -> u64 { 3 }
";
        let m = model(src);
        let sigs: Vec<(String, Option<String>, bool)> = m
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.body.is_some()))
            .collect();
        assert!(sigs.contains(&("step".into(), Some("System".into()), true)), "{sigs:?}");
        assert!(sigs.contains(&("tick".into(), Some("System".into()), true)), "{sigs:?}");
        assert!(sigs.contains(&("fmt".into(), Some("System".into()), true)), "{sigs:?}");
        assert!(sigs.contains(&("free".into(), None, true)), "{sigs:?}");
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn f( {",
            "impl {",
            "fn",
            "}}}",
            "#[cfg(test)",
            "fn f<",
            "// asm-lint: allow(",
        ] {
            let m = model(src);
            let _ = (&m.fns, &m.allows);
        }
    }
}
