//! Diagnostics, the per-file rule R13, and allow-directive hygiene.
//!
//! R13 walks a [`FileModel`]'s tokens — comments are simply not there, so
//! a comment can never fire it — skips `#[cfg(test)]` regions and honours
//! per-line `// asm-lint: allow(R13): reason` directives; suppressed
//! diagnostics are returned separately so the JSON report can audit them.
//! [`stale_allows`] runs last, over every file: a directive no pass
//! consumed is a diagnostic itself, the guarantee
//! `unfulfilled_lint_expectations` gives the clippy-owned `#[expect]`s.

use crate::parse::FileModel;
use crate::tokens::TokKind;
use crate::RuleId;

/// One finding, with 1-based line/column for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Display path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Which rule fired; `None` for a stale allow directive, which is a
    /// finding about the directive, not about code.
    pub rule: Option<RuleId>,
    /// Human-readable explanation.
    pub message: String,
    /// Whether an allow directive suppressed it (suppressed diagnostics
    /// never fail the build but stay visible in `--json` output).
    pub allowed: bool,
}

impl Diagnostic {
    /// The bracketed label: the rule id, or `allow` for directive hygiene.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.rule.map_or("allow", RuleId::name)
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.label(), self.message)
    }
}

/// Active and allow-suppressed diagnostics of one pass, unsorted — call
/// [`Findings::finish`] once every pass contributed.
#[derive(Debug, Default)]
pub struct Findings {
    /// Diagnostics that fail the lint.
    pub active: Vec<Diagnostic>,
    /// Diagnostics an allow directive silenced.
    pub suppressed: Vec<Diagnostic>,
}

impl Findings {
    /// Records `rule` firing at token `tok`, consuming the allow directive
    /// bound to that line if there is one.
    pub fn emit(&mut self, model: &FileModel, tok: usize, rule: RuleId, message: String) {
        let t = &model.tokens[tok];
        let allowed = model.use_allow(t.line, rule);
        let d = Diagnostic {
            path: model.path.clone(),
            line: t.line + 1,
            col: t.col + 1,
            rule: Some(rule),
            message,
            allowed,
        };
        if allowed {
            self.suppressed.push(d);
        } else {
            self.active.push(d);
        }
    }

    /// Deduplicates (same path/line/rule/message collapses to the leftmost
    /// column) and sorts by `(path, line, rule, col)` so output is stable
    /// regardless of scan order.
    #[must_use]
    pub fn finish(self) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        (dedup_sort(self.active), dedup_sort(self.suppressed))
    }
}

/// See [`Findings::finish`].
#[must_use]
pub fn dedup_sort(mut v: Vec<Diagnostic>) -> Vec<Diagnostic> {
    v.sort_by(|a, b| {
        (&a.path, a.line, a.rule, a.col, &a.message).cmp(&(&b.path, b.line, b.rule, b.col, &b.message))
    });
    v.dedup_by(|next, kept| {
        kept.path == next.path
            && kept.line == next.line
            && kept.rule == next.rule
            && kept.message == next.message
    });
    v
}

/// Decodes the content of a string-literal token (`"…"`, `r#"…"#`,
/// `b"…"`). An escape decodes to the escaped character (`\n` → `n`):
/// enough to tell a metric name from prose.
fn str_literal_content(text: &str) -> Option<String> {
    let open = text.find('"')?;
    let raw = text[..open].contains('r') || text[..open].contains('R');
    let close = text.rfind('"')?;
    if close <= open {
        return None;
    }
    let inner = &text[open + 1..close];
    if raw {
        return Some(inner.to_owned());
    }
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(e) = chars.next() {
                out.push(e);
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// R13: telemetry/attribution metric names come from the central
/// registry (`asm_telemetry::names`) — no inline dotted-name string
/// literals in non-test simulation code. Counter and series names like
/// `"llc.app0.hits"` or `"attrib.app{i}.{component}"` are join keys:
/// the sinks, the accuracy dashboard, and external trace consumers all
/// match on the exact spelling, so a literal typed at the emit site
/// drifts silently when the registry changes. The registry file itself
/// is the one place allowed to spell names out; dotted non-metric
/// strings (temp-file suffixes, version strings with identifiers)
/// carry a reasoned allow directive.
pub fn check_metric_names(model: &FileModel, out: &mut Findings) {
    if model.path.ends_with("telemetry/src/names.rs") {
        return;
    }
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Str || model.is_test_token(i) {
            continue;
        }
        let Some(body) = str_literal_content(model.text(i)) else {
            continue;
        };
        if is_metric_name(&body) {
            out.emit(
                model,
                i,
                RuleId::R13,
                format!(
                    "inline metric-name literal `\"{body}\"` — spell telemetry/\
                     attribution names once in `asm_telemetry::names` and call \
                     the registry helper here, so emit sites cannot drift from \
                     the names the sinks and dashboards join on"
                ),
            );
        }
    }
}

/// Whether a string-literal body looks like a dotted metric name:
/// after collapsing format holes (`{…}` → `x`), two or more
/// `.`-separated segments, each `[a-z][a-z0-9_]*`. `"llc.app0.hits"`
/// and `"app{i}.{series}"` match; paths, prose, and version numbers
/// do not (slashes, spaces, and digit-led segments all fail).
fn is_metric_name(body: &str) -> bool {
    let mut collapsed = String::with_capacity(body.len());
    let mut depth = 0usize;
    for c in body.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    collapsed.push('x');
                }
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => collapsed.push(c),
            _ => {}
        }
    }
    let mut segments = 0usize;
    for seg in collapsed.split('.') {
        let mut chars = seg.chars();
        let lead_ok = matches!(chars.next(), Some(c) if c.is_ascii_lowercase());
        if !lead_ok || !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Allow-directive hygiene, run after every pass over `model`: one
/// diagnostic per directive that suppressed nothing.
#[must_use]
pub fn stale_allows(model: &FileModel) -> Vec<Diagnostic> {
    model
        .stale_allows()
        .map(|a| {
            let message = match &a.rule {
                Ok(r) => format!(
                    "stale `allow({})` — it suppresses no diagnostic: nothing fires on the \
                     line it binds to{}; remove the directive",
                    r.name(),
                    if *r == RuleId::R9 {
                        ", and no hot-path fn reached from the R9 roots starts there"
                    } else {
                        ""
                    }
                ),
                Err(name) => format!(
                    "`allow({name})` names no rule asm-lint owns (R9, R13; see `--list-rules` \
                     for the clippy-owned policies, whose exceptions are \
                     `#[expect(clippy::…, reason = \"…\")]`) — it suppresses nothing; remove it"
                ),
            };
            Diagnostic {
                path: model.path.clone(),
                line: a.comment_line + 1,
                col: 1,
                rule: None,
                message,
                allowed: false,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<Diagnostic>) {
        let model = FileModel::new(path, src);
        let mut out = Findings::default();
        check_metric_names(&model, &mut out);
        let (active, suppressed) = out.finish();
        (active, suppressed, stale_allows(&model))
    }

    #[test]
    fn r13_flags_inline_metric_names_only() {
        let src = "\
fn f(t: &mut Telemetry, i: usize) {
    t.incr(\"llc.app0.hits\");
    t.series(&format!(\"app{i}.slowdown\"), 1.0);
    let path = \"out/results.csv\";
    let prose = \"two words. not a name\";
    let version = \"1.2\";
    let single = \"slowdown\";
    let _ = (path, prose, version, single);
}
";
        let (d, _, _) = check("crates/cache/src/x.rs", src);
        let r13: Vec<usize> = d.iter().map(|d| d.line).collect();
        assert_eq!(r13, vec![2, 3], "{d:#?}");
        assert!(d.iter().all(|d| d.rule == Some(RuleId::R13)));
    }

    #[test]
    fn r13_exempts_the_names_registry_and_test_code() {
        let src = "pub fn hits(i: usize) -> String { format!(\"llc.app{i}.hits\") }\n";
        assert!(check("crates/telemetry/src/names.rs", src).0.is_empty());
        assert_eq!(check("crates/telemetry/src/sink.rs", src).0.len(), 1);
        let test_src = "\
#[cfg(test)]
mod tests {
    fn t() { assert_eq!(n, \"llc.app0.hits\"); }
}
";
        assert!(check("crates/cache/src/x.rs", test_src).0.is_empty());
    }

    #[test]
    fn dedup_collapses_identical_line_rule_message() {
        // The same literal twice on one line, one message: one diagnostic,
        // anchored at the leftmost column.
        let src = "fn f(t: &mut T) { t.a(\"llc.hits\"); t.b(\"llc.hits\"); }\n";
        let (d, _, _) = check("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].col, 23);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        // A comment is not in the token stream; a string fires only when
        // its whole body is a dotted name.
        let src = "\
fn f() -> &'static str {
    // t.incr(\"llc.app0.hits\")
    \"see llc.app0.hits for the count\"
}
";
        assert!(check("x.rs", src).0.is_empty());
    }

    #[test]
    fn allow_directive_suppresses_but_stays_visible() {
        let src = "\
fn f(t: &mut T) {
    // asm-lint: allow(R13): demo suppression
    t.incr(\"llc.app0.hits\");
    // asm-lint: allow(R13): nothing dotted below
    t.incr(\"hits\");
}
";
        let (active, suppressed, stale) = check("x.rs", src);
        assert!(active.is_empty(), "{active:#?}");
        assert_eq!(suppressed.len(), 1);
        assert!(suppressed[0].allowed);
        assert_eq!(stale.len(), 1, "{stale:#?}");
        assert_eq!(
            stale[0].to_string(),
            "x.rs:4: [allow] stale `allow(R13)` — it suppresses no diagnostic: nothing fires \
             on the line it binds to; remove the directive"
        );
    }
}
