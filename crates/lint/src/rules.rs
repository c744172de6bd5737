//! Diagnostics and allow-directive hygiene.
//!
//! A pass reports through [`Findings::emit`], which honours per-line
//! `// asm-lint: allow(R9): reason` directives; suppressed diagnostics are
//! returned separately so the JSON report can audit them.
//! [`stale_allows`] runs last, over every file: a directive no pass
//! consumed is a diagnostic itself, the guarantee
//! `unfulfilled_lint_expectations` gives the clippy-owned `#[expect]`s.

use crate::parse::FileModel;
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
                     line it binds to, and no hot-path fn reached from the R9 roots starts \
                     there; remove the directive",
                    r.name(),
                ),
                Err(name) => format!(
                    "`allow({name})` names no rule asm-lint owns (R9; see `--list-rules` \
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

    /// Fires R9 on every `hit` identifier of `src`.
    fn check(src: &str) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<Diagnostic>) {
        let model = FileModel::new("x.rs", src);
        let mut out = Findings::default();
        for i in (0..model.tokens.len()).filter(|&i| model.text(i) == "hit") {
            out.emit(&model, i, RuleId::R9, "hit".to_owned());
        }
        let (active, suppressed) = out.finish();
        (active, suppressed, stale_allows(&model))
    }

    #[test]
    fn dedup_collapses_identical_line_rule_message() {
        // The same finding twice on one line, one message: one diagnostic,
        // anchored at the leftmost column.
        let (d, _, _) = check("fn f(t: &mut T) { t.a(hit); t.b(hit); }\n");
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].col, 23);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        // A comment is not in the token stream and a string is one token:
        // a pass matching identifiers sees neither.
        let src = "\
fn f() -> &'static str {
    // t.incr(hit)
    \"see hit for the count\"
}
";
        assert!(check(src).0.is_empty());
    }

    #[test]
    fn allow_directive_suppresses_but_stays_visible() {
        let src = "\
fn f(t: &mut T) {
    // asm-lint: allow(R9): demo suppression
    t.incr(hit);
    // asm-lint: allow(R9): nothing fires below
    t.incr(miss);
}
";
        let (active, suppressed, stale) = check(src);
        assert!(active.is_empty(), "{active:#?}");
        assert_eq!(suppressed.len(), 1);
        assert!(suppressed[0].allowed);
        assert_eq!(stale.len(), 1, "{stale:#?}");
        assert_eq!(
            stale[0].to_string(),
            "x.rs:4: [allow] stale `allow(R9)` — it suppresses no diagnostic: nothing fires \
             on the line it binds to, and no hot-path fn reached from the R9 roots starts \
             there; remove the directive"
        );
    }
}
