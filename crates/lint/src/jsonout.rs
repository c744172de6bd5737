//! Machine-readable report writer for `--json`.
//!
//! Hand-rolled so the linter stays runtime-dependency-free (the build
//! environment has no crates.io access). The schema is stable and
//! round-trip-tested against the dependency-free JSON parser in
//! `asm-telemetry` (`asm_telemetry::json::parse`):
//!
//! ```json
//! {
//!   "schema": "asm-lint/3",
//!   "rules": ["R9"],
//!   "files": 42,
//!   "diagnostics":     [{"rule", "path", "line", "col", "message", "allowed"}…],
//!   "suppressed":      [same shape, allowed = true…],
//!   "hot_reachable":   [{"fn", "impl", "path", "line", "boundary"}…]
//! }
//! ```
//!
//! It covers `asm-lint`'s own pass; the clippy half reports on stderr and
//! through the exit code. `rule` is `"allow"` for a stale allow directive.
//!
//! Arrays are pre-sorted by the analysis (diagnostics by
//! `(path, line, rule, col)`, reachability by `(path, line)`), so the
//! report is byte-identical across runs and machines.

use crate::rules::Diagnostic;
use crate::{Analysis, RuleId};

/// Renders the full analysis as a JSON document (trailing newline).
#[must_use]
pub fn render(a: &Analysis) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"asm-lint/3\",\n  \"rules\": [");
    for (i, r) in RuleId::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_json(&mut out, r.name());
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"files\": {},\n", a.files));

    out.push_str("  \"diagnostics\": [");
    push_diags(&mut out, &a.diagnostics);
    out.push_str("],\n");

    out.push_str("  \"suppressed\": [");
    push_diags(&mut out, &a.suppressed);
    out.push_str("],\n");

    out.push_str("  \"hot_reachable\": [");
    for (i, h) in a.hot_reachable.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"fn\": ");
        push_str_json(&mut out, &h.name);
        out.push_str(", \"impl\": ");
        push_opt_str(&mut out, h.impl_type.as_deref());
        out.push_str(", \"path\": ");
        push_str_json(&mut out, &h.path);
        out.push_str(&format!(", \"line\": {}, \"boundary\": {}}}", h.line, h.boundary));
    }
    if !a.hot_reachable.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn push_diags(out: &mut String, diags: &[Diagnostic]) {
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"rule\": ");
        push_str_json(out, d.label());
        out.push_str(", \"path\": ");
        push_str_json(out, &d.path);
        out.push_str(&format!(", \"line\": {}, \"col\": {}, \"message\": ", d.line, d.col));
        push_str_json(out, &d.message);
        out.push_str(&format!(", \"allowed\": {}}}", d.allowed));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
}

fn push_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => push_str_json(out, s),
        None => out.push_str("null"),
    }
}

/// Appends `s` as a JSON string literal with full escaping.
fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HotFn;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut s = String::new();
        push_str_json(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn empty_analysis_renders_empty_arrays() {
        let a = Analysis::default();
        let json = render(&a);
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"hot_reachable\": []"));
        assert!(json.contains("\"schema\": \"asm-lint/3\""));
        assert!(json.contains("\"rules\": [\"R9\"]"));
    }

    #[test]
    fn records_render_all_fields() {
        let a = Analysis {
            diagnostics: vec![Diagnostic {
                path: "crates/core/src/x.rs".into(),
                line: 3,
                col: 7,
                rule: None,
                message: "stale `allow(R9)`".into(),
                allowed: false,
            }],
            suppressed: Vec::new(),
            hot_reachable: vec![HotFn {
                path: "crates/core/src/system/mod.rs".into(),
                line: 834,
                name: "step".into(),
                impl_type: Some("System".into()),
                boundary: false,
            }],
            unresolved_roots: Vec::new(),
            expect_sites: 0,
            files: 2,
        };
        let json = render(&a);
        assert!(json.contains("\"rule\": \"allow\""));
        assert!(json.contains("\"impl\": \"System\""));
        assert!(json.contains("\"files\": 2"));
    }
}
