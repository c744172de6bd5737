//! Round-trips the `--json` report through the dependency-free JSON
//! parser in `asm-telemetry`, pinning the `asm-lint/3` schema shape.
//!
//! Two sources feed the check: a synthetic fixture analysis where every
//! array is non-empty, and the real workspace tree (which also gates
//! the <1s wall-clock budget of asm-lint's own pass — the `test` profile
//! is optimized, so the bound is meaningful here).

use std::path::PathBuf;

use asm_lint::{analyze_sources, jsonout, run_workspace};
use asm_telemetry::json::{parse, JsonValue};

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("missing field `{key}`"))
}

fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    field(v, key)
        .as_arr()
        .unwrap_or_else(|| panic!("field `{key}` is not an array"))
}

fn check_diag_shape(d: &JsonValue, ctx: &str) {
    assert!(
        field(d, "rule").as_str().is_some_and(|r| matches!(r, "R9" | "allow")),
        "{ctx}"
    );
    assert!(field(d, "path").as_str().is_some(), "{ctx}");
    assert!(field(d, "line").as_num().is_some_and(|n| n >= 1.0), "{ctx}");
    assert!(field(d, "col").as_num().is_some_and(|n| n >= 1.0), "{ctx}");
    assert!(field(d, "message").as_str().is_some_and(|m| !m.is_empty()), "{ctx}");
    assert!(matches!(field(d, "allowed"), JsonValue::Bool(_)), "{ctx}");
}

#[test]
fn fixture_report_round_trips_with_every_array_populated() {
    let files: Vec<(String, String)> = [
        ("crates/core/src/hot.rs", include_str!("fixtures/r9_hot_alloc.rs")),
        ("crates/cache/src/fixture.rs", include_str!("fixtures/allow_suppression.rs")),
    ]
    .into_iter()
    .map(|(p, c)| (p.to_owned(), c.to_owned()))
    .collect();
    let analysis = analyze_sources(&files);
    assert!(!analysis.diagnostics.is_empty());
    assert!(!analysis.suppressed.is_empty());
    assert!(!analysis.hot_reachable.is_empty());

    let doc = parse(&jsonout::render(&analysis)).expect("report is valid RFC 8259 JSON");

    assert_eq!(field(&doc, "schema").as_str(), Some("asm-lint/3"));
    let rules: Vec<&str> = arr(&doc, "rules").iter().filter_map(JsonValue::as_str).collect();
    assert_eq!(rules, ["R9"]);
    assert_eq!(field(&doc, "files").as_num(), Some(files.len() as f64));
    assert!(doc.get("unsafe_inventory").is_none(), "dropped in asm-lint/3");

    let diags = arr(&doc, "diagnostics");
    assert_eq!(diags.len(), analysis.diagnostics.len());
    for (d, orig) in diags.iter().zip(&analysis.diagnostics) {
        check_diag_shape(d, "diagnostics");
        assert_eq!(field(d, "rule").as_str(), Some(orig.label()));
        assert_eq!(field(d, "line").as_num(), Some(orig.line as f64));
        assert_eq!(field(d, "message").as_str(), Some(orig.message.as_str()));
        assert!(matches!(field(d, "allowed"), JsonValue::Bool(false)));
    }
    for d in arr(&doc, "suppressed") {
        check_diag_shape(d, "suppressed");
        assert!(matches!(field(d, "allowed"), JsonValue::Bool(true)));
    }

    let hot = arr(&doc, "hot_reachable");
    assert_eq!(hot.len(), analysis.hot_reachable.len());
    for (h, orig) in hot.iter().zip(&analysis.hot_reachable) {
        assert_eq!(field(h, "fn").as_str(), Some(orig.name.as_str()));
        assert_eq!(field(h, "path").as_str(), Some(orig.path.as_str()));
        assert_eq!(field(h, "line").as_num(), Some(orig.line as f64));
        assert!(matches!(field(h, "boundary"), JsonValue::Bool(b) if *b == orig.boundary));
    }
}

#[test]
fn workspace_report_round_trips_and_meets_budget() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf();

    let start = std::time::Instant::now();
    let analysis = run_workspace(&root).expect("workspace tree is readable");
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 1000,
        "asm-lint's own whole-workspace pass is budgeted <1s, took {elapsed:?}"
    );

    let doc = parse(&jsonout::render(&analysis)).expect("report is valid RFC 8259 JSON");
    assert_eq!(field(&doc, "schema").as_str(), Some("asm-lint/3"));
    assert!(
        arr(&doc, "diagnostics").is_empty(),
        "the repo lints clean: {:#?}",
        analysis.diagnostics
    );
    for d in arr(&doc, "suppressed") {
        check_diag_shape(d, "workspace suppressed");
    }
    // The hot set is anchored at System::step.
    assert!(
        arr(&doc, "hot_reachable").iter().any(|h| {
            field(h, "fn").as_str() == Some("step")
                && field(h, "impl").as_str() == Some("System")
        }),
        "System::step missing from hot_reachable"
    );
}
