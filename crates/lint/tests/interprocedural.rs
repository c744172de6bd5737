//! Fixture test for the workspace-level rule R9: the positive case, the
//! clean case, and the fn-level allow that marks a traversal boundary,
//! through the same `analyze_sources` entry point the CLI uses.

use asm_lint::{analyze_sources, RuleId};

#[test]
fn r9_hot_path_allocation_and_boundary() {
    let analysis = analyze_sources(&[(
        "crates/core/src/hot.rs".to_owned(),
        include_str!("fixtures/r9_hot_alloc.rs").to_owned(),
    )]);
    // Only `drain`'s collect fires: `end_quantum` is a justified
    // boundary and `dump` is unreachable from `System::step`.
    let got: Vec<(usize, Option<RuleId>)> =
        analysis.diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(got, vec![(14, Some(RuleId::R9))], "{:#?}", analysis.diagnostics);

    // The reachability export covers exactly the per-cycle fns, with the
    // boundary marked.
    let hot: Vec<(&str, bool)> = analysis
        .hot_reachable
        .iter()
        .map(|h| (h.name.as_str(), h.boundary))
        .collect();
    assert_eq!(
        hot,
        vec![("step", false), ("drain", false), ("end_quantum", true)],
        "{:#?}",
        analysis.hot_reachable
    );
}
