//! Fixture tests for `asm-lint`'s own pass, through the public API: the
//! allow-directive fixture with live and dead directives (R9's own
//! fixture is in `interprocedural.rs`) and the whole-tree checks. (The
//! clippy-owned policies have one reintroduction guard of their own:
//! `policy.rs`.)

use asm_lint::{analyze_sources, Analysis, RuleId};

fn analyze(path: &str, content: &str) -> Analysis {
    analyze_sources(&[(path.to_owned(), content.to_owned())])
}

fn lines_of(analysis: &Analysis) -> Vec<(usize, Option<RuleId>)> {
    analysis.diagnostics.iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn allow_directives_suppress_every_rule_form() {
    let analysis = analyze(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/allow_suppression.rs"),
    );
    // Three live directives: two suppressed leaves (standalone and
    // trailing) ...
    let suppressed: Vec<(usize, Option<RuleId>)> =
        analysis.suppressed.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        suppressed,
        vec![(12, Some(RuleId::R9)), (13, Some(RuleId::R9))],
        "{:#?}",
        analysis.suppressed
    );
    // ... and the boundary, which the walk reaches and stops at.
    assert!(analysis.hot_reachable.iter().any(|h| h.name == "end_quantum" && h.boundary));
    // The fourth sits on a fn the walk never visits: a diagnostic.
    let got: Vec<String> = analysis.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(got.len(), 1, "{got:#?}");
    assert!(
        got[0].starts_with("crates/core/src/fixture.rs:23: [allow] stale `allow(R9)`"),
        "{got:#?}"
    );
}

#[test]
fn stripping_the_directive_resurfaces_the_violation() {
    // The escape hatch must be load-bearing: deleting the directives from
    // the suppression fixture brings the diagnostics back (the boundary's
    // body included) and leaves nothing stale.
    let src = include_str!("fixtures/allow_suppression.rs");
    let stripped: String = src
        .lines()
        .map(|l| {
            let without = match l.find("// asm-lint:") {
                Some(i) => &l[..i],
                None => l,
            };
            format!("{without}\n")
        })
        .collect();
    let analysis = analyze("crates/core/src/fixture.rs", &stripped);
    assert_eq!(
        lines_of(&analysis),
        vec![(12, Some(RuleId::R9)), (13, Some(RuleId::R9)), (19, Some(RuleId::R9))],
        "{:#?}",
        analysis.diagnostics
    );
}

fn workspace_root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR is crates/lint; the workspace root is two up.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    // The real simulation crates must satisfy R9 with no stale
    // directive, and the analysis must actually have seen them: the
    // hot-path reachability set contains `System::step`.
    let analysis = asm_lint::run_workspace(&workspace_root()).expect("workspace tree is readable");
    assert!(
        analysis.diagnostics.is_empty(),
        "workspace has lint violations: {:#?}",
        analysis.diagnostics
    );
    assert!(
        analysis
            .hot_reachable
            .iter()
            .any(|h| h.name == "step" && h.impl_type.as_deref() == Some("System")),
        "System::step missing from hot-path reachability: {:#?}",
        analysis.hot_reachable
    );
}

#[test]
fn every_allow_directive_in_the_tree_is_one_the_linter_walks() {
    // A directive in a directory `run_workspace` never reads (a crate's
    // `tests/`, the harness) can be neither live nor reported as stale.
    fn visit(dir: &std::path::Path, hits: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("workspace tree is readable") {
            let path = entry.expect("workspace tree is readable").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, "target" | ".git" | ".bench_build" | "lint") {
                    visit(&path, hits);
                }
            } else if name.ends_with(".rs")
                && std::fs::read_to_string(&path).is_ok_and(|s| s.contains("asm-lint: allow("))
            {
                hits.push(path.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let mut hits = Vec::new();
    visit(&workspace_root(), &mut hits);
    let walked = |p: &String| asm_lint::SIM_CRATES.iter().any(|c| p.contains(&format!("/crates/{c}/src/")));
    let stray: Vec<&String> = hits.iter().filter(|p| !walked(p)).collect();
    assert!(!hits.is_empty() && stray.is_empty(), "directives outside the linted trees: {stray:#?}");
}

/// A temp checkout holding an empty `src/lib.rs` for every listed crate.
fn temp_checkout(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("asm_lint_{tag}_{}", std::process::id()));
    for krate in asm_lint::SIM_CRATES {
        let src = root.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&src).expect("temp tree");
        std::fs::write(src.join("lib.rs"), "").expect("fixture file");
    }
    root
}

#[test]
fn a_tree_missing_a_listed_crate_fails() {
    // A checkout where a crate named in SIM_CRATES is gone (deleted,
    // renamed, moved): the walk must not quietly lint less and report
    // "clean" — it is an I/O error naming the crate.
    let root = temp_checkout("missing_crate");
    std::fs::remove_dir_all(root.join("crates/attrib")).expect("temp tree");
    let err = asm_lint::run_workspace(&root).expect_err("a listed crate is missing");
    std::fs::remove_dir_all(&root).ok();
    assert!(err.to_string().contains("listed crate `attrib`"), "{err}");
}

#[test]
fn a_tree_that_lost_a_hot_path_root_fails() {
    // A checkout whose `impl System` no longer defines `run_prefix` (a
    // rename, or a file split that dropped it): R9 must not quietly
    // analyse less — linting the tree fails.
    let root = temp_checkout("lost_root");
    let dir = root.join("crates/core/src/system");
    std::fs::create_dir_all(&dir).expect("temp tree");
    let src = "pub struct System;\nimpl System {\n    pub fn step(&mut self) { }\n    \
               pub fn run_for(&mut self) { self.step(); }\n}\n";
    std::fs::write(dir.join("mod.rs"), src).expect("fixture file");
    let analysis = asm_lint::run_workspace(&root).expect("temp tree is readable");
    std::fs::remove_dir_all(&root).ok();
    let got: Vec<String> = analysis.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(got.len(), 1, "{got:#?}");
    assert!(
        got[0].starts_with(
            "crates/core/src/system/mod.rs:3: [R9] hot-path root `System::run_prefix` \
             resolves to no definition"
        ),
        "{got:#?}"
    );
}
