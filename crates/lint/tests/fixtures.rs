//! Fixture tests: one source file per rule under `tests/fixtures/`,
//! linted through the public API with exact expected diagnostics, plus
//! the allow-directive suppression fixture.
//!
//! These tests are the reintroduction guard the acceptance criteria ask
//! for: each fixture deliberately contains the violation its rule bans,
//! and the assertions pin the `file:line` the linter must report.

use asm_lint::{lint_source, RuleId};

fn lines_of(path: &str, content: &str) -> Vec<(usize, RuleId)> {
    lint_source(path, content)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn r1_hash_collections_fixture() {
    let src = include_str!("fixtures/r1_hash_collections.rs");
    let diags = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(
        diags.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>(),
        vec![(3, RuleId::R1), (6, RuleId::R1)],
        "{diags:#?}"
    );
    // Exact rendering of the first diagnostic, as the CLI prints it.
    assert_eq!(
        diags[0].to_string(),
        "crates/core/src/fixture.rs:3: [R1] simulation code uses `HashMap` \
         — iteration order is process-randomized and can reorder simulated \
         events; use `BTreeMap`/`BTreeSet` or an explicitly sorted drain"
    );
}

#[test]
fn r2_unwrap_fixture() {
    let src = include_str!("fixtures/r2_unwrap.rs");
    let got = lines_of("crates/dram/src/fixture.rs", src);
    // Line 4: unwrap(). Line 5: bare expect("oops"). unwrap_or and the
    // long-message expect are clean; the test module is exempt.
    assert_eq!(got, vec![(4, RuleId::R2), (5, RuleId::R2)]);
}

#[test]
fn r3_float_eq_fixture() {
    let src = include_str!("fixtures/r3_float_eq.rs");
    let got = lines_of("crates/core/src/fixture.rs", src);
    // Both comparisons share line 4; integer == and ranges are clean.
    assert_eq!(got, vec![(4, RuleId::R3), (4, RuleId::R3)]);
}

#[test]
fn r4_entropy_fixture() {
    let src = include_str!("fixtures/r4_entropy.rs");
    let got = lines_of("crates/simcore/src/fixture.rs", src);
    // use Instant (3), Instant::now (6), SystemTime::now (7),
    // rand::random (17); Duration stays legal.
    assert_eq!(
        got,
        vec![
            (3, RuleId::R4),
            (6, RuleId::R4),
            (7, RuleId::R4),
            (17, RuleId::R4),
        ]
    );
}

#[test]
fn r5_lossy_cast_fixture_is_path_scoped() {
    let src = include_str!("fixtures/r5_lossy_cast.rs");
    // Under a billing path both casts fire...
    let got = lines_of("crates/core/src/mech/billing.rs", src);
    assert_eq!(got, vec![(6, RuleId::R5), (10, RuleId::R5)]);
    // ... and under the accounting path too.
    let got = lines_of("crates/dram/src/accounting.rs", src);
    assert_eq!(got, vec![(6, RuleId::R5), (10, RuleId::R5)]);
    // Identical content anywhere else is clean: R5 scopes by path.
    assert!(lines_of("crates/dram/src/bank.rs", src).is_empty());
}

#[test]
fn r6_thread_sync_fixture() {
    let src = include_str!("fixtures/r6_thread_sync.rs");
    let diags = lint_source("crates/simcore/src/fixture.rs", src);
    // use Mutex (5), use std::thread (6), thread::spawn (9), Mutex in a
    // signature (13), AtomicUsize via std::sync::atomic (18), Ordering via
    // std::sync::atomic (19). `Arc` stays legal and the test module is
    // exempt.
    assert_eq!(
        diags.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>(),
        vec![
            (5, RuleId::R6),
            (6, RuleId::R6),
            (9, RuleId::R6),
            (13, RuleId::R6),
            (18, RuleId::R6),
            (19, RuleId::R6),
        ],
        "{diags:#?}"
    );
    // Exact rendering of the thread diagnostic, as the CLI prints it.
    assert_eq!(
        diags[1].to_string(),
        "crates/simcore/src/fixture.rs:6: [R6] `std::thread` in simulation \
         code — the simulator must stay single-threaded; parallelism lives \
         in the harness crate (`experiments`)"
    );
}

#[test]
fn r7_print_fixture() {
    let src = include_str!("fixtures/r7_print.rs");
    let diags = lint_source("crates/telemetry/src/fixture.rs", src);
    // println (4), eprintln (5), dbg (6), print (7), eprint (8); the
    // shadowing identifier and `format!` are clean, tests are exempt.
    assert_eq!(
        diags.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>(),
        vec![
            (4, RuleId::R7),
            (5, RuleId::R7),
            (6, RuleId::R7),
            (7, RuleId::R7),
            (8, RuleId::R7),
        ],
        "{diags:#?}"
    );
    // Exact rendering, as the CLI prints it.
    assert_eq!(
        diags[0].to_string(),
        "crates/telemetry/src/fixture.rs:4: [R7] `println!` in simulation \
         code — stdout/stderr must stay reserved for the harness (tables \
         are byte-compared across runs); record state via `asm-telemetry` \
         counters/series/traces or return it to the caller"
    );
}

#[test]
fn r12_le_bytes_fixture() {
    let src = include_str!("fixtures/r12_le_bytes.rs");
    // to_le_bytes (5), to_be_bytes (6), from_ne_bytes (13); the allowed
    // hashing site and `format!` are clean, tests are exempt.
    let got = lines_of("crates/core/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![(5, RuleId::R12), (6, RuleId::R12), (13, RuleId::R12)]
    );
    // The persist module itself is the one place allowed to frame bytes.
    assert!(
        lint_source("crates/simcore/src/persist.rs", src).is_empty(),
        "persist.rs owns the framing primitives"
    );
}

#[test]
fn r13_metric_names_fixture() {
    let src = include_str!("fixtures/r13_metric_names.rs");
    // Inline literal (4) and format-hole literal (5); the allow-directive
    // site, registry call, path/prose/version/single-segment strings, and
    // the test module are all clean.
    let got = lines_of("crates/cache/src/fixture.rs", src);
    assert_eq!(got, vec![(4, RuleId::R13), (5, RuleId::R13)]);
    // The names registry itself is the one place allowed to spell names.
    assert!(
        lint_source("crates/telemetry/src/names.rs", src).is_empty(),
        "names.rs owns the metric-name spellings"
    );
}

#[test]
fn allow_directives_suppress_every_rule_form() {
    let src = include_str!("fixtures/allow_suppression.rs");
    let diags = lint_source("crates/core/src/fixture.rs", src);
    assert!(
        diags.is_empty(),
        "reasoned allow directives must suppress: {diags:#?}"
    );
}

#[test]
fn stripping_the_directive_resurfaces_the_violation() {
    // The escape hatch must be load-bearing: deleting the directive from
    // the suppression fixture brings the diagnostics back.
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
    let got = lines_of("crates/core/src/fixture.rs", &stripped);
    let rules: Vec<RuleId> = got.iter().map(|&(_, r)| r).collect();
    assert_eq!(rules, vec![RuleId::R1, RuleId::R2, RuleId::R3], "{got:?}");
}

#[test]
fn workspace_is_clean() {
    // The sweep half of the tentpole, pinned as a test: the real
    // simulation crates must satisfy R1-R13. CARGO_MANIFEST_DIR is
    // crates/lint; the workspace root is two levels up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf();
    let analysis = asm_lint::run_workspace(&root).expect("workspace tree is readable");
    assert!(
        analysis.diagnostics.is_empty(),
        "workspace has lint violations: {:#?}",
        analysis.diagnostics
    );
    // The three-layer analysis must actually have seen the workspace: the
    // unsafe inventory is non-empty (flat tag arenas use unchecked reads)
    // and the hot-path reachability set contains `System::step`.
    assert!(
        analysis
            .hot_reachable
            .iter()
            .any(|h| h.name == "step" && h.impl_type.as_deref() == Some("System")),
        "System::step missing from hot-path reachability: {:#?}",
        analysis.hot_reachable
    );
}

/// A temp checkout holding an empty `src/lib.rs` for every listed crate.
fn temp_checkout(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("asm_lint_{tag}_{}", std::process::id()));
    for krate in asm_lint::SIM_CRATES.iter().chain(asm_lint::HARNESS_CRATES) {
        let src = root.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&src).expect("temp tree");
        std::fs::write(src.join("lib.rs"), "").expect("fixture file");
    }
    root
}

#[test]
fn a_tree_missing_a_listed_crate_fails() {
    // A checkout where a crate named in SIM_CRATES/HARNESS_CRATES is gone
    // (deleted, renamed, moved): the walk must not quietly lint less and
    // report "clean" — it is an I/O error naming the crate.
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
