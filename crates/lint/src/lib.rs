//! `asm-lint`: the workspace's determinism & simulation-safety gate.
//!
//! DESIGN.md §8 states thirteen policies (R1–R13) that keep every reported
//! number a pure function of configuration + master seed. Each has exactly
//! one owner:
//!
//! - **clippy** owns the eight that are questions about names and types
//!   (R1/R8 hash-ordered collections, R2 `unwrap`, R3 float equality, R4
//!   wall clock, R5 casts in billing arithmetic, R6 threads and locks, R7
//!   printing, R10 `unsafe` without `// SAFETY:`), plus R9's panic and I/O
//!   legs, denied crate-wide (no `panic!`/`todo!`/`unimplemented!`, no file
//!   or stdio I/O anywhere in simulation code). [`policy`] names the lints
//!   and builds the `cargo clippy` run; `clippy.toml` lists the banned
//!   types and methods.
//! - **this crate** keeps R9's allocation leg, over the simulation crates
//!   ([`SIM_CRATES`]: `simcore` through `attrib`): no heap allocation in
//!   any function reachable from `System::step` / `System::run_for` /
//!   `System::run_prefix` (or `MixSolver::{alone, solve}`). A fn-level
//!   `// asm-lint: allow(R9): reason` both suppresses and marks the fn as
//!   a justified quantum boundary (traversal stops there). A root that a
//!   linted tree no longer defines is itself a violation. The counting
//!   allocator of `tests/hot_path_allocs.rs` (root package) and
//!   `crates/analytic/tests/solver_allocs.rs` measures what this lexical
//!   check approximates.
//! - R11, R12, R13 and `--pedantic` are deleted (DESIGN.md §8 says why).
//!
//! Every diagnostic carries `path:line`. Intentional R9 violations are
//! suppressed with an allow directive stating a reason:
//!
//! ```text
//! // asm-lint: allow(R9): quantum boundary — runs once per quantum
//! ```
//!
//! placed either on the offending line (trailing) or on the line above
//! (standalone). The reason is mandatory by convention; the directive is
//! greppable so audits can review every suppression, and the clean line
//! counts the live ones. A directive that suppresses nothing is a
//! diagnostic itself (`[allow]`).
//!
//! The own pass is two dependency-free layers:
//!
//! 1. token trees — [`tokens`], a span-exact lexer (comments kept out of
//!    band), and [`parse`], the per-file model: fn signatures with
//!    brace-matched bodies, impl types, allow directives, test masking;
//! 2. [`callgraph`] (R9) and [`rules`] (diagnostics, directive hygiene).

pub mod callgraph;
pub mod parse;
pub mod policy;
pub mod rules;
pub mod tokens;

pub use parse::FileModel;
pub use rules::Diagnostic;

use std::path::{Path, PathBuf};

/// One rule's identifier, as used in allow directives. The numbering is
/// DESIGN.md §8's; the other twelve ids are clippy's or deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Allocation on the `System::step` hot path.
    R9,
}

impl RuleId {
    /// All rules this crate implements, in order.
    pub const ALL: [RuleId; 1] = [RuleId::R9];

    /// Canonical name (`"R9"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::R9 => "R9",
        }
    }

    /// One-line summary, as printed by `--list-rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::R9 => "no heap allocation reachable from System::step (panic and I/O: clippy)",
        }
    }

    /// Parses `"R9"` (case-insensitive, surrounding whitespace ignored).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        let s = s.trim();
        RuleId::ALL.into_iter().find(|r| r.name().eq_ignore_ascii_case(s))
    }
}

/// The simulation crates the policy binds: `asm-lint`'s own rules walk
/// their `src/` trees and the clippy half checks their lib targets.
/// `experiments`, `vendor/*` shims, the root package and the lint crate
/// itself are exempt: harness code may thread, lock, time and print.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "cache",
    "dram",
    "cpu",
    "core",
    "workloads",
    "metrics",
    "telemetry",
    "analytic",
    "sampling",
    "attrib",
];

/// One function in the R9 hot-path reachability set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotFn {
    /// Display path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl`, if any.
    pub impl_type: Option<String>,
    /// Whether a fn-level `allow(R9)` marks it as a justified boundary
    /// (traversal and leaf checks stop there).
    pub boundary: bool,
}

/// The complete result of `asm-lint`'s own pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Active violations (stale allow directives included), deduplicated
    /// and sorted by (path, line, rule, col).
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by allow directives (counted in the clean
    /// line).
    pub suppressed: Vec<Diagnostic>,
    /// Functions reachable from the `System::step` family.
    pub hot_reachable: Vec<HotFn>,
    /// R9 roots whose `impl` type is among the analysed files but whose
    /// method is defined nowhere (see [`callgraph::GraphResult`]).
    /// [`run_workspace`] moves them into `diagnostics`; fixture-sized
    /// inputs to [`analyze_sources`] may leave roots undefined.
    pub unresolved_roots: Vec<Diagnostic>,
    /// Non-test `#[expect(…)]` attributes: the clippy-owned exceptions.
    pub expect_sites: usize,
    /// Number of files analysed.
    pub files: usize,
}

/// Runs R9 and the allow-directive hygiene check over in-memory
/// `(path, content)` pairs — the workspace walk without the filesystem,
/// used by fixture tests and by [`run_workspace`].
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(path, content)| FileModel::new(path, content))
        .collect();

    let graph = callgraph::analyze(&models);
    let mut findings = graph.findings;
    // Last: the pass above has consumed the directives it honoured.
    findings
        .active
        .extend(models.iter().flat_map(rules::stale_allows));

    let (diagnostics, suppressed) = findings.finish();
    Analysis {
        diagnostics,
        suppressed,
        hot_reachable: graph.reachable,
        unresolved_roots: graph.unresolved_roots,
        expect_sites: models.iter().map(policy::expect_sites).sum(),
        files: files.len(),
    }
}

/// Walks `<root>/crates/<crate>/src` for the simulation crates and runs
/// `asm-lint`'s own pass. Paths in diagnostics are relative to `root`.
/// Returns `Err` only for I/O failures (unreadable tree, or a listed
/// crate that is not there), never for violations.
pub fn run_workspace(root: &Path) -> std::io::Result<Analysis> {
    let sources = read_workspace_sources(root)?;
    let mut analysis = analyze_sources(&sources);
    // A whole tree must define every hot-path root of the types it has.
    let mut found = std::mem::take(&mut analysis.diagnostics);
    found.append(&mut analysis.unresolved_roots);
    analysis.diagnostics = rules::dedup_sort(found);
    Ok(analysis)
}

/// Reads every lintable `(display_path, content)` pair under
/// `<root>/crates/<crate>/src` in sorted path order — the I/O half of
/// [`run_workspace`].
fn read_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for krate in SIM_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        // A listed crate that is gone (or a typo'd root, where all are)
        // must not read as "clean": skipping it would silently un-lint
        // whatever replaced it.
        collect_rs_files(&dir, &mut files).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("listed crate `{krate}`: cannot read {}: {e}", dir.display()),
            )
        })?;
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let content = std::fs::read_to_string(&file)?;
        let display = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((display, content));
    }
    Ok(sources)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_crates_list_matches_roadmap() {
        assert_eq!(SIM_CRATES.len(), 11);
    }

    #[test]
    fn rule_parse_covers_the_owned_rule_only() {
        assert_eq!(RuleId::parse(" r9 "), Some(RuleId::R9));
        // Clippy's now (R1) or deleted (R12, R13): not ours to allow.
        assert_eq!(RuleId::parse("R1"), None);
        assert_eq!(RuleId::parse("R12"), None);
        assert_eq!(RuleId::parse("R13"), None);
    }
}
