//! `asm-lint`: a workspace determinism & simulation-safety linter.
//!
//! A repo-specific static-analysis pass over the simulation crates
//! ([`SIM_CRATES`]: `simcore` through `attrib`) plus the harness crate
//! (`experiments`). It enforces thirteen rules that
//! `rustc`/`clippy` cannot express for us.
//!
//! Per-file rules (token-stream analysis):
//!
//! - **R1** — no `HashMap`/`HashSet` in simulation code: hash iteration
//!   order is randomized per process and feeds simulated event order.
//!   Use `BTreeMap`/`BTreeSet`.
//! - **R2** — no `unwrap()` and no bare `expect` outside `#[cfg(test)]`:
//!   every panic site in simulation code must state its invariant.
//! - **R3** — no `f64`/`f32` `==`/`!=` comparisons: slowdown and CAR
//!   ratios must be compared with an epsilon or in integer cycle math.
//! - **R4** — no wall-clock or OS entropy (`Instant`, `SystemTime`,
//!   external `rand`, `RandomState`): `SimRng` is the only randomness.
//! - **R5** — numeric `as` casts in billing/accounting arithmetic
//!   (`mech/billing.rs`, `dram/accounting.rs`) must be justified.
//! - **R6** — no `std::thread` and no `std::sync` primitives beyond
//!   `Arc`: the simulator is a pure single-threaded function of its
//!   inputs. Parallelism lives in the harness crates.
//! - **R7** — no `println!`/`print!`/`eprintln!`/`eprint!`/`dbg!`:
//!   experiment stdout is byte-compared across runs.
//! - **R10** — every `unsafe` carries an adjacent `// SAFETY:` comment
//!   stating the invariant that makes it sound, and every site is
//!   registered in the emitted unsafe inventory.
//! - **R11** — harness lock discipline: no `MutexGuard` held across a
//!   call into `Runner::run`/`run_with` (a lock held while dispatching
//!   simulations serializes the pool and risks deadlock).
//! - **R12** — state serialization in simulation crates goes through
//!   `asm_simcore::persist`'s writer/reader: no ad-hoc
//!   `to_le_bytes`/`from_le_bytes` framing outside the persist module
//!   itself. Hand-rolled framing skips the magic/version/checksum
//!   envelope that makes every artefact warn-and-rebuild safe.
//! - **R13** — telemetry and attribution metric names come from the
//!   central registry (`crates/telemetry/src/names.rs`): no inline
//!   dotted metric-name string literals (`"llc.app0.hits"`,
//!   `"attrib.app{i}.{component}"`) in non-test simulation code. Inline
//!   spellings drift out of sync with the registry the telemetry sinks
//!   and the accuracy dashboard join on.
//!
//! Workspace rules (symbol table + call graph, see [`resolve`] and
//! [`callgraph`]):
//!
//! - **R8** — iteration-order taint: `HashMap`/`HashSet`/`RandomState`
//!   reached through `use … as` renames, `pub use` re-exports, `type`
//!   aliases, or struct generic-parameter defaults — the spellings the
//!   lexical rules provably cannot see.
//! - **R9** — hot-path hygiene: no heap allocation, I/O, or panicking
//!   macros in any function reachable from `System::step` /
//!   `System::run_for` / `System::run_prefix` (or `MixSolver::solve`). A
//!   fn-level `// asm-lint: allow(R9): reason` both suppresses and marks
//!   the fn as a justified quantum boundary (traversal stops there). A
//!   root that a linted tree no longer defines is itself a violation.
//!
//! Every diagnostic carries `path:line`. Intentional violations are
//! suppressed with an allow directive stating a reason:
//!
//! ```text
//! // asm-lint: allow(R5): u32 cycle counts fit f64's 53-bit mantissa
//! ```
//!
//! placed either on the offending line (trailing) or on the line above
//! (standalone). The reason is mandatory by convention; the directive is
//! greppable so audits can review every suppression, and suppressed
//! diagnostics remain visible in the `--json` report.
//!
//! The analysis is a three-layer pipeline, dependency-free because the
//! build environment has no crates.io access:
//!
//! 1. [`tokens`] — span-exact lexer (comments kept out of band);
//! 2. [`parse`] — per-file item model: `use`-trees, type aliases, fn
//!    signatures with brace-matched bodies, unsafe sites, test masking;
//! 3. [`resolve`] / [`callgraph`] — workspace symbol table and a
//!    conservative intra-workspace call graph for R8/R9.

pub mod callgraph;
pub mod jsonout;
pub mod parse;
pub mod resolve;
pub mod rules;
pub mod tokens;

pub use parse::FileModel;
pub use rules::Diagnostic;

use std::path::{Path, PathBuf};

/// One rule's identifier (`R1`..`R11`), as used in allow directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Hash-ordered collections in simulation state.
    R1,
    /// `unwrap()` / bare `expect` outside tests.
    R2,
    /// Float `==` / `!=` comparisons.
    R3,
    /// Wall-clock or OS entropy in simulation crates.
    R4,
    /// Lossy `as` casts in billing/accounting arithmetic.
    R5,
    /// Threads or synchronisation primitives in simulation crates.
    R6,
    /// `println!`-family printing in simulation crates.
    R7,
    /// Hash-ordered types reached through aliases/re-exports/defaults.
    R8,
    /// Allocation, I/O, or panics on the `System::step` hot path.
    R9,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    R10,
    /// `MutexGuard` held across `Runner::run*` dispatch.
    R11,
    /// Ad-hoc byte framing outside `simcore/src/persist.rs`.
    R12,
    /// Inline dotted metric-name literals outside the names registry.
    R13,
}

impl RuleId {
    /// All rules, in order.
    pub const ALL: [RuleId; 13] = [
        RuleId::R1,
        RuleId::R2,
        RuleId::R3,
        RuleId::R4,
        RuleId::R5,
        RuleId::R6,
        RuleId::R7,
        RuleId::R8,
        RuleId::R9,
        RuleId::R10,
        RuleId::R11,
        RuleId::R12,
        RuleId::R13,
    ];

    /// Canonical name (`"R1"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::R5 => "R5",
            RuleId::R6 => "R6",
            RuleId::R7 => "R7",
            RuleId::R8 => "R8",
            RuleId::R9 => "R9",
            RuleId::R10 => "R10",
            RuleId::R11 => "R11",
            RuleId::R12 => "R12",
            RuleId::R13 => "R13",
        }
    }

    /// One-line summary, as printed by `--list-rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::R1 => "no HashMap/HashSet in simulation state (hash iteration order is process-randomized)",
            RuleId::R2 => "no unwrap() or bare expect outside tests (state the invariant)",
            RuleId::R3 => "no f64/f32 ==/!= comparisons (use an epsilon or integer cycle math)",
            RuleId::R4 => "no wall-clock or OS entropy (SimRng is the only randomness)",
            RuleId::R5 => "numeric `as` casts in billing/accounting arithmetic must be justified",
            RuleId::R6 => "no threads or sync primitives beyond Arc in simulation crates",
            RuleId::R7 => "no print macros in simulation crates (stdout is byte-compared)",
            RuleId::R8 => "no hash-ordered types reached through aliases, re-exports, or generic defaults",
            RuleId::R9 => "no heap allocation, I/O, or panic macros reachable from System::step",
            RuleId::R10 => "every unsafe site carries an adjacent // SAFETY: comment",
            RuleId::R11 => "no MutexGuard held across Runner::run*/run_with dispatch",
            RuleId::R12 => "state serialization goes through asm_simcore::persist (no ad-hoc to_le_bytes framing)",
            RuleId::R13 => "metric names come from asm_telemetry::names (no inline dotted-name string literals)",
        }
    }

    /// Parses `"R7"` (case-insensitive, surrounding whitespace ignored).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R1" => Some(RuleId::R1),
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "R5" => Some(RuleId::R5),
            "R6" => Some(RuleId::R6),
            "R7" => Some(RuleId::R7),
            "R8" => Some(RuleId::R8),
            "R9" => Some(RuleId::R9),
            "R10" => Some(RuleId::R10),
            "R11" => Some(RuleId::R11),
            "R12" => Some(RuleId::R12),
            "R13" => Some(RuleId::R13),
        _ => None,
        }
    }
}

/// The simulation crates `asm-lint` gates with the full rule set.
/// `vendor/*` shims and the lint crate itself are exempt: they are not
/// simulation code.
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

/// The harness crates, linted only for lock discipline (R11): they are
/// allowed to thread, lock, and print — that is their job.
pub const HARNESS_CRATES: &[&str] = &["experiments"];

/// How a file participates in the analysis, decided from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Simulation code: R1–R10 apply.
    Sim,
    /// Harness code (`experiments`): only R11 applies.
    Harness,
}

/// The role a display path implies. Anything outside the harness crates
/// is held to the simulation rules (fixtures and single-file callers get
/// the strict set by default).
#[must_use]
pub fn role_of(path: &str) -> FileRole {
    if HARNESS_CRATES
        .iter()
        .any(|c| path.contains(&format!("crates/{c}/")))
    {
        FileRole::Harness
    } else {
        FileRole::Sim
    }
}

/// Analysis tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Also flag panicking indexing (`x[i]`) on the R9 hot path. Off by
    /// default: the SoA arenas index heavily behind debug-checked
    /// invariants, so this is an audit mode, not a gate.
    pub pedantic: bool,
}

/// One `unsafe` site in the emitted inventory (R10's ledger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeRecord {
    /// Display path of the file.
    pub path: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// `block` / `fn` / `impl` / `trait`.
    pub kind: &'static str,
    /// Name of the enclosing fn, if any.
    pub enclosing_fn: Option<String>,
    /// Whether an adjacent `// SAFETY:` comment justifies the site.
    pub has_safety: bool,
}

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

/// The complete result of a workspace analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Active violations, deduplicated and sorted by (path, line, col,
    /// rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by allow directives — kept visible so audits
    /// and the `--json` report can review every suppression.
    pub suppressed: Vec<Diagnostic>,
    /// Every non-test `unsafe` site, justified or not.
    pub unsafe_inventory: Vec<UnsafeRecord>,
    /// Functions reachable from the `System::step` family.
    pub hot_reachable: Vec<HotFn>,
    /// R9 roots whose `impl` type is among the analysed files but whose
    /// method is defined nowhere (see [`callgraph::GraphResult`]).
    /// [`run_workspace_with`] moves them into `diagnostics`; fixture-sized
    /// inputs to [`analyze_sources`] may leave roots undefined.
    pub unresolved_roots: Vec<Diagnostic>,
    /// Number of files analysed.
    pub files: usize,
}

/// Lints one file's contents under a display path, with the per-file
/// rules only (R1–R7, R10, R11 by role). The path matters: R5 only
/// applies to billing/accounting files, and harness paths get R11
/// instead of the simulation set.
///
/// The workspace rules R8/R9 need cross-file symbol and call-graph
/// context; use [`analyze_sources`] or [`run_workspace`] for those.
/// This asymmetry is deliberate and test-pinned: an aliased `HashMap`
/// that `lint_source` misses is exactly what R8 exists to catch.
#[must_use]
pub fn lint_source(display_path: &str, content: &str) -> Vec<Diagnostic> {
    let model = FileModel::new(display_path, content);
    let (active, suppressed) = rules::check(&model, role_of(display_path), &Options::default());
    let (active, _suppressed) = rules::finish(active, suppressed);
    active
}

/// Runs the full three-layer analysis over in-memory `(path, content)`
/// pairs — the workspace walk without the filesystem, used by fixture
/// tests and by [`run_workspace`].
#[must_use]
pub fn analyze_sources(files: &[(String, String)], opts: &Options) -> Analysis {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(path, content)| FileModel::new(path, content))
        .collect();
    let roles: Vec<FileRole> = files.iter().map(|(path, _)| role_of(path)).collect();

    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    let mut inventory = Vec::new();
    for (model, role) in models.iter().zip(&roles) {
        let (a, s) = rules::check(model, *role, opts);
        active.extend(a);
        suppressed.extend(s);
        for u in &model.unsafes {
            if u.is_test {
                continue;
            }
            inventory.push(UnsafeRecord {
                path: model.path.clone(),
                line: u.line + 1,
                col: u.col + 1,
                kind: u.kind.name(),
                enclosing_fn: u.enclosing_fn.clone(),
                has_safety: u.has_safety,
            });
        }
    }

    // Workspace passes over simulation files only.
    let sim_models: Vec<&FileModel> = models
        .iter()
        .zip(&roles)
        .filter(|(_, r)| **r == FileRole::Sim)
        .map(|(m, _)| m)
        .collect();
    let (r8_active, r8_suppressed) = resolve::check_alias_taint(&sim_models);
    active.extend(r8_active);
    suppressed.extend(r8_suppressed);
    let graph = callgraph::analyze(&sim_models, opts);
    active.extend(graph.active);
    suppressed.extend(graph.suppressed);

    let (active, suppressed) = rules::finish(active, suppressed);
    inventory.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Analysis {
        diagnostics: active,
        suppressed,
        unsafe_inventory: inventory,
        hot_reachable: graph.reachable,
        unresolved_roots: graph.unresolved_roots,
        files: files.len(),
    }
}

/// Walks `<root>/crates/<crate>/src` for the simulation and harness
/// crates and runs the full analysis. Paths in diagnostics are relative
/// to `root`. Returns `Err` only for I/O failures (unreadable tree, or a
/// listed crate that is not there), never for violations.
pub fn run_workspace(root: &Path) -> std::io::Result<Analysis> {
    run_workspace_with(root, &Options::default())
}

/// [`run_workspace`] with explicit [`Options`].
pub fn run_workspace_with(root: &Path, opts: &Options) -> std::io::Result<Analysis> {
    let sources = read_workspace_sources(root)?;
    let mut analysis = analyze_sources(&sources, opts);
    // A whole tree must define every hot-path root of the types it has.
    let mut found = std::mem::take(&mut analysis.diagnostics);
    found.append(&mut analysis.unresolved_roots);
    (analysis.diagnostics, _) = rules::finish(found, Vec::new());
    Ok(analysis)
}

/// Reads every lintable `(display_path, content)` pair under
/// `<root>/crates/<crate>/src` in sorted path order — the I/O half of
/// [`run_workspace`].
fn read_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for krate in SIM_CRATES.iter().chain(HARNESS_CRATES) {
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
    fn lint_source_routes_r5_by_path() {
        let src = "fn f(x: u64) -> f64 { x as f64 }\n";
        assert!(!lint_source("crates/core/src/mech/billing.rs", src).is_empty());
        assert!(lint_source("crates/core/src/mech/policy.rs", src).is_empty());
    }

    #[test]
    fn sim_crates_list_matches_roadmap() {
        assert_eq!(SIM_CRATES.len(), 11);
    }

    #[test]
    fn harness_paths_get_the_harness_role() {
        assert_eq!(role_of("crates/experiments/src/pool.rs"), FileRole::Harness);
        assert_eq!(role_of("crates/core/src/system/mod.rs"), FileRole::Sim);
    }

    #[test]
    fn rule_parse_covers_all_thirteen() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::ALL.len(), 13);
        assert_eq!(RuleId::parse("r10"), Some(RuleId::R10));
        assert_eq!(RuleId::parse("R14"), None);
    }
}
