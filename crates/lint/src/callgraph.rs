//! Workspace call graph: the R9 hot-path hygiene pass.
//!
//! Builds a conservative intra-workspace call graph over the simulation
//! crates and walks it from the hot-path roots — the per-cycle loop's
//! public entries (`System::step`, `System::run_for`,
//! `System::run_prefix`) and the analytic tier's alone fit and per-mix
//! solve (`MixSolver::{alone, solve}`) — to find every function that can
//! execute inside those loops. Reachable functions must not allocate, perform I/O, or
//! invoke panic macros; the reachability set itself is exported (see
//! `--json`) so the hot path is auditable. A root that resolves to no
//! definition although its `impl` type is linted is reported too
//! ([`GraphResult::unresolved_roots`]): a rename or a file split must not
//! silently un-root the analysis.
//!
//! Conservatism and escape hatch:
//!
//! - Method calls (`x.f(…)`) link to *every* workspace fn named `f`
//!   that takes a `self` receiver — receiver types are unknown without
//!   type inference, but method syntax provably cannot reach free fns
//!   or self-less associated fns. Qualified calls (`T::f(…)`) link only
//!   to fns in `impl T`; bare calls prefer the defining file, then free
//!   fns. External calls (`Vec::new`) create no edges.
//! - A fn-level `// asm-lint: allow(R9): reason` on (or directly above)
//!   the `fn` line both suppresses the fn's own leaf checks *and* stops
//!   traversal there: it declares a justified quantum boundary (epoch
//!   accounting, tracer flush) whose callees run off the per-cycle
//!   path. Boundary fns still appear in the reachability set, marked. The
//!   walk consumes the directive when it reaches the fn; one on a fn it
//!   never reaches stays unconsumed and is reported as stale.
//!
//! The leaf check is lexical — the lists below are everything it matches.
//! A `push` that grows, a `clone` of a `Vec` or a `Vec::new` that is
//! later filled is invisible to it; `tests/hot_path_allocs.rs` (root
//! package) counts real allocations between quantum boundaries for that.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::FileModel;
use crate::rules::{Diagnostic, Findings};
use crate::tokens::{Delim, TokKind};
use crate::{HotFn, RuleId};

/// Root methods of the analysed hot paths as `(impl type, fn)` pairs: the
/// public entries of the per-cycle loop on `impl System`, plus the analytic
/// tier's per-profile alone fit and per-mix solve on `impl MixSolver` — a
/// campaign calls them millions of times, so they get the same
/// no-alloc/no-I/O discipline as the cycle loop.
const ROOTS: &[(&str, &str)] = &[
    ("System", "step"),
    ("System", "run_for"),
    ("System", "run_prefix"),
    ("MixSolver", "alone"),
    ("MixSolver", "solve"),
];

/// The R9 pass result.
#[derive(Debug, Default)]
pub struct GraphResult {
    /// Leaf diagnostics, active and allow-suppressed.
    pub findings: Findings,
    /// Every reachable fn, sorted by (path, line).
    pub reachable: Vec<HotFn>,
    /// One diagnostic per root whose `impl` type has fns among the linted
    /// files but whose method is defined nowhere. Kept apart from
    /// `findings`: a whole tree must resolve every such root
    /// ([`crate::run_workspace`] fails on these), a fixture may
    /// define only the roots it exercises.
    pub unresolved_roots: Vec<Diagnostic>,
}

/// One fn node in the graph.
struct Node {
    file: usize,
    fn_idx: usize,
    name: String,
    impl_type: Option<String>,
    has_self: bool,
    boundary: bool,
}

/// Runs the R9 pass over the simulation files.
#[must_use]
pub fn analyze(models: &[FileModel]) -> GraphResult {
    let mut nodes: Vec<Node> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (file, m) in models.iter().enumerate() {
        for (fn_idx, f) in m.fns.iter().enumerate() {
            if f.is_test || f.body.is_none() {
                continue;
            }
            let id = nodes.len();
            nodes.push(Node {
                file,
                fn_idx,
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                has_self: f.has_self,
                boundary: m.has_allow(f.sig_line, RuleId::R9),
            });
            by_name.entry(&models[file].fns[fn_idx].name).or_default().push(id);
        }
    }

    let mut result = GraphResult::default();
    for &(ty, f) in ROOTS {
        let mut of_type = nodes.iter().filter(|n| n.impl_type.as_deref() == Some(ty));
        let Some(first) = of_type.next() else { continue };
        if first.name != f && !of_type.any(|n| n.name == f) {
            result.unresolved_roots.push(Diagnostic {
                path: models[first.file].path.clone(),
                line: models[first.file].fns[first.fn_idx].sig_line + 1,
                col: 1,
                rule: Some(RuleId::R9),
                message: format!(
                    "hot-path root `{ty}::{f}` resolves to no definition although `impl {ty}` \
                     is linted — R9 would silently analyse nothing from it; restore the method \
                     or update `ROOTS` in crates/lint/src/callgraph.rs"
                ),
                allowed: false,
            });
        }
    }

    // BFS from the roots; boundary fns are listed but not expanded.
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, n) in nodes.iter().enumerate() {
        if ROOTS
            .iter()
            .any(|&(ty, f)| n.name == f && n.impl_type.as_deref() == Some(ty))
        {
            visited.insert(id);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        let node = &nodes[id];
        let m = &models[node.file];
        let f = &m.fns[node.fn_idx];
        if node.boundary {
            m.use_allow(f.sig_line, RuleId::R9);
            continue;
        }
        let (open, close) = f.body.unwrap_or((0, 0));
        check_leaves(m, &f.name, open, close, &mut result.findings);
        for callee in call_targets(m, open, close, node, &nodes, &by_name) {
            if visited.insert(callee) {
                queue.push_back(callee);
            }
        }
    }

    result.reachable = visited
        .iter()
        .map(|&id| {
            let n = &nodes[id];
            let f = &models[n.file].fns[n.fn_idx];
            HotFn {
                path: models[n.file].path.clone(),
                line: f.sig_line + 1,
                name: n.name.clone(),
                impl_type: n.impl_type.clone(),
                boundary: n.boundary,
            }
        })
        .collect();
    result
        .reachable
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    result
}

/// Resolves the call sites in one fn body to node ids, conservatively.
fn call_targets(
    m: &FileModel,
    open: usize,
    close: usize,
    caller: &Node,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        if m.tokens[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Macro invocation, not a call.
        if m.is_punct(i + 1, "!") {
            i += 1;
            continue;
        }
        // `name(`, `name::<T>(`.
        let mut j = i + 1;
        if m.is_punct(j, "::") && m.is_punct(j + 1, "<") {
            j = m.skip_generics(j + 1);
        }
        let is_call = m
            .tokens
            .get(j)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren));
        if !is_call {
            i += 1;
            continue;
        }
        let name = m.text(i);
        let Some(candidates) = by_name.get(name) else {
            i += 1;
            continue;
        };
        if i > 0 && m.is_punct(i - 1, ".") {
            // Method call: receiver type unknown — every same-named fn
            // that actually has a `self` receiver. Free fns and self-less
            // associated fns (constructors) cannot be called with method
            // syntax, so `.all(…)`-style iterator adaptors never link to
            // a workspace free fn named `all`.
            out.extend(candidates.iter().copied().filter(|&c| nodes[c].has_self));
        } else if i > 1 && m.is_punct(i - 1, "::") {
            if m.tokens[i - 2].kind == TokKind::Ident {
                // `T::name(…)`: only fns in `impl T` (Self = caller's).
                let qualifier = m.text(i - 2);
                let ty = if qualifier == "Self" {
                    caller.impl_type.as_deref()
                } else {
                    Some(qualifier)
                };
                out.extend(
                    candidates
                        .iter()
                        .copied()
                        .filter(|&c| nodes[c].impl_type.as_deref() == ty),
                );
            }
            // `Vec::<u8>::new(`-style turbofish qualifiers: external.
        } else {
            // Bare call: same file first, then free fns.
            let same_file: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| nodes[c].file == caller.file && nodes[c].impl_type.is_none())
                .collect();
            if same_file.is_empty() {
                out.extend(
                    candidates
                        .iter()
                        .copied()
                        .filter(|&c| nodes[c].impl_type.is_none()),
                );
            } else {
                out.extend(same_file);
            }
        }
        i += 1;
    }
    out
}

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Allocating methods (`.x(…)` / `.collect::<…>()`).
const ALLOC_METHODS: &[&str] = &["to_owned", "to_string", "to_vec", "collect"];
/// Panicking macros. `assert!`/`debug_assert!`/`unreachable!` stay legal:
/// they are invariant checks, not control flow.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
/// I/O type names.
const IO_TYPES: &[&str] = &["File", "OpenOptions"];
/// I/O constructor fns (`stdout()` …).
const IO_FNS: &[&str] = &["stdin", "stdout", "stderr"];
/// I/O methods (`.read_to_string(…)` …).
const IO_METHODS: &[&str] = &["read_to_string", "read_line", "read_dir"];

/// Scans one reachable fn body for R9 leaf violations.
fn check_leaves(m: &FileModel, fname: &str, open: usize, close: usize, out: &mut Findings) {
    let mut emit = |tok: usize, message: String| out.emit(m, tok, RuleId::R9, message);
    let escape = "or justify with `// asm-lint: allow(R9): reason`";
    let mut i = open + 1;
    while i < close {
        if m.tokens[i].kind == TokKind::Ident && !m.is_test_token(i) {
            let word = m.text(i);
            let prev_dot = i > 0 && m.is_punct(i - 1, ".");
            let prev_path = i > 0 && m.is_punct(i - 1, "::");
            if m.is_punct(i + 1, "!") && !m.is_punct(i + 2, "=") {
                if ALLOC_MACROS.contains(&word) {
                    emit(
                        i,
                        format!(
                            "`{word}!` allocates in hot-path fn `{fname}` (reachable from \
                             `System::step`) — pre-size or reuse buffers outside the \
                             per-cycle loop, {escape}"
                        ),
                    );
                } else if PANIC_MACROS.contains(&word) {
                    emit(
                        i,
                        format!(
                            "`{word}!` can panic in hot-path fn `{fname}` (reachable from \
                             `System::step`) — return an error or make the invariant a \
                             `debug_assert!`, {escape}"
                        ),
                    );
                }
            } else if (prev_dot && ALLOC_METHODS.contains(&word))
                || (word == "with_capacity" && (prev_dot || prev_path))
                || (word == "new" && prev_path && i > 1 && m.is_ident(i - 2, "Box"))
                || (word == "from" && prev_path && i > 1 && m.is_ident(i - 2, "String"))
            {
                let what = if prev_path {
                    format!("{}::{word}", m.text(i - 2))
                } else {
                    format!(".{word}(…)")
                };
                emit(
                    i,
                    format!(
                        "`{what}` allocates in hot-path fn `{fname}` (reachable from \
                         `System::step`) — pre-size or reuse buffers outside the \
                         per-cycle loop, {escape}"
                    ),
                );
            } else if IO_TYPES.contains(&word)
                || (IO_FNS.contains(&word)
                    && m.tokens
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren)))
                || (prev_dot && IO_METHODS.contains(&word))
            {
                emit(
                    i,
                    format!(
                        "`{word}` performs I/O in hot-path fn `{fname}` (reachable from \
                         `System::step`) — simulation code must not touch files or \
                         stdio; move it to the harness, {escape}"
                    ),
                );
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> GraphResult {
        let models: Vec<FileModel> = files.iter().map(|(p, c)| FileModel::new(p, c)).collect();
        analyze(&models)
    }

    const SYSTEM: &str = "\
pub struct System;
impl System {
    pub fn step(&mut self) {
        self.tick();
        helper(self);
    }
    fn tick(&mut self) { }
}
fn helper(_s: &mut System) { }
";

    #[test]
    fn reachability_covers_methods_and_free_fns() {
        let g = run(&[("crates/core/src/system.rs", SYSTEM)]);
        let names: Vec<&str> = g.reachable.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["step", "tick", "helper"], "{:?}", g.reachable);
        assert!(g.findings.active.is_empty(), "{:#?}", g.findings.active);
    }

    #[test]
    fn allocation_in_transitive_callee_is_flagged() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) { self.record(); }
    fn record(&mut self) {
        let v = vec![1, 2, 3];
        let s = 3.to_string();
        let _ = (v, s);
    }
}
";
        let g = run(&[("crates/core/src/system.rs", src)]);
        let lines: Vec<usize> = g.findings.active.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![5, 6], "{:#?}", g.findings.active);
    }

    #[test]
    fn unreachable_fns_are_not_checked() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) { }
    pub fn dump(&self) { let v = vec![1]; let _ = v; }
}
";
        let g = run(&[("crates/core/src/system.rs", src)]);
        assert!(g.findings.active.is_empty(), "{:#?}", g.findings.active);
        assert_eq!(g.reachable.len(), 1);
    }

    #[test]
    fn fn_level_allow_is_a_traversal_boundary() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) { self.end_quantum(); }
    // asm-lint: allow(R9): quantum boundary — runs once per 5M cycles
    fn end_quantum(&mut self) { self.flush(); }
    fn flush(&mut self) { let v = vec![1]; let _ = v; }
}
";
        let g = run(&[("crates/core/src/system.rs", src)]);
        // end_quantum is reachable but marked boundary; flush is behind
        // the boundary and must not be flagged.
        assert!(g.findings.active.is_empty(), "{:#?}", g.findings.active);
        let names: Vec<(&str, bool)> = g
            .reachable
            .iter()
            .map(|h| (h.name.as_str(), h.boundary))
            .collect();
        assert_eq!(names, vec![("step", false), ("end_quantum", true)]);
    }

    #[test]
    fn a_boundary_allow_is_consumed_only_when_the_walk_reaches_the_fn() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) { self.end_quantum(); }
    // asm-lint: allow(R9): quantum boundary — runs once per 5M cycles
    fn end_quantum(&mut self) { }
    // asm-lint: allow(R9): nothing on the hot path calls this
    pub fn dump(&self) { let v = vec![1]; let _ = v; }
}
";
        let models = [FileModel::new("crates/core/src/system.rs", src)];
        let g = analyze(&models);
        assert!(g.findings.active.is_empty(), "{:#?}", g.findings.active);
        let stale: Vec<usize> = models[0].stale_allows().map(|a| a.comment_line).collect();
        assert_eq!(stale, vec![5]);
    }

    #[test]
    fn line_allow_suppresses_one_leaf() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) {
        // asm-lint: allow(R9): one-time lazy init, pre-sized
        let v = vec![0u64; 8];
        let w = vec![1u64; 8];
        let _ = (v, w);
    }
}
";
        let g = run(&[("crates/core/src/system.rs", src)]);
        let active: Vec<usize> = g.findings.active.iter().map(|d| d.line).collect();
        assert_eq!(active, vec![6], "{:#?}", g.findings.active);
        assert_eq!(g.findings.suppressed.len(), 1);
    }

    #[test]
    fn panic_and_io_leaves_fire() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) {
        if bad() { panic!(\"boom\"); }
        let f = File::open(\"x\");
        let _ = f;
    }
}
fn bad() -> bool { false }
";
        let g = run(&[("crates/core/src/system.rs", src)]);
        let lines: Vec<usize> = g.findings.active.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 5], "{:#?}", g.findings.active);
    }

    #[test]
    fn cross_file_method_calls_link_conservatively() {
        let sys = "\
pub struct System;
impl System {
    pub fn run_for(&mut self, cache: &mut Cache) { cache.access(1); }
}
";
        let cache = "\
pub struct Cache;
impl Cache {
    pub fn access(&mut self, addr: u64) -> bool { self.probe(addr) }
    fn probe(&mut self, addr: u64) -> bool { let v = addr.to_string(); !v.is_empty() }
}
";
        let g = run(&[
            ("crates/core/src/system.rs", sys),
            ("crates/cache/src/lib.rs", cache),
        ]);
        let lines: Vec<(String, usize)> = g
            .findings.active
            .iter()
            .map(|d| (d.path.clone(), d.line))
            .collect();
        assert_eq!(lines, vec![("crates/cache/src/lib.rs".to_owned(), 4)]);
        assert_eq!(g.reachable.len(), 3);
    }

    #[test]
    fn method_calls_never_link_to_receiverless_fns() {
        // `.all(…)` here is the iterator adaptor; the workspace free fn
        // `all` (which allocates) must not be dragged into the hot set.
        let sys = "\
pub struct System;
impl System {
    pub fn step(&mut self, bits: &[bool]) -> bool { bits.iter().all(|b| *b) }
}
";
        let suite = "\
pub fn all() -> Vec<u32> { let v = vec![1, 2, 3]; v }
pub struct Suite;
impl Suite {
    pub fn new() -> Self { let _scratch = vec![0u8; 64]; Suite }
}
";
        let g = run(&[
            ("crates/core/src/system.rs", sys),
            ("crates/workloads/src/suite.rs", suite),
        ]);
        assert!(g.findings.active.is_empty(), "{:#?}", g.findings.active);
        assert_eq!(g.reachable.len(), 1, "{:#?}", g.reachable);
    }

    #[test]
    fn a_root_missing_from_a_linted_impl_is_reported() {
        // `SYSTEM` defines `step` only: the two other `System` roots are
        // unresolved, the `MixSolver` roots are not (no `impl MixSolver`).
        let g = run(&[("crates/core/src/system/mod.rs", SYSTEM)]);
        let got: Vec<(usize, &str)> = g
            .unresolved_roots
            .iter()
            .map(|d| (d.line, d.message.split('`').nth(1).unwrap_or_default()))
            .collect();
        assert_eq!(got, vec![(3, "System::run_for"), (3, "System::run_prefix")]);
        assert!(g.findings.active.is_empty(), "fixtures stay legal: {:#?}", g.findings.active);

        // The roots may live in different files of a split module.
        let rest = "impl System {\n    pub fn run_for(&mut self) { }\n    pub fn run_prefix(&mut self) { }\n}\n";
        let g = run(&[
            ("crates/core/src/system/mod.rs", SYSTEM),
            ("crates/core/src/system/boundary.rs", rest),
        ]);
        assert!(g.unresolved_roots.is_empty(), "{:#?}", g.unresolved_roots);
    }

    #[test]
    fn assert_macros_stay_legal() {
        let src = "\
pub struct System;
impl System {
    pub fn step(&mut self) {
        assert!(1 + 1 == 2, \"arithmetic holds\");
        debug_assert!(true);
        let x: Option<u32> = None;
        if x.is_none() { }
    }
}
";
        let g = run(&[("crates/core/src/system.rs", src)]);
        assert!(g.findings.active.is_empty(), "{:#?}", g.findings.active);
    }
}

