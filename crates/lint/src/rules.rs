//! The per-file rules (R1–R7, R10–R13), re-implemented on the token
//! stream.
//!
//! Each rule walks a [`FileModel`]'s tokens — comments and literal
//! bodies are simply not there, so strings and comments can never fire
//! a rule (strictly fewer false positives than the v1 blanking pass,
//! and fewer false negatives inside macros and raw strings). Rules skip
//! `#[cfg(test)]` regions where test code is exempt and honour per-line
//! `// asm-lint: allow(Rn): reason` directives; suppressed diagnostics
//! are returned separately so the JSON report can audit them.

use crate::parse::FileModel;
use crate::tokens::{Delim, TokKind};
use crate::{FileRole, Options, RuleId};

/// One rule violation, with 1-based line/column for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Display path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
    /// Whether an allow directive suppressed it (suppressed diagnostics
    /// never fail the build but stay visible in `--json` output).
    pub allowed: bool,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Runs the per-file rules for one analysed file under its role.
/// Returns `(active, suppressed)` diagnostics, unsorted — call
/// [`finish`] once all files (and workspace passes) contributed.
#[must_use]
pub fn check(
    model: &FileModel,
    role: FileRole,
    _opts: &Options,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let mut sink = Sink::default();
    match role {
        FileRole::Sim => {
            rule_r1_hash_collections(model, &mut sink);
            rule_r2_unwrap(model, &mut sink);
            rule_r3_float_eq(model, &mut sink);
            rule_r4_entropy(model, &mut sink);
            rule_r5_lossy_casts(model, &mut sink);
            rule_r6_thread_sync(model, &mut sink);
            rule_r7_print(model, &mut sink);
            rule_r10_safety_comments(model, &mut sink);
            rule_r12_persist_framing(model, &mut sink);
            rule_r13_metric_names(model, &mut sink);
        }
        FileRole::Harness => {
            rule_r10_safety_comments(model, &mut sink);
            rule_r11_lock_discipline(model, &mut sink);
        }
    }
    (sink.active, sink.suppressed)
}

/// Deduplicates (same path/line/rule/message collapses to the leftmost
/// column) and sorts by `(path, line, rule, col)` so output is stable
/// regardless of scan order — the property a future `--jobs`-style
/// parallel file walk must preserve.
#[must_use]
pub fn finish(
    active: Vec<Diagnostic>,
    suppressed: Vec<Diagnostic>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    (dedup_sort(active), dedup_sort(suppressed))
}

fn dedup_sort(mut v: Vec<Diagnostic>) -> Vec<Diagnostic> {
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

/// Collects active and suppressed diagnostics for one file.
#[derive(Default)]
struct Sink {
    active: Vec<Diagnostic>,
    suppressed: Vec<Diagnostic>,
}

impl Sink {
    fn emit(&mut self, model: &FileModel, line: usize, col: usize, rule: RuleId, message: String) {
        let allowed = model.is_allowed(line, rule);
        let d = Diagnostic {
            path: model.path.clone(),
            line: line + 1,
            col: col + 1,
            rule,
            message,
            allowed,
        };
        if allowed {
            self.suppressed.push(d);
        } else {
            self.active.push(d);
        }
    }

    fn emit_at(&mut self, model: &FileModel, tok: usize, rule: RuleId, message: String) {
        let t = &model.tokens[tok];
        self.emit(model, t.line, t.col, rule, message);
    }
}

/// R1: no `HashMap`/`HashSet` in simulation code. Hash iteration order
/// is randomized per process and feeds simulated event order.
fn rule_r1_hash_collections(model: &FileModel, sink: &mut Sink) {
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Ident || model.is_test_token(i) {
            continue;
        }
        let ty = model.text(i);
        if ty == "HashMap" || ty == "HashSet" {
            sink.emit_at(
                model,
                i,
                RuleId::R1,
                format!(
                    "simulation code uses `{ty}` — iteration order is \
                     process-randomized and can reorder simulated events; \
                     use `BTreeMap`/`BTreeSet` or an explicitly sorted drain"
                ),
            );
        }
    }
}

/// Minimum length for an `expect` message to count as a stated invariant.
const MIN_INVARIANT_LEN: usize = 10;

/// R2: no `unwrap()` and no bare `expect` outside `#[cfg(test)]`.
fn rule_r2_unwrap(model: &FileModel, sink: &mut Sink) {
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Ident || model.is_test_token(i) {
            continue;
        }
        let preceded_by_dot = i > 0 && model.is_punct(i - 1, ".");
        if !preceded_by_dot {
            continue;
        }
        let followed_by_call = model
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren));
        match model.text(i) {
            "unwrap" if followed_by_call => {
                sink.emit_at(
                    model,
                    i,
                    RuleId::R2,
                    "`unwrap()` in simulation code — state the invariant with \
                     `expect(\"...\")` or propagate the error"
                        .to_owned(),
                );
            }
            "expect" if followed_by_call => {
                // First argument token: a string literal states the
                // invariant; anything else (format!, variables) does not.
                let arg = i + 2;
                let msg = model
                    .tokens
                    .get(arg)
                    .filter(|t| t.kind == TokKind::Str)
                    .and_then(|_| str_literal_content(model.text(arg)));
                match msg {
                    Some(m) if m.chars().count() >= MIN_INVARIANT_LEN => {}
                    Some(_) => sink.emit_at(
                        model,
                        i,
                        RuleId::R2,
                        "bare `expect` — the message is too short to state an \
                         invariant; explain why this cannot fail"
                            .to_owned(),
                    ),
                    None => sink.emit_at(
                        model,
                        i,
                        RuleId::R2,
                        "`expect` without a literal invariant message — state why \
                         this cannot fail in a string literal"
                            .to_owned(),
                    ),
                }
            }
            _ => {}
        }
    }
}

/// Decodes the content of a string-literal token (`"…"`, `r#"…"#`,
/// `b"…"`). Escaped characters count as the escaped character, matching
/// the v1 length semantics (`\n` counts one).
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

/// Punctuation that ends an operand for R3's neighbourhood scan.
const OPERAND_BOUNDARY: &[&str] = &[
    ",", ";", "&", "|", "&&", "||", "<", ">", "<<", ">>", "<=", ">=", "?",
];

/// R3: no `f64`/`f32` `==`/`!=` comparisons. An operand is float-typed
/// when its token neighbourhood (up to the nearest boundary) contains a
/// float literal, an `f64`/`f32` mention, or `NAN`/`INFINITY`.
fn rule_r3_float_eq(model: &FileModel, sink: &mut Sink) {
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Punct || model.is_test_token(i) {
            continue;
        }
        let op = model.text(i);
        if op != "==" && op != "!=" {
            continue;
        }
        let mut floaty = false;
        // Left neighbourhood.
        let mut k = i;
        let mut steps = 0;
        while k > 0 && steps < 16 {
            k -= 1;
            steps += 1;
            if is_operand_boundary(model, k) {
                break;
            }
            if is_float_token(model, k) {
                floaty = true;
                break;
            }
        }
        // Right neighbourhood.
        let mut k = i + 1;
        let mut steps = 0;
        while !floaty && k < model.tokens.len() && steps < 16 {
            if is_operand_boundary(model, k) {
                break;
            }
            if is_float_token(model, k) {
                floaty = true;
                break;
            }
            k += 1;
            steps += 1;
        }
        if floaty {
            sink.emit_at(
                model,
                i,
                RuleId::R3,
                format!(
                    "float `{op}` comparison — exact equality on f64/f32 is \
                     fragile; use an epsilon helper or integer cycle math"
                ),
            );
        }
    }
}

fn is_operand_boundary(model: &FileModel, i: usize) -> bool {
    match model.tokens[i].kind {
        TokKind::Open(_) | TokKind::Close(_) => true,
        TokKind::Punct => OPERAND_BOUNDARY.contains(&model.text(i)),
        _ => false,
    }
}

fn is_float_token(model: &FileModel, i: usize) -> bool {
    match model.tokens[i].kind {
        TokKind::Float => true,
        TokKind::Ident => matches!(model.text(i), "f64" | "f32" | "NAN" | "INFINITY"),
        _ => false,
    }
}

/// R4: no wall-clock or OS entropy in simulation crates — `SimRng` only.
/// (`std::time::Duration` is a plain value type and stays legal.)
fn rule_r4_entropy(model: &FileModel, sink: &mut Sink) {
    const BANNED: &[(&str, &str)] = &[
        ("Instant", "wall-clock time is not simulated time"),
        ("SystemTime", "wall-clock time is not simulated time"),
        ("thread_rng", "OS entropy breaks seed-reproducibility"),
        ("from_entropy", "OS entropy breaks seed-reproducibility"),
        ("getrandom", "OS entropy breaks seed-reproducibility"),
        (
            "RandomState",
            "per-process hash randomization breaks seed-reproducibility",
        ),
    ];
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Ident || model.is_test_token(i) {
            continue;
        }
        let word = model.text(i);
        if let Some(&(w, why)) = BANNED.iter().find(|&&(w, _)| w == word) {
            sink.emit_at(
                model,
                i,
                RuleId::R4,
                format!("`{w}` in simulation code — {why}; derive all randomness from `SimRng`"),
            );
            continue;
        }
        if word == "rand" {
            // `rand::...` as a path root, or `use rand;`.
            let next_coloncolon = model.is_punct(i + 1, "::");
            let prev_path = i > 0 && (model.is_punct(i - 1, "::") || model.is_punct(i - 1, "."));
            let after_use = i > 0 && model.is_ident(i - 1, "use");
            let is_path_root = next_coloncolon && !prev_path;
            let is_use = after_use && (next_coloncolon || model.is_punct(i + 1, ";"));
            if is_path_root || is_use {
                sink.emit_at(
                    model,
                    i,
                    RuleId::R4,
                    "external `rand` crate in simulation code — OS-seeded RNGs \
                     break seed-reproducibility; derive all randomness from `SimRng`"
                        .to_owned(),
                );
            }
        }
    }
}

/// Numeric cast target types R5 watches for.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "Cycle",
];

/// Path fragments that place a file inside billing/accounting arithmetic.
const MONEY_PATHS: &[&str] = &["billing.rs", "accounting.rs"];

/// R5: in billing/accounting arithmetic, every numeric `as` cast must be
/// justified (allow directive) or replaced with a lossless conversion —
/// silent truncation or precision loss there corrupts what tenants are
/// charged.
fn rule_r5_lossy_casts(model: &FileModel, sink: &mut Sink) {
    if !MONEY_PATHS.iter().any(|p| model.path.ends_with(p)) {
        return;
    }
    for i in 0..model.tokens.len() {
        if !model.is_ident(i, "as") || model.is_test_token(i) {
            continue;
        }
        let target_is_numeric = model
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Ident)
            && NUMERIC_TYPES.contains(&model.text(i + 1));
        if target_is_numeric {
            sink.emit_at(
                model,
                i,
                RuleId::R5,
                "numeric `as` cast in billing/accounting arithmetic — \
                 potential silent truncation/precision loss; use `From`/`try_from` \
                 or justify with an allow directive"
                    .to_owned(),
            );
        }
    }
}

/// Synchronisation primitives R6 bans in simulation code. `Arc` is
/// deliberately absent: shared *ownership* is deterministic; shared
/// *mutable state behind a lock* is not.
const SYNC_PRIMITIVES: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "OnceLock", "LazyLock", "mpsc", "JoinHandle",
];

/// R6: no threads or synchronisation primitives in simulation crates.
///
/// The simulator must be a pure single-threaded function of its inputs:
/// lock acquisition order and atomic read-modify-write interleavings
/// depend on the OS scheduler. Parallelism lives exclusively in the
/// harness crate (`experiments`), which fans out *whole* simulations
/// and merges results in submission order.
///
/// Emits at most one diagnostic per line (first trigger wins).
fn rule_r6_thread_sync(model: &FileModel, sink: &mut Sink) {
    let mut last_line = usize::MAX;
    for i in 0..model.tokens.len() {
        let line = model.tokens[i].line;
        if line == last_line || model.is_test_token(i) {
            continue;
        }
        if let Some((tok, msg)) = r6_violation_on_line(model, i) {
            last_line = line;
            sink.emit_at(model, tok, RuleId::R6, msg);
        }
    }
}

/// Scans the rest of the line starting at token `start` for the first
/// R6 trigger, in the v1 priority order: `thread` paths, `std::sync`
/// beyond `Arc`, sync primitive names, `Atomic*` types.
fn r6_violation_on_line(model: &FileModel, start: usize) -> Option<(usize, String)> {
    let line = model.tokens[start].line;
    let end = (start..model.tokens.len())
        .take_while(|&i| model.tokens[i].line == line)
        .last()?
        + 1;
    // 1. `std::thread` / `thread::spawn`: `thread` in path position.
    for i in start..end {
        if model.is_ident(i, "thread")
            && ((i > 0 && model.is_punct(i - 1, "::")) || model.is_punct(i + 1, "::"))
        {
            return Some((
                i,
                "`std::thread` in simulation code — the simulator must stay \
                 single-threaded; parallelism lives in the harness crate \
                 (`experiments`)"
                    .to_owned(),
            ));
        }
    }
    // 2. `std::sync::*` paths other than `std::sync::Arc`.
    for i in start..end {
        if model.is_ident(i, "std")
            && model.is_punct(i + 1, "::")
            && model.is_ident(i + 2, "sync")
        {
            let arc_only = model.is_punct(i + 3, "::") && model.is_ident(i + 4, "Arc");
            if !arc_only {
                return Some((
                    i,
                    "`std::sync` (beyond `Arc`) in simulation code — locks and \
                     channels make event order depend on thread scheduling; keep \
                     synchronisation in the harness crate (`experiments`)"
                        .to_owned(),
                ));
            }
        }
    }
    // 3. Primitive type names, wherever imported from.
    for i in start..end {
        if model.tokens[i].kind == TokKind::Ident && SYNC_PRIMITIVES.contains(&model.text(i)) {
            let word = model.text(i);
            return Some((
                i,
                format!(
                    "`{word}` in simulation code — lock/channel timing depends on \
                     thread scheduling and can reorder simulated events; keep \
                     synchronisation in the harness crate (`experiments`)"
                ),
            ));
        }
    }
    // 4. `Atomic*` types (AtomicUsize, AtomicBool, AtomicU64, ...).
    for i in start..end {
        if model.tokens[i].kind == TokKind::Ident && model.text(i).starts_with("Atomic") {
            return Some((
                i,
                "atomic type in simulation code — read-modify-write \
                 interleavings depend on thread scheduling; keep atomics in \
                 the harness crate (`experiments`)"
                    .to_owned(),
            ));
        }
    }
    None
}

/// Print macros R7 bans in simulation code.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// R7: no `println!`/`print!`/`eprintln!`/`eprint!`/`dbg!` in simulation
/// crates.
///
/// Experiment stdout must be byte-identical across `--jobs` values and
/// seeds, and stderr is reserved for harness progress chatter.
/// Observability goes through `asm-telemetry` (counters, series,
/// traces) or data returned to the harness; tests may print freely.
fn rule_r7_print(model: &FileModel, sink: &mut Sink) {
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Ident || model.is_test_token(i) {
            continue;
        }
        let mac = model.text(i);
        if PRINT_MACROS.contains(&mac) && model.is_punct(i + 1, "!") {
            sink.emit_at(
                model,
                i,
                RuleId::R7,
                format!(
                    "`{mac}!` in simulation code — stdout/stderr must stay \
                     reserved for the harness (tables are byte-compared \
                     across runs); record state via `asm-telemetry` \
                     counters/series/traces or return it to the caller"
                ),
            );
        }
    }
}

/// The endianness-framing methods R12 bans outside the persist module.
const FRAMING_METHODS: &[&str] = &[
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "from_be_bytes",
    "to_ne_bytes",
    "from_ne_bytes",
];

/// R12: state serialization in simulation crates goes through
/// `asm_simcore::persist` — a `persist_fields!` list or a `Persist` impl
/// over `StateWriter`/`StateReader`. Hand-rolled
/// `to_le_bytes`/`from_le_bytes` framing skips the magic/version/
/// checksum envelope that makes every on-disk artefact warn-and-rebuild
/// safe, and `ne`-variants additionally bake in host endianness. The
/// persist module itself is the one place allowed to frame bytes;
/// non-serialization bit tricks (SWAR scans, hashing) carry a reasoned
/// allow directive.
fn rule_r12_persist_framing(model: &FileModel, sink: &mut Sink) {
    if model.path.ends_with("simcore/src/persist.rs") {
        return;
    }
    for i in 0..model.tokens.len() {
        if model.tokens[i].kind != TokKind::Ident || model.is_test_token(i) {
            continue;
        }
        let name = model.text(i);
        if FRAMING_METHODS.contains(&name) {
            sink.emit_at(
                model,
                i,
                RuleId::R12,
                format!(
                    "`{name}` outside `simcore/src/persist.rs` — ad-hoc byte \
                     framing skips the versioned, checksummed envelope; \
                     serialize state through `asm_simcore::persist` \
                     (`persist_fields!` / `Persist`) instead"
                ),
            );
        }
    }
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
fn rule_r13_metric_names(model: &FileModel, sink: &mut Sink) {
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
            sink.emit_at(
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

/// R10: every non-test `unsafe` site needs an adjacent `// SAFETY:`
/// comment — trailing on the same line or a contiguous comment block
/// ending directly above — stating the invariant that makes it sound.
/// All sites, justified or not, land in the emitted unsafe inventory.
fn rule_r10_safety_comments(model: &FileModel, sink: &mut Sink) {
    for u in &model.unsafes {
        if u.is_test || u.has_safety {
            continue;
        }
        let what = match u.kind.name() {
            "block" => "`unsafe` block",
            "fn" => "`unsafe fn`",
            "impl" => "`unsafe impl`",
            _ => "`unsafe trait`",
        };
        sink.emit(
            model,
            u.line,
            u.col,
            RuleId::R10,
            format!(
                "{what} without an adjacent `// SAFETY:` comment — state the \
                 invariant that makes it sound (same line or the comment block \
                 directly above); every unsafe site is audited via the \
                 unsafe-inventory"
            ),
        );
    }
}

/// Methods whose call sites R11 watches: dispatch entry points of the
/// experiments `Runner`.
const RUNNER_DISPATCH: &[&str] = &["run", "run_with"];

/// R11: harness lock discipline — no `MutexGuard` may be held across a
/// call into `Runner::run`/`run_with`. The pool fans out and joins
/// inside those calls; a guard held across them serializes every worker
/// behind one lock and can deadlock with sinks that lock the same data.
fn rule_r11_lock_discipline(model: &FileModel, sink: &mut Sink) {
    for f in &model.fns {
        let Some((open, close)) = f.body else { continue };
        if f.is_test {
            continue;
        }
        let mut depth = 0i64;
        let mut guards: Vec<(String, i64, usize)> = Vec::new(); // (name, depth, live_from)
        let mut i = open + 1;
        while i < close {
            match model.tokens[i].kind {
                TokKind::Open(Delim::Brace) => depth += 1,
                TokKind::Close(Delim::Brace) => {
                    depth -= 1;
                    guards.retain(|&(_, d, _)| d <= depth);
                }
                TokKind::Ident => {
                    let word = model.text(i);
                    if word == "let" {
                        let end = statement_end(model, i, close);
                        if let Some(name) = guard_binding(model, i, end) {
                            guards.push((name, depth, end));
                        }
                    } else if word == "drop"
                        && model
                            .tokens
                            .get(i + 1)
                            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
                        && model.tokens.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                        && model
                            .tokens
                            .get(i + 3)
                            .is_some_and(|t| t.kind == TokKind::Close(Delim::Paren))
                    {
                        let dropped = model.text(i + 2).to_owned();
                        guards.retain(|(n, _, _)| *n != dropped);
                    } else if RUNNER_DISPATCH.contains(&word)
                        && i > 0
                        && (model.is_punct(i - 1, ".") || model.is_punct(i - 1, "::"))
                        && model
                            .tokens
                            .get(i + 1)
                            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
                    {
                        if let Some((name, _, _)) = guards.iter().find(|&&(_, _, from)| from < i) {
                            sink.emit_at(
                                model,
                                i,
                                RuleId::R11,
                                format!(
                                    "`MutexGuard` `{name}` is still live across `{word}(…)` — \
                                     a lock held while dispatching simulations serializes the \
                                     pool and risks deadlock; drop or scope the guard before \
                                     calling `Runner::{word}`"
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// The token index of the `;` ending the statement at `from` (or the
/// enclosing close brace), jumping over bracketed groups.
fn statement_end(model: &FileModel, from: usize, limit: usize) -> usize {
    let mut i = from;
    while i < limit {
        match model.tokens[i].kind {
            TokKind::Open(_) => i = model.match_of[i].max(i),
            TokKind::Close(_) => return i,
            TokKind::Punct if model.text(i) == ";" => return i,
            _ => {}
        }
        i += 1;
    }
    limit
}

/// If the `let` statement at `let_tok..end` binds a `.lock()` result to
/// a named variable, that name.
fn guard_binding(model: &FileModel, let_tok: usize, end: usize) -> Option<String> {
    // Pattern name: first identifier after `let`, skipping `mut`.
    let mut p = let_tok + 1;
    if model.is_ident(p, "mut") {
        p += 1;
    }
    if !model.tokens.get(p).is_some_and(|t| t.kind == TokKind::Ident) {
        return None; // tuple/struct patterns: out of scope
    }
    let name = model.text(p);
    if name == "_" {
        return None;
    }
    // `.lock(` anywhere in the initializer — but not inside a brace
    // block (`let x = { let g = m.lock(); *g };` drops the guard at the
    // block's end, so `x` is not a guard).
    let mut i = p + 1;
    while i < end {
        if model.tokens[i].kind == TokKind::Open(Delim::Brace) {
            i = model.match_of[i].max(i) + 1;
            continue;
        }
        if model.is_ident(i, "lock")
            && i > 0
            && model.is_punct(i - 1, ".")
            && model
                .tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
        {
            return Some(name.to_owned());
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    fn diag(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src)
    }

    #[test]
    fn r1_fires_outside_tests_only() {
        let src = "\
use std::collections::HashMap;
fn f() { let m: HashMap<u64, u64> = HashMap::new(); }
#[cfg(test)]
mod tests { use std::collections::HashSet; }
";
        let d = diag("x.rs", src);
        // Line 2 mentions HashMap twice with one message: deduplicated.
        assert_eq!(d.iter().filter(|d| d.rule == RuleId::R1).count(), 2);
        assert!(d.iter().all(|d| d.line <= 2));
    }

    #[test]
    fn r2_distinguishes_bare_and_invariant_expect() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect(\"ok\");
    let c = o.unwrap_or(3);
    let d = o.expect(\"checked non-empty at enqueue time\");
    a + b + c + d
}
";
        let d = diag("x.rs", src);
        let r2: Vec<_> = d.iter().filter(|d| d.rule == RuleId::R2).collect();
        assert_eq!(r2.len(), 2, "{r2:?}");
        assert_eq!(r2[0].line, 2);
        assert_eq!(r2[1].line, 3);
    }

    #[test]
    fn r2_sees_unwrap_inside_macros_and_multiline_expect() {
        // v1's line heuristics could miss macro bodies; the token rules
        // must not.
        let src = "\
fn f(o: Option<u32>) -> u32 {
    my_macro!(o.unwrap())
}
fn g(o: Option<u32>) -> u32 {
    o.expect(
        \"queue drained before quantum end, checked by caller\",
    )
}
";
        let d = diag("x.rs", src);
        let r2: Vec<usize> = d.iter().filter(|d| d.rule == RuleId::R2).map(|d| d.line).collect();
        assert_eq!(r2, vec![2], "{d:#?}");
    }

    #[test]
    fn r3_catches_float_literal_comparison() {
        let src = "fn f(x: f64) -> bool { x == 1.0 }\n";
        let d = diag("x.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == RuleId::R3).count(), 1);
        // Integer comparisons stay legal.
        assert!(diag("x.rs", "fn g(x: u64) -> bool { x == 10 }\n").is_empty());
        // Ranges are not float literals.
        assert!(diag("x.rs", "fn h(x: u64) -> bool { (0..1).contains(&x) }\n").is_empty());
    }

    #[test]
    fn r4_bans_wall_clock_and_rand() {
        let src = "\
use std::time::Instant;
use rand::Rng;
fn f() { let t = std::time::SystemTime::now(); }
fn ok() { let d = std::time::Duration::from_secs(1); }
";
        let d = diag("x.rs", src);
        let r4 = d.iter().filter(|d| d.rule == RuleId::R4).count();
        assert_eq!(r4, 3, "{d:?}");
        assert!(!d.iter().any(|d| d.line == 4), "Duration must stay legal");
    }

    #[test]
    fn r5_scoped_to_money_paths() {
        let src = "fn f(x: u64) -> f64 { x as f64 }\n";
        assert_eq!(diag("crates/dram/src/accounting.rs", src).len(), 1);
        assert!(diag("crates/dram/src/bank.rs", src).is_empty());
    }

    #[test]
    fn r6_bans_threads_and_sync_primitives() {
        let src = "\
use std::thread;
use std::sync::Mutex;
fn f() { let h = std::thread::spawn(|| 1); h.join(); }
fn g(m: &Mutex<u64>) { *m.lock().expect(\"lock is never poisoned here\") += 1; }
fn a() { let c = std::sync::atomic::AtomicUsize::new(0); }
";
        let d = diag("crates/dram/src/x.rs", src);
        let r6: Vec<_> = d.iter().filter(|d| d.rule == RuleId::R6).map(|d| d.line).collect();
        assert_eq!(r6, vec![1, 2, 3, 4, 5], "{d:#?}");
    }

    #[test]
    fn r6_allows_arc_and_test_code() {
        let src = "\
use std::sync::Arc;
fn f(x: Arc<u64>) -> u64 { let thread = *x; thread }
#[cfg(test)]
mod tests { use std::thread; fn t() { thread::yield_now(); } }
";
        assert!(diag("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r7_bans_print_macros_outside_tests() {
        let src = "\
fn f() { println!(\"x\"); }
fn g() { eprintln!(\"y\"); dbg!(3); }
fn h() { print!(\"z\"); eprint!(\"w\"); }
fn ok() { let println = 1; format!(\"{println}\"); }
#[cfg(test)]
mod tests { fn t() { println!(\"test chatter is fine\"); } }
";
        let d = diag("crates/dram/src/x.rs", src);
        let r7: Vec<_> = d.iter().filter(|d| d.rule == RuleId::R7).map(|d| d.line).collect();
        assert_eq!(r7, vec![1, 2, 2, 3, 3], "{d:#?}");
    }

    #[test]
    fn r10_fires_without_safety_and_not_with() {
        let src = "\
fn a() {
    // SAFETY: the index is bounds-checked two lines up.
    let x = unsafe { go() };
    let y = unsafe { go() };
}
";
        let d = diag("crates/cache/src/x.rs", src);
        let r10: Vec<usize> = d.iter().filter(|d| d.rule == RuleId::R10).map(|d| d.line).collect();
        assert_eq!(r10, vec![4], "{d:#?}");
    }

    #[test]
    fn r11_guard_across_dispatch() {
        let src = "\
fn bad(state: &std::sync::Mutex<u64>, runner: &Runner) {
    let guard = state.lock().expect(\"pool mutex never poisoned\");
    let _ = runner.run(*guard);
}
fn good(state: &std::sync::Mutex<u64>, runner: &Runner) {
    let seed = { let guard = state.lock().expect(\"pool mutex never poisoned\"); *guard };
    let _ = runner.run(seed);
}
fn dropped(state: &std::sync::Mutex<u64>, runner: &Runner) {
    let guard = state.lock().expect(\"pool mutex never poisoned\");
    drop(guard);
    let _ = runner.run_with(3, |r| r);
}
";
        let d = diag("crates/experiments/src/x.rs", src);
        let r11: Vec<usize> = d.iter().filter(|d| d.rule == RuleId::R11).map(|d| d.line).collect();
        assert_eq!(r11, vec![3], "{d:#?}");
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
        let d = diag("crates/cache/src/x.rs", src);
        let r13: Vec<usize> = d.iter().filter(|d| d.rule == RuleId::R13).map(|d| d.line).collect();
        assert_eq!(r13, vec![2, 3], "{d:#?}");
    }

    #[test]
    fn r13_exempts_the_names_registry_and_test_code() {
        let src = "pub fn hits(i: usize) -> String { format!(\"llc.app{i}.hits\") }\n";
        assert!(diag("crates/telemetry/src/names.rs", src).is_empty());
        assert_eq!(diag("crates/telemetry/src/sink.rs", src).len(), 1);
        let test_src = "\
#[cfg(test)]
mod tests {
    fn t() { assert_eq!(n, \"llc.app0.hits\"); }
}
";
        assert!(diag("crates/cache/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn dedup_collapses_identical_line_rule_message() {
        // Two HashMap mentions on one line, one message: one diagnostic,
        // anchored at the leftmost column.
        let src = "fn f(m: HashMap<u64, HashMap<u64, u64>>) { let _ = m; }\n";
        let d = diag("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].col, 9);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "\
fn f() -> &'static str {
    // HashMap unwrap() Instant 1.0 == 2.0
    \"HashMap unwrap() Instant 1.0 == 2.0\"
}
";
        assert!(diag("x.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_but_stays_visible() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    // asm-lint: allow(R2): demo suppression
    o.unwrap()
}
";
        assert!(diag("x.rs", src).is_empty());
        let model = FileModel::new("x.rs", src);
        let (active, suppressed) = check(&model, FileRole::Sim, &Options::default());
        assert!(active.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert!(suppressed[0].allowed);
    }
}
