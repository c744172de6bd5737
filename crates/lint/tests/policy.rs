//! The one reintroduction guard for the clippy-owned policies: a
//! dependency-free throwaway package whose `clippy.toml` and lint levels
//! are the workspace's own (copied at test time), holding one probe file
//! with one banned spelling per line, run through the same `cargo clippy`
//! invocation the `asm-lint` binary uses. Every line must be reported under
//! the lint that owns it, and the clean control lines must not.
//!
//! Deleting an entry from `clippy.toml`, or a lint from
//! `asm_lint::policy::CRATE_POLICIES`, fails `every_banned_spelling_is_reported`;
//! adding one without a probe line fails the coverage checks at its end.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use asm_lint::policy::{clippy_command, CRATE_POLICIES, MONEY_ATTR, MONEY_MODULES, MONEY_POLICY};
use asm_telemetry::json::{parse, JsonValue};

const UNFULFILLED: &str = "unfulfilled_lint_expectations";

/// One probe line and the `(lint, needle in the message)` pairs clippy must
/// report on it. For `disallowed_*` the needle is the banned path exactly as
/// `clippy.toml` spells it, backquoted.
type Probe = (&'static str, &'static [(&'static str, &'static str)]);

const TYPES: &str = "clippy::disallowed_types";
const METHODS: &str = "clippy::disallowed_methods";

fn probes() -> Vec<Probe> {
    vec![
        // R1/R8: every spelling the hand-written resolver existed to see through.
        ("use std::collections::HashMap as Map;", &[(TYPES, "`std::collections::HashMap`")]),
        ("pub use std::collections::HashSet;", &[(TYPES, "`std::collections::HashSet`")]),
        ("pub type Fast = Map<u64, u64>;", &[(TYPES, "`std::collections::HashMap`")]),
        ("pub struct Table<S = std::hash::RandomState>(pub S);", &[(TYPES, "`std::hash::RandomState`")]),
        (
            "pub fn turbofish() -> usize { std::collections::HashMap::<u8, u8>::new().len() }",
            &[(TYPES, "`std::collections::HashMap`")],
        ),
        // R4
        ("pub struct At(pub std::time::Instant);", &[(TYPES, "`std::time::Instant`")]),
        ("pub struct Wall(pub std::time::SystemTime);", &[(TYPES, "`std::time::SystemTime`")]),
        (
            "pub fn now() { let _ = std::time::Instant::now(); }",
            &[(METHODS, "`std::time::Instant::now`"), (TYPES, "`std::time::Instant`")],
        ),
        (
            "pub fn wall() { let _ = std::time::SystemTime::now(); }",
            &[(METHODS, "`std::time::SystemTime::now`"), (TYPES, "`std::time::SystemTime`")],
        ),
        // R7
        ("pub fn out() { println!(\"x\"); }", &[("clippy::print_stdout", "")]),
        ("pub fn err() { eprintln!(\"x\"); }", &[("clippy::print_stderr", "")]),
        ("pub fn dbg() -> u8 { dbg!(1) }", &[("clippy::dbg_macro", "")]),
        // R10, R2, R3
        (
            "pub fn raw(x: &u8) -> u8 { unsafe { std::ptr::read(x) } }",
            &[("clippy::undocumented_unsafe_blocks", "")],
        ),
        ("pub fn unwrap(o: Option<u8>) -> u8 { o.unwrap() }", &[("clippy::unwrap_used", "")]),
        ("pub fn same_ratio(a: f64, b: f64) -> bool { a == b }", &[("clippy::float_cmp", "")]),
        // R6
        ("pub struct Lock(pub std::sync::Mutex<u8>);", &[(TYPES, "`std::sync::Mutex`")]),
        ("pub struct Rw(pub std::sync::RwLock<u8>);", &[(TYPES, "`std::sync::RwLock`")]),
        ("pub struct Cv(pub std::sync::Condvar);", &[(TYPES, "`std::sync::Condvar`")]),
        ("pub struct Bar(pub std::sync::Barrier);", &[(TYPES, "`std::sync::Barrier`")]),
        ("pub struct Once(pub std::sync::OnceLock<u8>);", &[(TYPES, "`std::sync::OnceLock`")]),
        ("pub struct Lazy(pub std::sync::LazyLock<u8>);", &[(TYPES, "`std::sync::LazyLock`")]),
        ("pub struct Tx(pub std::sync::mpsc::Sender<u8>);", &[(TYPES, "`std::sync::mpsc::Sender`")]),
        ("pub struct STx(pub std::sync::mpsc::SyncSender<u8>);", &[(TYPES, "`std::sync::mpsc::SyncSender`")]),
        ("pub struct Rx(pub std::sync::mpsc::Receiver<u8>);", &[(TYPES, "`std::sync::mpsc::Receiver`")]),
        ("pub struct Join(pub std::thread::JoinHandle<()>);", &[(TYPES, "`std::thread::JoinHandle`")]),
        ("pub fn spawn() { drop(std::thread::spawn(|| ())); }", &[(METHODS, "`std::thread::spawn`")]),
        ("pub fn scope() { std::thread::scope(|_| ()); }", &[(METHODS, "`std::thread::scope`")]),
        (
            "pub fn builder() { drop(std::thread::Builder::new().spawn(|| ())); }",
            &[(METHODS, "`std::thread::Builder::spawn`")],
        ),
        // R9's panic leg.
        ("pub fn boom() { panic!(\"x\") }", &[("clippy::panic", "")]),
        ("pub fn later() { todo!() }", &[("clippy::todo", "")]),
        ("pub fn never() { unimplemented!() }", &[("clippy::unimplemented", "")]),
        // R9's I/O leg: files, every `std::fs` free function, the standard streams.
        ("pub struct Fd(pub std::fs::File);", &[(TYPES, "`std::fs::File`")]),
        ("pub struct Opts(pub std::fs::OpenOptions);", &[(TYPES, "`std::fs::OpenOptions`")]),
        ("pub fn fs_canonicalize() { let _ = std::fs::canonicalize(\"x\"); }", &[(METHODS, "`std::fs::canonicalize`")]),
        ("pub fn fs_copy() { let _ = std::fs::copy(\"x\", \"y\"); }", &[(METHODS, "`std::fs::copy`")]),
        ("pub fn fs_create_dir() { let _ = std::fs::create_dir(\"x\"); }", &[(METHODS, "`std::fs::create_dir`")]),
        ("pub fn fs_create_dir_all() { let _ = std::fs::create_dir_all(\"x\"); }", &[(METHODS, "`std::fs::create_dir_all`")]),
        ("pub fn fs_exists() { let _ = std::fs::exists(\"x\"); }", &[(METHODS, "`std::fs::exists`")]),
        ("pub fn fs_hard_link() { let _ = std::fs::hard_link(\"x\", \"y\"); }", &[(METHODS, "`std::fs::hard_link`")]),
        ("pub fn fs_metadata() { let _ = std::fs::metadata(\"x\"); }", &[(METHODS, "`std::fs::metadata`")]),
        ("pub fn fs_read() { let _ = std::fs::read(\"x\"); }", &[(METHODS, "`std::fs::read`")]),
        ("pub fn fs_read_dir() { let _ = std::fs::read_dir(\"x\"); }", &[(METHODS, "`std::fs::read_dir`")]),
        ("pub fn fs_read_link() { let _ = std::fs::read_link(\"x\"); }", &[(METHODS, "`std::fs::read_link`")]),
        ("pub fn fs_read_to_string() { let _ = std::fs::read_to_string(\"x\"); }", &[(METHODS, "`std::fs::read_to_string`")]),
        ("pub fn fs_remove_dir() { let _ = std::fs::remove_dir(\"x\"); }", &[(METHODS, "`std::fs::remove_dir`")]),
        ("pub fn fs_remove_dir_all() { let _ = std::fs::remove_dir_all(\"x\"); }", &[(METHODS, "`std::fs::remove_dir_all`")]),
        ("pub fn fs_remove_file() { let _ = std::fs::remove_file(\"x\"); }", &[(METHODS, "`std::fs::remove_file`")]),
        ("pub fn fs_rename() { let _ = std::fs::rename(\"x\", \"y\"); }", &[(METHODS, "`std::fs::rename`")]),
        (
            "pub fn fs_set_permissions(p: std::fs::Permissions) { let _ = std::fs::set_permissions(\"x\", p); }",
            &[(METHODS, "`std::fs::set_permissions`")],
        ),
        ("pub fn fs_symlink_metadata() { let _ = std::fs::symlink_metadata(\"x\"); }", &[(METHODS, "`std::fs::symlink_metadata`")]),
        ("pub fn fs_write() { let _ = std::fs::write(\"x\", b\"\"); }", &[(METHODS, "`std::fs::write`")]),
        ("pub fn io_stdin() { let _ = std::io::stdin(); }", &[(METHODS, "`std::io::stdin`")]),
        ("pub fn io_stdout() { let _ = std::io::stdout(); }", &[(METHODS, "`std::io::stdout`")]),
        ("pub fn io_stderr() { let _ = std::io::stderr(); }", &[(METHODS, "`std::io::stderr`")]),
        // R5: the cast is reported under the money-module attribute only.
        ("pub mod money {", &[]),
        ("    MONEY_ATTR", &[]),
        ("    pub fn cast(x: u64) -> f64 { x as f64 }", &[("clippy::as_conversions", "")]),
        ("}", &[]),
        // A stale exception fails like a violation does.
        ("#[expect(clippy::unwrap_used, reason = \"nothing below unwraps\")]", &[(UNFULFILLED, "")]),
        ("pub fn stale() {}", &[]),
        // Controls: a live exception, and everything the policy leaves legal.
        ("#[expect(clippy::unwrap_used, reason = \"control: fulfilled\")]", &[]),
        ("pub fn live(o: Option<u8>) -> u8 { o.unwrap() }", &[]),
        ("pub fn cast(x: u64) -> f64 { x as f64 }", &[]),
        (
            "pub fn legal(m: &std::collections::BTreeMap<u8, std::sync::Arc<std::time::Duration>>) -> usize { m.len() }",
            &[],
        ),
        ("pub fn stated(o: Option<u8>) -> u8 { o.expect(\"the caller checked\") }", &[]),
        ("pub fn checked(x: u8) { assert!(x > 0, \"stated\"); unreachable!() }", &[]),
        (
            "pub fn generic<R: std::io::Read>(r: R) -> std::io::Result<Vec<u8>> { let mut v = Vec::new(); std::io::Read::read_to_end(&mut { r }, &mut v)?; Ok(v) }",
            &[],
        ),
    ]
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

/// The body of the root manifest's `[workspace.lints.clippy]` table.
fn workspace_clippy_levels(root: &Path) -> String {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let (_, rest) = manifest
        .split_once("[workspace.lints.clippy]\n")
        .expect("the root manifest sets clippy lint levels");
    rest.lines().take_while(|l| !l.starts_with('[')).map(|l| format!("{l}\n")).collect()
}

/// Writes the throwaway package and returns its manifest path.
fn write_probe_package(root: &Path) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("policy_probe");
    std::fs::create_dir_all(dir.join("src")).expect("probe dir");
    std::fs::copy(root.join("clippy.toml"), dir.join("clippy.toml")).expect("workspace clippy.toml");
    let manifest = format!(
        "[package]\nname = \"policy-probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [workspace]\n\n[lints.clippy]\n{}",
        workspace_clippy_levels(root)
    );
    std::fs::write(dir.join("Cargo.toml"), manifest).expect("probe manifest");
    let source: String = probes()
        .iter()
        .map(|(code, _)| format!("{}\n", code.replace("MONEY_ATTR", MONEY_ATTR)))
        .collect();
    std::fs::write(dir.join("src/lib.rs"), source).expect("probe source");
    dir.join("Cargo.toml")
}

/// Runs the binary's clippy invocation over the probe with machine-readable
/// output and returns every `(1-based line, lint, message)` it reports.
fn run_clippy_on_probe(manifest: &Path) -> Vec<(usize, String, String)> {
    let base = clippy_command(manifest, &["policy-probe"]);
    let mut cmd = Command::new(base.get_program());
    for arg in base.get_args() {
        if arg == "--" {
            cmd.arg("--message-format=json");
        }
        cmd.arg(arg);
    }
    let out = cmd.output().expect("cargo clippy starts");
    assert!(!out.status.success(), "the probe violates every policy, yet clippy passed");
    let stdout = String::from_utf8(out.stdout).expect("cargo prints UTF-8 JSON");
    let mut found = Vec::new();
    for line in stdout.lines() {
        let doc = parse(line).unwrap_or_else(|e| panic!("cargo emitted bad JSON ({e:?}): {line}"));
        let Some(msg) = doc.get("message").filter(|_| {
            doc.get("reason").and_then(JsonValue::as_str) == Some("compiler-message")
        }) else {
            continue;
        };
        let Some(code) = msg.get("code").and_then(|c| c.get("code")).and_then(JsonValue::as_str)
        else {
            continue; // "aborting due to N previous errors"
        };
        let text = msg.get("message").and_then(JsonValue::as_str).unwrap_or("").to_owned();
        let line_no = msg
            .get("spans")
            .and_then(JsonValue::as_arr)
            .and_then(|spans| {
                spans.iter().find(|s| matches!(s.get("is_primary"), Some(JsonValue::Bool(true))))
            })
            .and_then(|s| s.get("line_start"))
            .and_then(JsonValue::as_num)
            .unwrap_or_else(|| panic!("diagnostic without a primary span: {line}"));
        found.push((line_no as usize, code.to_owned(), text));
    }
    assert!(
        !found.is_empty(),
        "clippy failed without diagnostics:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    found
}

#[test]
fn every_banned_spelling_is_reported() {
    let root = workspace_root();
    let found = run_clippy_on_probe(&write_probe_package(&root));
    let probes = probes();

    // Each expectation is met on its line, under its lint ...
    for (i, (code, expected)) in probes.iter().enumerate() {
        for (lint, needle) in *expected {
            assert!(
                found.iter().any(|(l, c, m)| *l == i + 1 && c == lint && m.contains(needle)),
                "line {}: `{code}` not reported by {lint} {needle}\nfound: {found:#?}",
                i + 1
            );
        }
    }
    // ... and nothing else is reported: the control lines stay clean.
    for (line, lint, message) in &found {
        let (code, expected) = probes[line - 1];
        assert!(
            expected.iter().any(|(l, _)| l == lint),
            "line {line}: `{code}` unexpectedly reported by {lint}: {message}"
        );
    }

    // Coverage: every banned path in clippy.toml and every policy lint has
    // a probe line, so deleting either one fails an expectation above.
    let expected: Vec<(&str, &str)> = probes.iter().flat_map(|(_, e)| e.iter().copied()).collect();
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("workspace clippy.toml");
    let banned: Vec<&str> = toml
        .lines()
        .filter_map(|l| l.trim().strip_prefix("{ path = \"")?.split('"').next())
        .collect();
    assert!(banned.len() >= 20, "clippy.toml entries not recognised: {banned:?}");
    for path in banned {
        let needle = format!("`{path}`");
        assert!(
            expected.iter().any(|(_, n)| *n == needle),
            "clippy.toml bans `{path}` but no probe line exercises it"
        );
    }
    let probed: BTreeSet<&str> = expected.iter().map(|(lint, _)| *lint).collect();
    let policy: BTreeSet<&str> = CRATE_POLICIES
        .iter()
        .chain([&MONEY_POLICY])
        .flat_map(|p| p.lints.iter().copied())
        .chain([UNFULFILLED])
        .collect();
    assert_eq!(probed, policy, "each policy lint needs a probe line, and vice versa");
}

#[test]
fn the_money_modules_carry_the_cast_attribute() {
    // R5 is file-scoped: the attribute is what binds it.
    let root = workspace_root();
    for module in MONEY_MODULES {
        let src = std::fs::read_to_string(root.join(module))
            .unwrap_or_else(|e| panic!("money module {module} is gone: {e}"));
        assert!(
            src.lines().any(|l| l == MONEY_ATTR),
            "{module} lost `{MONEY_ATTR}`: its `as` casts are no longer checked"
        );
    }
}
