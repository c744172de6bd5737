//! CLI for `asm-lint`, the one policy gate. Checks that every crate in
//! `SIM_CRATES` is there, then runs `cargo clippy` with the clippy-owned
//! policy lints denied over those crates, and exits non-zero when clippy
//! finds a violation. R9's allocation leg is not this binary's: the
//! counting-allocator tests own it (DESIGN.md §8).
//!
//! ```text
//! cargo run -p asm-lint --release                 # lint the workspace
//! cargo run -p asm-lint --release -- <root>       # lint another checkout
//! cargo run -p asm-lint --release -- --list-rules # policy reference
//! ```
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error (a listed
//! crate that is missing, or a `cargo clippy` that cannot be started).

use std::path::PathBuf;
use std::process::ExitCode;

use asm_lint::policy::{self, CRATE_POLICIES, MONEY_POLICY};
use asm_lint::SIM_CRATES;

fn workspace_root() -> PathBuf {
    // crates/lint/ -> crates/ -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn list_rules() {
    for p in CRATE_POLICIES.iter().chain([&MONEY_POLICY]) {
        println!("{:<6} clippy    {} [{}]", p.ids, p.summary, p.lints.join(", "));
    }
    println!(
        "{:<6} tests     no heap allocation between quantum boundaries \
         [tests/hot_path_allocs.rs, crates/analytic/tests/solver_allocs.rs]",
        "R9"
    );
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list-rules" => {
                list_rules();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: asm-lint [ROOT] [--list-rules]\n\
                     checks the simulation crates against the clippy-owned determinism \
                     policies (DESIGN.md §8)"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("asm-lint: unknown flag `{flag}` (try --help)");
                return ExitCode::from(2);
            }
            path => {
                if root.is_some() {
                    eprintln!("asm-lint: more than one root given (try --help)");
                    return ExitCode::from(2);
                }
                root = Some(PathBuf::from(path));
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    if let Err(e) = asm_lint::check_sim_crates(&root) {
        eprintln!("asm-lint: failed to read workspace at {}: {e}", root.display());
        return ExitCode::from(2);
    }
    match policy::run_clippy(&root) {
        Ok(true) => {
            println!("asm-lint: clean — clippy policy: {} crates checked", SIM_CRATES.len());
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!(
                "asm-lint: clippy policy violated, see the errors above (a sanctioned \
                 exception is `#[expect(clippy::…, reason = \"…\")]`)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("asm-lint: {e}");
            ExitCode::from(2)
        }
    }
}
