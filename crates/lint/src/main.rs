//! CLI for `asm-lint`, the one policy gate. Runs `asm-lint`'s own rule
//! (R9) over the simulation crates, then `cargo clippy` with the
//! clippy-owned policy lints denied over the same crates, and exits
//! non-zero when either half finds a violation.
//!
//! ```text
//! cargo run -p asm-lint --release                 # lint the workspace
//! cargo run -p asm-lint --release -- <root>       # lint another checkout
//! cargo run -p asm-lint --release -- --json       # machine-readable report
//! cargo run -p asm-lint --release -- --list-rules # policy reference
//! ```
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error
//! (including a `cargo clippy` that cannot be started).

use std::path::PathBuf;
use std::process::ExitCode;

use asm_lint::policy::{self, CRATE_POLICIES, MONEY_POLICY};
use asm_lint::RuleId;

fn workspace_root() -> PathBuf {
    // crates/lint/ -> crates/ -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn list_rules() {
    for r in RuleId::ALL {
        println!("{:<6} asm-lint  {}", r.name(), r.summary());
    }
    for p in CRATE_POLICIES.iter().chain([&MONEY_POLICY]) {
        println!("{:<6} clippy    {} [{}]", p.ids, p.summary, p.lints.join(", "));
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => {
                list_rules();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: asm-lint [ROOT] [--json] [--list-rules]\n\
                     checks the simulation crates against the determinism policy \
                     (DESIGN.md §8): own rule R9, then cargo clippy for the rest"
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

    let analysis = match asm_lint::run_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asm-lint: failed to read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let own_clean = analysis.diagnostics.is_empty();
    if json {
        print!("{}", asm_lint::jsonout::render(&analysis));
    } else {
        for d in &analysis.diagnostics {
            println!("{d}");
        }
    }

    let clippy_clean = match policy::run_clippy(&root) {
        Ok(clean) => clean,
        Err(e) => {
            eprintln!("asm-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let clean = own_clean && clippy_clean;
    match (json, clean) {
        // The report is all of stdout; clippy spoke on stderr.
        (true, _) => {}
        (false, true) => println!(
            "asm-lint: clean — own rule R9: {} files, {} hot-path fns audited, \
             {} boundary + {} line allows; clippy policy: {} crates checked, \
             {} #[expect] sites",
            analysis.files,
            analysis.hot_reachable.len(),
            analysis.hot_reachable.iter().filter(|h| h.boundary).count(),
            analysis.suppressed.len(),
            asm_lint::SIM_CRATES.len(),
            analysis.expect_sites,
        ),
        (false, false) => {
            let n = analysis.diagnostics.len();
            println!(
                "asm-lint: {n} violation{} of R9 (suppress intentional ones with \
                 `// asm-lint: allow(R9): reason`); clippy policy: {}",
                if n == 1 { "" } else { "s" },
                if clippy_clean {
                    "clean"
                } else {
                    "violated, see the errors above (a sanctioned exception is \
                     `#[expect(clippy::…, reason = \"…\")]`)"
                },
            );
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
