//! CLI for `asm-lint`. Lints the simulation and harness crates and
//! exits non-zero when any rule violation remains.
//!
//! ```text
//! cargo run -p asm-lint --release                 # lint the workspace
//! cargo run -p asm-lint --release -- <root>       # lint another checkout
//! cargo run -p asm-lint --release -- --json       # machine-readable report
//! cargo run -p asm-lint --release -- --list-rules # rule reference
//! cargo run -p asm-lint --release -- --pedantic   # also audit hot-path indexing
//! ```
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use asm_lint::{Options, RuleId};

fn workspace_root() -> PathBuf {
    // crates/lint/ -> crates/ -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut json = false;
    let mut opts = Options::default();
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--pedantic" => opts.pedantic = true,
            "--list-rules" => {
                for r in RuleId::ALL {
                    println!("{:<4} {}", r.name(), r.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: asm-lint [ROOT] [--json] [--pedantic] [--list-rules]\n\
                     lints the simulation crates for determinism rules R1-R13"
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

    let analysis = match asm_lint::run_workspace_with(&root, &opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asm-lint: failed to read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", asm_lint::jsonout::render(&analysis));
        return if analysis.diagnostics.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if analysis.diagnostics.is_empty() {
        println!(
            "asm-lint: clean — {} files across {} simulation + {} harness crate{} \
             satisfy R1-R13 ({} unsafe sites justified, {} hot-path fns audited, \
             {} reasoned suppressions)",
            analysis.files,
            asm_lint::SIM_CRATES.len(),
            asm_lint::HARNESS_CRATES.len(),
            if asm_lint::HARNESS_CRATES.len() == 1 { "" } else { "s" },
            analysis.unsafe_inventory.len(),
            analysis.hot_reachable.len(),
            analysis.suppressed.len(),
        );
        return ExitCode::SUCCESS;
    }

    for d in &analysis.diagnostics {
        println!("{d}");
    }
    println!(
        "asm-lint: {} violation{} (suppress intentional ones with \
         `// asm-lint: allow(R#): reason`)",
        analysis.diagnostics.len(),
        if analysis.diagnostics.len() == 1 { "" } else { "s" }
    );
    ExitCode::FAILURE
}
