//! The clippy-owned half of the determinism policy.
//!
//! Eight of the thirteen rules DESIGN.md §8 lists are properties clippy
//! already decides with real name resolution and types, so `asm-lint` does
//! not re-implement them: after its own pass (R9) the binary runs the
//! `cargo clippy` built by [`clippy_command`] over exactly the crates in
//! [`crate::SIM_CRATES`], with every lint [`CRATE_POLICIES`] names at deny
//! level. The banned types and methods themselves are listed in the
//! workspace's `clippy.toml`. A sanctioned exception is an
//! `#[expect(clippy::…, reason = "…")]` on the item; an `#[expect]` that
//! stops matching fails the same run (`unfulfilled_lint_expectations`).
//!
//! Harness code (`experiments`, this crate, `vendor/*`, the root package)
//! stays outside the policy — it may thread, lock, time and print — which
//! is why the lints are raised per package on the command line and not in
//! `[workspace.lints]`.

use std::ffi::OsString;
use std::path::Path;
use std::process::Command;

use crate::parse::FileModel;

/// One clippy-owned policy: the former rule ids it replaces, the lints
/// that enforce it and the `--list-rules` summary.
#[derive(Debug)]
pub struct ClippyPolicy {
    /// Former `asm-lint` rule ids (`"R1/R8"`), kept because CHANGES.md and
    /// DESIGN.md cite them.
    pub ids: &'static str,
    /// The clippy lints that enforce it.
    pub lints: &'static [&'static str],
    /// One-line summary.
    pub summary: &'static str,
}

/// The policies denied for every simulation crate, on the command line.
pub const CRATE_POLICIES: &[ClippyPolicy] = &[
    ClippyPolicy {
        ids: "R1/R8",
        lints: &["clippy::disallowed_types"],
        summary: "no HashMap/HashSet/RandomState, however spelled: renames, re-exports, \
                  aliases and generic defaults resolve to the banned type (clippy.toml)",
    },
    ClippyPolicy {
        ids: "R2",
        lints: &["clippy::unwrap_used"],
        summary: "no unwrap() outside tests (state the invariant with expect)",
    },
    ClippyPolicy {
        ids: "R3",
        lints: &["clippy::float_cmp"],
        summary: "no ==/!= on f64/f32 values (type-aware; use an epsilon, to_bits or integer \
                  cycle math)",
    },
    ClippyPolicy {
        ids: "R4",
        lints: &["clippy::disallowed_types", "clippy::disallowed_methods"],
        summary: "no wall clock: Instant, SystemTime and their now() (clippy.toml)",
    },
    ClippyPolicy {
        ids: "R6",
        lints: &["clippy::disallowed_types", "clippy::disallowed_methods"],
        summary: "no threads or sync primitives beyond Arc: Mutex, RwLock, Condvar, Barrier, \
                  OnceLock, LazyLock, mpsc, JoinHandle, thread::{spawn, scope} (clippy.toml)",
    },
    ClippyPolicy {
        ids: "R7",
        lints: &["clippy::print_stdout", "clippy::print_stderr", "clippy::dbg_macro"],
        summary: "no print macros (experiment stdout is byte-compared)",
    },
    ClippyPolicy {
        ids: "R10",
        lints: &["clippy::undocumented_unsafe_blocks"],
        summary: "every unsafe block carries a // SAFETY: comment",
    },
];

/// R5 binds two files, not whole crates, so its lint is raised by the
/// inner attribute [`MONEY_ATTR`] at the top of each [`MONEY_MODULES`]
/// entry instead of on the command line.
pub const MONEY_POLICY: ClippyPolicy = ClippyPolicy {
    ids: "R5",
    lints: &["clippy::as_conversions"],
    summary: "every `as` cast in billing/accounting arithmetic is justified \
              (mech/billing.rs, dram/accounting.rs)",
};

/// The billing/accounting files R5 binds, relative to the workspace root.
pub const MONEY_MODULES: &[&str] = &[
    "crates/core/src/mech/billing.rs",
    "crates/dram/src/accounting.rs",
];

/// The line each of [`MONEY_MODULES`] carries.
pub const MONEY_ATTR: &str = "#![deny(clippy::as_conversions)]";

/// `$CARGO clippy --offline --lib --bins -p <packages…>` for the manifest
/// at `manifest`, with the policy lints denied. `--lib --bins` compiles no
/// `cfg(test)` code: tests may unwrap, hash and print. `-A warnings` keeps
/// the run to policy findings — clippy's default-group style warnings are
/// a plain `cargo clippy`'s business, not this gate's.
#[must_use]
pub fn clippy_command<S: AsRef<str>>(manifest: &Path, packages: &[S]) -> Command {
    let mut cmd = Command::new(cargo());
    cmd.args(["clippy", "--offline", "--lib", "--bins", "--manifest-path"]);
    cmd.arg(manifest);
    for p in packages {
        cmd.args(["-p", p.as_ref()]);
    }
    cmd.args(["--", "-A", "warnings"]);
    let mut lints: Vec<&str> = CRATE_POLICIES.iter().flat_map(|p| p.lints).copied().collect();
    lints.sort_unstable();
    lints.dedup();
    for lint in lints {
        cmd.args(["-D", lint]);
    }
    cmd.args(["-D", "unfulfilled_lint_expectations"]);
    cmd
}

/// The cargo that started us (`cargo run` and `cargo test` export it), or
/// the one on `PATH` when the binary is run directly.
fn cargo() -> OsString {
    std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into())
}

/// Runs the clippy half over the simulation crates of the workspace at
/// `root`, forwarding clippy's diagnostics to stderr. `Ok(true)` when
/// every policy holds; `Err` only when the command cannot be spawned.
pub fn run_clippy(root: &Path) -> std::io::Result<bool> {
    let packages: Vec<String> = crate::SIM_CRATES.iter().map(|c| format!("asm-{c}")).collect();
    let status = clippy_command(&root.join("Cargo.toml"), &packages)
        .status()
        .map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot spawn `{} clippy`: {e}", cargo().to_string_lossy()),
            )
        })?;
    Ok(status.success())
}

/// Number of non-test `#[expect(…)]` / `#![expect(…)]` attributes in one
/// file: the clippy-owned counterpart of the allow-directive count.
#[must_use]
pub fn expect_sites(m: &FileModel) -> usize {
    (0..m.tokens.len())
        .filter(|&i| {
            let bracket = if m.is_punct(i + 1, "!") { i + 2 } else { i + 1 };
            m.is_punct(i, "#")
                && m.text(bracket) == "["
                && m.is_ident(bracket + 1, "expect")
                && !m.is_test_token(i)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_command_denies_each_policy_lint_once_and_binds_the_named_packages() {
        let cmd = clippy_command(Path::new("/w/Cargo.toml"), &["asm-dram", "asm-core"]);
        let args: Vec<String> = cmd.get_args().map(|a| a.to_string_lossy().into_owned()).collect();
        let split = args.iter().position(|a| a == "--").expect("lint flags follow `--`");
        assert_eq!(
            args[..split],
            ["clippy", "--offline", "--lib", "--bins", "--manifest-path", "/w/Cargo.toml",
             "-p", "asm-dram", "-p", "asm-core"]
        );
        for policy in CRATE_POLICIES {
            for lint in policy.lints {
                let denied = args[split..].windows(2).filter(|w| w[0] == "-D" && w[1] == *lint);
                assert_eq!(denied.count(), 1, "{lint}");
            }
        }
        // R5 is file-scoped: denying it per crate would flag every cast.
        assert!(!args.iter().any(|a| a == MONEY_POLICY.lints[0]));
        assert!(args.ends_with(&["-D".to_owned(), "unfulfilled_lint_expectations".to_owned()]));
    }

    #[test]
    fn expect_sites_counts_outer_and_inner_attributes_outside_tests() {
        let src = "\
#![expect(clippy::float_cmp, reason = \"whole file\")]
#[expect(clippy::disallowed_types, reason = \"sanctioned\")]
type M = std::collections::HashMap<u8, u8>;
fn expect(x: Option<u8>) -> u8 { x.expect(\"stated invariant\") }
#[cfg(test)]
mod tests {
    #[expect(clippy::unwrap_used, reason = \"test code is outside the policy\")]
    fn t() { }
}
";
        assert_eq!(expect_sites(&FileModel::new("x.rs", src)), 2);
    }
}
