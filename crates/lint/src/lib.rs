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
//!   and builds the `cargo clippy` run over [`SIM_CRATES`]; `clippy.toml`
//!   lists the banned types and methods.
//! - **the counting-allocator matrix** owns R9's allocation leg: no heap
//!   allocation between quantum boundaries under `System::{step, run_for,
//!   run_prefix}` and `MixSolver::{alone, solve}`.
//!   `tests/hot_path_allocs.rs` (root package) and
//!   `crates/analytic/tests/solver_allocs.rs` count real allocator calls
//!   and pin them.
//! - R11, R12, R13 and `--pedantic` are deleted (DESIGN.md §8 says why).
//!
//! This crate is the clippy run's driver: [`check_sim_crates`] first, so a
//! checkout that lost a listed crate is an error naming it, then
//! [`policy::run_clippy`].

pub mod policy;

use std::path::Path;

/// The simulation crates the policy binds: the clippy run checks their lib
/// targets. `experiments`, `vendor/*` shims, the root package and the lint
/// crate itself are exempt: harness code may thread, lock, time and print.
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

/// Checks that `<root>/crates/<name>/src` is readable for every crate in
/// [`SIM_CRATES`]. A listed crate that is gone (or a typo'd root, where all
/// are) must be neither a shorter "clean" nor a policy violation: it is an
/// I/O error naming the crate, and adding, renaming or deleting a crate
/// means editing the list.
pub fn check_sim_crates(root: &Path) -> std::io::Result<()> {
    for krate in SIM_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        std::fs::read_dir(&dir).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("listed crate `{krate}`: cannot read {}: {e}", dir.display()),
            )
        })?;
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
}
