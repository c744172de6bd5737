//! The binary's exit contract for a checkout it cannot lint.

use std::process::Command;

#[test]
fn a_tree_missing_a_listed_crate_fails() {
    // A checkout where a crate named in SIM_CRATES is gone (deleted,
    // renamed, moved) must not reach clippy, where it would read as a
    // policy violation (exit 1): it is an I/O error naming the crate.
    let root = std::env::temp_dir().join(format!("asm_lint_missing_crate_{}", std::process::id()));
    for krate in asm_lint::SIM_CRATES.iter().filter(|&&c| c != "attrib") {
        std::fs::create_dir_all(root.join("crates").join(krate).join("src")).expect("temp tree");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_asm-lint")).arg(&root).output().expect("asm-lint starts");
    std::fs::remove_dir_all(&root).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("listed crate `attrib`"), "{stderr}");
}
