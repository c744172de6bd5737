//! CLI-boundary guarantees of `--tier sampled`:
//!
//! 1. Sampled output (selection, weights, `value ±ci` cells) is
//!    byte-identical for any `--jobs` value.
//! 2. `--checkpoint-dir` + `--resume` replays sampled manifests with,
//!    again, byte-identical stdout.
//! 3. Experiments whose `exps::TABLE` row lacks the tier are rejected up
//!    front (exit 2), as are horizons that do not divide into intervals.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asm-experiments"))
        .args(args)
        .output()
        .expect("spawn asm-experiments")
}

fn tmp_dir(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sampled_cli_{label}"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sampled_output_is_byte_identical_across_jobs() {
    let base = run(&["fig11", "--tiny", "--tier", "sampled", "--jobs", "1"]);
    assert_ok(&base, "sampled fig11");
    let stdout = String::from_utf8_lossy(&base.stdout);
    assert!(
        stdout.contains("tier: sampled"),
        "missing tier banner:\n{stdout}"
    );
    assert!(
        stdout.contains('\u{b1}'),
        "sampled tables must carry ±ci cells:\n{stdout}"
    );
    for jobs in ["2", "4"] {
        let par = run(&["fig11", "--tiny", "--tier", "sampled", "--jobs", jobs]);
        assert_ok(&par, "sampled fig11 (parallel)");
        assert!(
            base.stdout == par.stdout,
            "sampled stdout depends on --jobs {jobs}:\n--- jobs 1 ---\n{}\n--- jobs {jobs} ---\n{}",
            String::from_utf8_lossy(&base.stdout),
            String::from_utf8_lossy(&par.stdout),
        );
    }
}

#[test]
fn sampled_resume_replays_manifests_byte_identically() {
    let dir = tmp_dir("resume");
    let ckpt_path = dir.join("ckpt");
    let ckpt = ckpt_path.to_str().expect("utf8 tmp path");
    let cold = run(&["fig11", "--tiny", "--tier", "sampled"]);
    assert_ok(&cold, "cold sampled fig11");

    let first = run(&[
        "fig11", "--tiny", "--tier", "sampled", "--checkpoint-dir", ckpt,
    ]);
    assert_ok(&first, "first checkpointed sampled pass");
    assert!(
        cold.stdout == first.stdout,
        "checkpointed sampled stdout differs from cold"
    );
    let manifests = std::fs::read_dir(ckpt_path.join("sampled"))
        .expect("sampled manifest dir exists after a checkpointed campaign")
        .count();
    assert!(manifests > 0, "campaign saved no sampled manifests");

    let resumed = run(&[
        "fig11", "--tiny", "--tier", "sampled", "--checkpoint-dir", ckpt, "--resume",
    ]);
    assert_ok(&resumed, "resumed sampled pass");
    assert!(
        cold.stdout == resumed.stdout,
        "sampled manifest replay differs from cold:\n--- cold ---\n{}\n--- resumed ---\n{}",
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&resumed.stdout),
    );
}

#[test]
fn unsupported_experiments_are_rejected() {
    let out = run(&["fig2", "--tiny", "--tier", "sampled"]);
    assert_eq!(out.status.code(), Some(2), "expected exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not support --tier sampled"),
        "stderr should explain the rejection, got:\n{stderr}"
    );
}

#[test]
fn indivisible_horizons_are_rejected() {
    // --tiny quantum is 200k; 500k cycles is not a multiple.
    let out = run(&["fig11", "--tiny", "--tier", "sampled", "--cycles", "500000"]);
    assert_eq!(out.status.code(), Some(2), "expected exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("multiple"),
        "stderr should explain the divisibility requirement, got:\n{stderr}"
    );
}
