//! CLI-boundary guarantees of `--tier analytic`:
//!
//! 1. stdout is byte-identical for any `--jobs` value and across
//!    repeated runs (the solver is bitwise deterministic and the pool
//!    merges in submission order).
//! 2. `--profile-cache` round-trips: a warm cache changes nothing but
//!    wall time; a corrupt or stale cache file warns on stderr and falls
//!    back to re-extraction, again changing nothing.
//! 3. Experiments that model per-quantum estimator behaviour reject the
//!    analytic tier up front (exit 2).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asm-experiments"))
        .args(args)
        .output()
        .expect("spawn asm-experiments")
}

fn tmp_dir(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("analytic_cli_{label}"));
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
fn analytic_matrix_is_byte_identical_across_jobs_and_runs() {
    let cache = tmp_dir("jobs").join("profiles.cache");
    let cache = cache.to_str().expect("utf8 tmp path");
    let mut outputs = Vec::new();
    for jobs in ["1", "3", "1"] {
        let out = run(&[
            "matrix",
            "--tier",
            "analytic",
            "--tiny",
            "--jobs",
            jobs,
            "--profile-cache",
            cache,
        ]);
        assert_ok(&out, "matrix --tier analytic");
        outputs.push(out.stdout);
    }
    assert!(
        outputs[0] == outputs[1],
        "stdout differs between --jobs 1 and --jobs 3:\n--- jobs 1 ---\n{}\n--- jobs 3 ---\n{}",
        String::from_utf8_lossy(&outputs[0]),
        String::from_utf8_lossy(&outputs[1]),
    );
    assert!(
        outputs[0] == outputs[2],
        "stdout differs across repeated runs (warm profile cache)"
    );
}

#[test]
fn corrupt_profile_cache_warns_and_falls_back() {
    let dir = tmp_dir("corrupt");
    let cache_path = dir.join("profiles.cache");
    let cache = cache_path.to_str().expect("utf8 tmp path");
    let args = ["matrix", "--tier", "analytic", "--tiny", "--profile-cache", cache];

    // Cold run writes the cache.
    let cold = run(&args);
    assert_ok(&cold, "cold run");
    assert!(cache_path.exists(), "cache file written on exit");

    // Replace it with a cache in the text format of earlier builds: a
    // foreign artefact now, ignored rather than read.
    std::fs::write(&cache_path, "asm-reuse-profile v1\nprofiles 0\n").expect("overwrite");
    let warm = run(&args);
    assert_ok(&warm, "run with corrupt cache");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        stderr.contains("warning: profile-cache: ignoring"),
        "expected a profile-cache warning on stderr, got:\n{stderr}"
    );
    assert!(
        cold.stdout == warm.stdout,
        "a corrupt cache file must never change results"
    );

    // The fallback rewrote a valid cache; a third run stays identical
    // and warning-free.
    let healed = run(&args);
    assert_ok(&healed, "run after cache heal");
    assert!(
        !String::from_utf8_lossy(&healed.stderr).contains("warning: profile-cache"),
        "healed cache should load cleanly"
    );
    assert!(cold.stdout == healed.stdout);
}

#[test]
fn estimator_experiments_reject_the_analytic_tier() {
    let out = run(&["fig4", "--tier", "analytic", "--tiny"]);
    assert_eq!(out.status.code(), Some(2), "expected exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("analytic"),
        "stderr should explain the rejection, got:\n{stderr}"
    );
}

#[test]
fn unknown_tier_is_rejected() {
    let out = run(&["matrix", "--tier", "nope", "--tiny"]);
    assert_eq!(out.status.code(), Some(2), "expected exit 2");
}
