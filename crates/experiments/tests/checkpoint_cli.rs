//! CLI-boundary guarantees of `--checkpoint-dir` / `--resume`:
//!
//! 1. A checkpointed campaign emits stdout byte-identical to an
//!    uncheckpointed one, for any `--jobs` value — checkpoint state can
//!    accelerate a campaign but never steer it.
//! 2. `--resume` replays finished runs from their manifests (and reuses
//!    the shared warmup snapshot) with, again, byte-identical stdout.
//! 3. Damaged checkpoint artefacts are warned about on stderr and
//!    rebuilt; results stay identical.
//! 4. `--resume` without `--checkpoint-dir` is a usage error (exit 2).
//! 5. Every Runner-driven experiment is a campaign: a resumed `all`
//!    replays every member of every campaign and simulates none.
//!
//! The kill-mid-campaign leg of this story lives in `scripts/ci.sh`
//! (leg 5), where a real SIGKILL interrupts the process.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asm-experiments"))
        .args(args)
        .output()
        .expect("spawn asm-experiments")
}

fn tmp_dir(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("checkpoint_cli_{label}"));
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

fn assert_same_stdout(a: &Output, b: &Output, what: &str) {
    assert!(
        a.stdout == b.stdout,
        "{what}:\n--- left ---\n{}\n--- right ---\n{}",
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
    );
}

#[test]
fn checkpointed_campaign_matches_cold_for_any_jobs() {
    let ckpt = tmp_dir("jobs").join("ckpt");
    let ckpt = ckpt.to_str().expect("utf8 tmp path");

    let cold = run(&["fig11", "--tiny"]);
    assert_ok(&cold, "cold fig11");

    for jobs in ["1", "3"] {
        let warm = run(&["fig11", "--tiny", "--jobs", jobs, "--checkpoint-dir", ckpt]);
        assert_ok(&warm, "checkpointed fig11");
        assert_same_stdout(
            &cold,
            &warm,
            "checkpointed stdout differs from cold",
        );
    }
}

#[test]
fn resume_replays_manifests_byte_identically() {
    let dir = tmp_dir("resume");
    let ckpt_path = dir.join("ckpt");
    let ckpt = ckpt_path.to_str().expect("utf8 tmp path");

    let cold = run(&["fig11", "--tiny"]);
    assert_ok(&cold, "cold fig11");

    // First checkpointed pass populates warmup snapshots and manifests.
    let first = run(&["fig11", "--tiny", "--checkpoint-dir", ckpt]);
    assert_ok(&first, "first checkpointed pass");
    assert_same_stdout(&cold, &first, "first pass differs from cold");
    let manifests = std::fs::read_dir(ckpt_path.join("runs"))
        .expect("runs dir exists after a checkpointed campaign")
        .count();
    assert!(manifests > 0, "campaign saved no run manifests");

    // Resume replays every run from its manifest.
    let resumed = run(&["fig11", "--tiny", "--checkpoint-dir", ckpt, "--resume"]);
    assert_ok(&resumed, "resumed pass");
    assert_same_stdout(&cold, &resumed, "manifest replay differs from cold");
}

#[test]
fn resumed_all_replays_every_member_of_every_campaign() {
    let dir = tmp_dir("all");
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().expect("utf8 tmp path");

    let cold = run(&["all", "--tiny"]);
    assert_ok(&cold, "cold all");
    let first = run(&["all", "--tiny", "--checkpoint-dir", ckpt]);
    assert_ok(&first, "checkpointed all");
    assert_same_stdout(&cold, &first, "checkpointed all differs from cold");
    let resumed = run(&["all", "--tiny", "--checkpoint-dir", ckpt, "--resume"]);
    assert_ok(&resumed, "resumed all");
    assert_same_stdout(&cold, &resumed, "resumed all differs from cold");

    let stderr = String::from_utf8_lossy(&resumed.stderr);
    let campaigns: Vec<&str> = stderr.lines().filter(|l| l.starts_with("campaign:")).collect();
    assert!(campaigns.len() >= 14, "one campaign at least per Runner-driven figure:\n{stderr}");
    for line in campaigns {
        let field = |name: &str| {
            let value = line.split(' ').find_map(|f| f.strip_prefix(name));
            value.unwrap_or_else(|| panic!("no {name} in {line}")).to_owned()
        };
        assert_eq!(field("replayed="), field("members="), "simulated members: {line}");
        assert_eq!(field("quantum_runs="), "0", "{line}");
    }
}

#[test]
fn damaged_artefacts_warn_and_rebuild() {
    // One experiment that has always been a campaign, one that became one.
    for exp in ["fig11", "fig4"] {
        damaged_artefacts_warn_and_rebuild_on(exp);
    }
}

fn damaged_artefacts_warn_and_rebuild_on(exp: &str) {
    let dir = tmp_dir(&format!("damage_{exp}"));
    let ckpt_path = dir.join("ckpt");
    let ckpt = ckpt_path.to_str().expect("utf8 tmp path");
    let args = [exp, "--tiny", "--checkpoint-dir", ckpt, "--resume"];

    let cold = run(&[exp, "--tiny"]);
    assert_ok(&cold, "cold run");
    let first = run(&args);
    assert_ok(&first, "first checkpointed pass");

    // Truncate every artefact on disk: manifests, and the warmup snapshots
    // of campaigns whose members shared one (fig4's share none).
    for sub in ["warmups", "runs"] {
        for entry in std::fs::read_dir(ckpt_path.join(sub)).into_iter().flatten() {
            let p = entry.expect("dir entry").path();
            std::fs::write(&p, b"asm").expect("truncate artefact");
        }
    }

    let healed = run(&args);
    assert_ok(&healed, "pass over damaged artefacts");
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert!(
        stderr.contains("checkpoint:"),
        "expected a checkpoint warning on stderr, got:\n{stderr}"
    );
    assert_same_stdout(&cold, &healed, "damaged artefacts changed results");

    // The damaged files were rewritten: a third pass replays cleanly.
    let replayed = run(&args);
    assert_ok(&replayed, "pass after artefact heal");
    assert!(
        !String::from_utf8_lossy(&replayed.stderr).contains("checkpoint:"),
        "healed artefacts should load cleanly"
    );
    assert_same_stdout(&cold, &replayed, "healed replay differs from cold");
}

#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = run(&["fig11", "--tiny", "--resume"]);
    assert_eq!(out.status.code(), Some(2), "expected exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--checkpoint-dir"),
        "stderr should name the missing flag, got:\n{stderr}"
    );
}
