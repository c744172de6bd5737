//! CLI-boundary guarantees of `--checkpoint-dir` / `--resume`:
//!
//! 1. A checkpointed campaign emits stdout byte-identical to an
//!    uncheckpointed one, for any `--jobs` value — checkpoint state can
//!    accelerate a campaign but never steer it.
//! 2. `--resume` replays finished runs from their manifests (and reuses
//!    the shared warmup snapshot) with, again, byte-identical stdout.
//! 3. Damaged checkpoint artefacts are warned about on stderr and
//!    rebuilt; results stay identical.
//! 4. `--resume` without `--checkpoint-dir`, and a `--checkpoint-dir`
//!    that is not a directory, are usage errors (exit 2).
//! 5. Every Runner-driven experiment is a campaign: a resumed `all`
//!    replays every member of every campaign and simulates none.
//! 6. The alone runs are kept in D with or without `--resume`: a second
//!    pass over D simulates no alone run, and a damaged alone store costs
//!    one warning and a rebuild.
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

/// The `campaign:` lines of `out`'s stderr.
fn campaign_lines(out: &Output) -> Vec<String> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr.lines().filter(|l| l.starts_with("campaign:")).map(str::to_owned).collect()
}

/// The value of `name` (`"alone_runs="`, say) on a `campaign:` line.
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let value = line.split(' ').find_map(|f| f.strip_prefix(name));
    value.unwrap_or_else(|| panic!("no {name} in {line}"))
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
    // Without --resume every member runs again, on stored alone runs.
    let second = run(&["all", "--tiny", "--checkpoint-dir", ckpt]);
    assert_ok(&second, "second checkpointed all");
    assert_same_stdout(&cold, &second, "second checkpointed all differs from cold");
    for line in campaign_lines(&second) {
        assert_eq!(field(&line, "replayed="), "0", "{line}");
        assert_eq!(field(&line, "alone_runs="), "0", "{line}");
    }
    let resumed = run(&["all", "--tiny", "--checkpoint-dir", ckpt, "--resume"]);
    assert_ok(&resumed, "resumed all");
    assert_same_stdout(&cold, &resumed, "resumed all differs from cold");

    let campaigns = campaign_lines(&resumed);
    assert!(campaigns.len() >= 14, "one campaign at least per Runner-driven figure");
    for line in campaigns {
        assert_eq!(field(&line, "replayed="), field(&line, "members="), "simulated members: {line}");
        assert_eq!(field(&line, "quantum_runs="), "0", "{line}");
    }
}

#[test]
fn stored_alone_runs_are_reused_without_resume() {
    let ckpt_path = tmp_dir("alone").join("ckpt");
    // The first pass must start from an empty store.
    let _ = std::fs::remove_dir_all(&ckpt_path);
    let ckpt = ckpt_path.to_str().expect("utf8 tmp path");
    let args = ["fig11", "--tiny", "--checkpoint-dir", ckpt];

    let cold = run(&["fig11", "--tiny"]);
    assert_ok(&cold, "cold fig11");
    let simulated = |out: &Output| -> usize {
        let lines = campaign_lines(out);
        assert!(!lines.is_empty(), "no campaign line");
        lines.iter().map(|l| field(l, "alone_runs=").parse::<usize>().unwrap()).sum()
    };
    let first = run(&args);
    assert_ok(&first, "first checkpointed pass");
    assert!(simulated(&first) > 0, "the first pass simulated no alone run");
    let second = run(&args);
    assert_ok(&second, "second checkpointed pass");
    assert_same_stdout(&cold, &second, "stored alone runs changed results");
    assert_eq!(simulated(&second), 0, "the second pass simulated alone runs");

    // A truncated store: one warning, the alone runs simulated again.
    let store = ckpt_path.join("alone").join(format!("{:016x}.bin", 0));
    std::fs::write(&store, b"asm").expect("truncate store");
    let healed = run(&args);
    assert_ok(&healed, "pass over a damaged store");
    assert_same_stdout(&cold, &healed, "a damaged store changed results");
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert_eq!(stderr.matches("checkpoint:").count(), 1, "one warning:\n{stderr}");
    assert_eq!(simulated(&healed), simulated(&first));
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

    // Truncate every artefact on disk: manifests, the alone store, and
    // the warmup snapshots of campaigns whose members shared one (fig4's
    // share none).
    for sub in ["warmups", "runs", "alone"] {
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

#[test]
fn checkpoint_dir_that_is_a_file_is_a_usage_error() {
    let file = tmp_dir("not_a_dir").join("plain_file");
    std::fs::write(&file, b"not a directory").expect("write file");
    let out = run(&["fig9", "--tiny", "--checkpoint-dir", file.to_str().expect("utf8 tmp path")]);
    assert_eq!(out.status.code(), Some(2), "expected exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one error line, got:\n{stderr}");
    assert!(
        stderr.starts_with("error: --checkpoint-dir") && stderr.contains("not a directory"),
        "stderr should name the flag, got:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run");
}
