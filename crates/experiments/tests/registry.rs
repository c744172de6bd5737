//! The experiment table (`exps::TABLE`) is the only list of experiments:
//! the usage text, `all`, and the tier-capability errors are read off it.
//! Pinned at the CLI boundary, next to the other up-front usage errors —
//! degenerate scales exit 2 instead of printing an empty table — and
//! the per-option errors the options table in `main.rs` derives.

use std::process::{Command, Output};

use asm_experiments::{exps, Tier};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asm-experiments"))
        .args(args)
        .output()
        .expect("spawn asm-experiments")
}

/// A sub-tiny scale (that of `telemetry.rs`): one workload, two quanta.
const MICRO: &[&str] = &["--tiny", "--workloads", "1", "--cycles", "400000"];

#[test]
fn usage_lists_every_table_entry() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for e in exps::TABLE {
        let listed = usage.lines().any(|l| l.trim_start().starts_with(e.name) && l.contains(e.about));
        assert!(listed, "{} is missing from the usage text:\n{usage}", e.name);
    }
}

#[test]
fn all_runs_exactly_the_in_all_entries_in_paper_order() {
    let members: Vec<&str> = exps::TABLE.iter().filter(|e| e.in_all).map(|e| e.name).collect();
    assert_eq!(
        members,
        [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "db", "mise", "fig7", "fig8",
            "table3", "fig9", "fig10", "combined", "fig11"
        ]
    );
    // `all` prints the scale line once, then what each member prints.
    let stdout_of = |exp: &str| {
        let out = run(&[&[exp], MICRO].concat());
        assert!(out.status.success(), "{exp}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    let all = stdout_of("all");
    let (scale_line, _) = all.split_once('\n').expect("scale line");
    let mut expected = format!("{scale_line}\n");
    for exp in members {
        let own = stdout_of(exp);
        expected.push_str(own.strip_prefix(&format!("{scale_line}\n")).expect("same scale line"));
    }
    assert!(all == expected, "`all` is not its members back to back:\n{all}");
}

#[test]
fn a_tier_an_experiment_lacks_is_a_usage_error_naming_the_capable_ones() {
    for (tier, incapable) in [(Tier::Sampled, "fig4"), (Tier::Analytic, "fig11")] {
        let out = run(&[incapable, "--tiny", "--tier", tier.name()]);
        assert_eq!(out.status.code(), Some(2), "{incapable} --tier {}", tier.name());
        let stderr = String::from_utf8_lossy(&out.stderr);
        for e in exps::TABLE.iter().filter(|e| e.tiers.contains(&tier)) {
            assert_ne!(e.name, incapable);
            assert!(stderr.contains(e.name), "{} not named in:\n{stderr}", e.name);
        }
    }
}

#[test]
fn degenerate_scales_are_usage_errors() {
    // Each used to print a header-only table and exit 0. `--tiny` has
    // Q = 200k and one warmup quantum: 399,999 cycles measure nothing.
    for (flag, value) in [("--workloads", "0"), ("--cycles", "0"), ("--cycles", "100"), ("--cycles", "399999")] {
        let out = run(&["fig2", "--tiny", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert!(out.stdout.is_empty(), "{flag} {value} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: ") && stderr.contains(flag), "{flag} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr}");
    }
    let shortest = run(&["fig2", "--tiny", "--workloads", "1", "--cycles", "400000"]);
    assert!(shortest.status.success(), "the shortest measurable run is accepted");
}

#[test]
fn values_that_used_to_be_silently_mishandled_are_usage_errors() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("registry_rejects");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let artefact = dir.join("artefact");
    let artefact = artefact.to_str().expect("utf8 tmp path");
    let cases: &[(&[&str], &str)] = &[
        // Neither tier instruments a run: both wrote header-only artefacts.
        (&["fig11", "--tier", "sampled", "--report", artefact], "--tier cycle"),
        (&["matrix", "--tier", "analytic", "--trace", artefact], "--tier cycle"),
        // Clamped to 1 while `--workloads 0` was rejected.
        (&["fig2", "--jobs", "0"], "--jobs"),
        (&["fig11", "--tier", "sampled", "--sample-intervals", "0"], "--sample-intervals"),
        (&["fig11", "--tier", "sampled", "--sample-quanta", "0"], "--sample-quanta"),
        // The last value won, whatever the first was for.
        (&["fig2", "--checkpoint-dir", "a", "--checkpoint-dir", "b"], "--checkpoint-dir"),
        (&["fig2", "--workloads", "1", "--workloads", "2"], "--workloads"),
        (&["fig2", "--tier", "cycle", "--tier", "cycle"], "--tier"),
        // Derived arithmetic wrapped: Q x L to Q, and workloads x 4 to 0.
        (&["fig11", "--tier", "sampled", "--sample-quanta", "288230376151711745"], "--sample-quanta"),
        (&["fig7", "--workloads", "4611686018427387904"], "--workloads"),
        // And what was rejected all along still reads the same way.
        (&["fig2", "--seed"], "--seed"),
        (&["fig2", "--seed", "seven"], "--seed"),
        (&["fig2", "--csv"], "--csv"),
        (&["fig2", "--tier", "quantum"], "--tier"),
    ];
    for (args, needle) in cases {
        let out = run(&[&args[..1], &["--tiny"], &args[1..]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: ") && stderr.contains(needle), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr}");
    }
    assert!(!std::path::Path::new(artefact).exists(), "a rejected invocation wrote its artefact");
    assert!(!std::path::Path::new("a").exists() && !std::path::Path::new("b").exists());
}

#[test]
fn a_value_survives_a_scale_preset_given_after_it() {
    // `--tiny` replaces the whole scale; it used to wipe what preceded it.
    let after = run(&[&["fig2"], MICRO].concat());
    let before = run(&["fig2", "--workloads", "1", "--cycles", "400000", "--tiny"]);
    assert!(after.status.success() && before.status.success());
    assert!(after.stdout == before.stdout, "{}", String::from_utf8_lossy(&before.stdout));
    assert!(String::from_utf8_lossy(&before.stdout).starts_with("scale: 1 workloads x 400000 cycles"));
}
