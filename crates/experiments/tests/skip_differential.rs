//! The fast-forward's end-to-end guarantee, pinned at the CLI boundary:
//! for **every** experiment, `--no-skip` (simulate each cycle) and the
//! default fast-forward produce byte-identical stdout and byte-identical
//! CSV exports. This is the differential matrix backing DESIGN.md §8 —
//! the in-core equivalence tests (`crates/core/tests/skip_equivalence.rs`)
//! pin QuantumRecords; this test pins everything downstream of them,
//! including the float formatting in rendered tables.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use asm_experiments::exps;

/// Runs one experiment in a child process at a sub-tiny scale, returning
/// its exact stdout bytes and the bytes of every CSV it exported.
fn run(exp: &str, no_skip: bool, csv_dir: &Path) -> (Vec<u8>, BTreeMap<String, Vec<u8>>) {
    std::fs::create_dir_all(csv_dir).expect("create csv dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_asm-experiments"));
    cmd.arg(exp)
        .args(["--tiny", "--workloads", "1", "--cycles", "400000", "--csv"])
        .arg(csv_dir);
    if no_skip {
        cmd.arg("--no-skip");
    }
    let out = cmd.output().expect("spawn asm-experiments");
    assert!(
        out.status.success(),
        "{exp} (no_skip={no_skip}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut csvs = BTreeMap::new();
    for entry in std::fs::read_dir(csv_dir).expect("read csv dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        csvs.insert(name, std::fs::read(entry.path()).expect("read csv"));
    }
    (out.stdout, csvs)
}

fn tmp_dir(label: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("skip_differential_{label}"))
}

#[test]
fn every_experiment_is_byte_identical_with_and_without_skip() {
    // `all` is the union of the `in_all` rows, each covered on its own.
    for exp in exps::TABLE.iter().map(|e| e.name).filter(|&name| name != "all") {
        let (stdout_skip, csv_skip) = run(exp, false, &tmp_dir(&format!("{exp}_skip")));
        let (stdout_cycle, csv_cycle) = run(exp, true, &tmp_dir(&format!("{exp}_cycle")));
        assert!(
            stdout_skip == stdout_cycle,
            "{exp}: stdout differs between skip and cycle-by-cycle:\n\
             --- skip ---\n{}\n--- cycle ---\n{}",
            String::from_utf8_lossy(&stdout_skip),
            String::from_utf8_lossy(&stdout_cycle)
        );
        assert_eq!(
            csv_skip.keys().collect::<Vec<_>>(),
            csv_cycle.keys().collect::<Vec<_>>(),
            "{exp}: CSV file sets differ"
        );
        for (name, bytes) in &csv_skip {
            assert!(
                bytes == &csv_cycle[name],
                "{exp}: {name} differs between skip and cycle-by-cycle"
            );
        }
        // Guard against a silently empty comparison: every experiment
        // prints at least its scale banner.
        assert!(!stdout_skip.is_empty(), "{exp}: produced no stdout");
    }
}
