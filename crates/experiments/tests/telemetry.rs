//! End-to-end guarantees of the run report and the trace, pinned at the
//! CLI boundary:
//!
//! 1. **Zero observable cost when on**: every experiment's stdout and
//!    CSV exports are byte-identical whether or not `--report` is
//!    requested (instrumentation is compiled in either way — the flag
//!    only decides whether it is *enabled*).
//! 2. **The report**: it parses with schema `asm-report/1`, is
//!    byte-identical for `--jobs 1` and `--jobs 4` (runs are recorded in
//!    submission order), and serialise → parse → serialise is a fixed
//!    point.
//! 3. **The trace**: `--trace` is well-formed Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use asm_experiments::exps;
use asm_telemetry::json::{parse, JsonValue};

fn tmp_dir(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("telemetry_{label}"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Runs one experiment at sub-tiny scale with `extra` flags appended,
/// returning stdout bytes and every exported CSV's bytes.
fn run(exp: &str, csv_dir: &Path, extra: &[&str]) -> (Vec<u8>, BTreeMap<String, Vec<u8>>) {
    std::fs::create_dir_all(csv_dir).expect("create csv dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_asm-experiments"));
    cmd.arg(exp)
        .args(["--tiny", "--workloads", "1", "--cycles", "400000", "--csv"])
        .arg(csv_dir)
        .args(extra);
    let out = cmd.output().expect("spawn asm-experiments");
    assert!(
        out.status.success(),
        "{exp} {extra:?} failed: {}",
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

/// Runs `exp` with `--report` and returns the report's text.
fn report(exp: &str, label: &str, extra: &[&str]) -> String {
    let dir = tmp_dir(label);
    let path = dir.join("report.json");
    let _ = run(exp, &dir.join("csv"), &[extra, &["--report", path.to_str().expect("utf-8 tmp path")]].concat());
    std::fs::read_to_string(&path).expect("report written")
}

#[test]
fn every_experiment_is_byte_identical_with_telemetry_on() {
    // `all` is the union of the `in_all` rows, each covered on its own.
    for exp in exps::TABLE.iter().map(|e| e.name).filter(|&name| name != "all") {
        let (stdout_off, csv_off) = run(exp, &tmp_dir(&format!("{exp}_off")), &[]);
        let on_dir = tmp_dir(&format!("{exp}_on"));
        let report = on_dir.join("report.json");
        let (stdout_on, csv_on) = run(
            exp,
            &on_dir.join("csv"),
            &["--report", report.to_str().expect("utf-8 tmp path")],
        );
        assert!(
            stdout_off == stdout_on,
            "{exp}: stdout differs with the report enabled:\n\
             --- off ---\n{}\n--- on ---\n{}",
            String::from_utf8_lossy(&stdout_off),
            String::from_utf8_lossy(&stdout_on)
        );
        assert_eq!(
            csv_off.keys().collect::<Vec<_>>(),
            csv_on.keys().collect::<Vec<_>>(),
            "{exp}: CSV file sets differ"
        );
        for (name, bytes) in &csv_off {
            assert!(
                bytes == &csv_on[name],
                "{exp}: {name} differs with the report enabled"
            );
        }
        assert!(report.is_file(), "{exp}: --report wrote nothing");
    }
}

#[test]
fn stats_json_is_jobs_independent() {
    assert!(
        report("fig4", "jobs1", &["--jobs", "1"]) == report("fig4", "jobs4", &["--jobs", "4"]),
        "--report differs between --jobs 1 and --jobs 4"
    );
}

#[test]
fn stats_json_round_trips_with_expected_schema() {
    let doc = parse(&report("fig4", "schema", &[])).expect("report parses");
    assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("asm-report/1"));
    let components = doc.get("components").and_then(JsonValue::as_arr).expect("components");
    let runs = doc.get("runs").and_then(JsonValue::as_arr).expect("runs array");
    assert!(!runs.is_empty());
    for (i, r) in runs.iter().enumerate() {
        let label = r.get("label").and_then(JsonValue::as_str).expect("label");
        assert!(label.starts_with(&format!("w{i:03} ")), "{label}");
        let apps = r.get("apps").and_then(JsonValue::as_arr).expect("apps").len();
        let counters = r.get("counters").expect("counters object");
        for key in ["llc.app0.hits", "core0.retired", "sys.executed_cycles"] {
            assert!(counters.get(key).and_then(JsonValue::as_num).is_some(), "missing counter {key}");
        }
        let lat = r.get("dram_read_latency").expect("latency object");
        let samples = lat.get("samples").and_then(JsonValue::as_num).expect("sample count");
        if samples > 0.0 {
            assert!(lat.get("p95").and_then(JsonValue::as_num).is_some());
        }
        let series = r.get("series").expect("series object");
        for name in ["app0.est_slowdown", "app0.actual_slowdown"] {
            let points = series.get(name).and_then(JsonValue::as_arr).expect(name);
            assert!(!points.is_empty(), "{name} has no samples");
            assert!(points.iter().all(|p| p.as_arr().is_some_and(|p| p.len() == 2)));
        }
        let attribution = r.get("attribution").expect("attribution section");
        let totals = attribution.get("component_totals").and_then(JsonValue::as_arr).expect("totals");
        assert_eq!(totals.len(), apps);
        assert!(totals.iter().all(|row| row.as_arr().is_some_and(|row| row.len() == components.len())));
        let quanta = attribution.get("quanta").and_then(JsonValue::as_arr).expect("quanta");
        assert!(!quanta.is_empty());
        let blame = attribution.get("blame_totals").and_then(JsonValue::as_arr).expect("blame");
        assert_eq!(blame.len(), apps);
    }

    // Serialise → parse → serialise is a fixed point (the writer emits
    // exactly what the parser reads).
    let reparsed = parse(&doc.to_json()).expect("round-trip parses");
    assert_eq!(doc.to_json(), reparsed.to_json());
}

#[test]
fn trace_is_valid_chrome_trace_event_json() {
    let dir = tmp_dir("trace");
    let trace = dir.join("trace.json");
    let _ = run(
        "fig4",
        &dir.join("csv"),
        &["--trace", trace.to_str().expect("utf-8 tmp path")],
    );

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = parse(&text).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace recorded no events");
    let mut cats = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph field");
        assert!(matches!(ph, "i" | "X"), "unexpected phase {ph}");
        assert!(e.get("name").and_then(JsonValue::as_str).is_some());
        assert!(e.get("ts").and_then(JsonValue::as_num).is_some());
        assert!(e.get("pid").and_then(JsonValue::as_num).is_some());
        assert!(e.get("tid").and_then(JsonValue::as_num).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(JsonValue::as_num).is_some());
        }
        cats.insert(e.get("cat").and_then(JsonValue::as_str).expect("cat field"));
    }
    assert!(cats.contains("sched"), "no scheduler events in trace");
    assert!(cats.contains("mem"), "no memory lifecycle events in trace");
    assert!(doc.get("displayTimeUnit").is_some());
}
