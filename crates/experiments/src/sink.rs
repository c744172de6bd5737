//! The harness's two artefacts: the run report and the trace.
//!
//! `--report FILE` instruments every workload run with telemetry (see
//! [`asm_core::RunOptions`]) and the ground-truth cycle-attribution
//! ledger (DESIGN.md §13), collects each run's [`RunTelemetry`] and
//! [`RunAttribution`] here, and writes them as one JSON document, schema
//! [`REPORT_SCHEMA`]. `--trace FILE` writes the first recorded run's
//! Chrome trace-event JSON. Recording happens on the caller's thread
//! **after** the parallel pool returns, in submission order, so both
//! artefacts are byte-identical for any `--jobs` value — the same
//! invariant the tables already satisfy.
//!
//! The record list belongs to the [`Session`]; nothing here is
//! process-global.

use std::path::{Path, PathBuf};

use asm_core::{Component, RunAttribution, RunOptions, RunResult, RunTelemetry, COMPONENTS};
use asm_telemetry::JsonValue;

use crate::session::Session;

/// 1-in-N request sampling for `--trace` memory-lifecycle events.
/// Scheduler events (epochs, quanta, repartitions) are never sampled out.
pub const TRACE_SAMPLE: u64 = 64;

/// The `schema` tag of the `--report` document.
pub const REPORT_SCHEMA: &str = "asm-report/1";

/// Which artefacts the CLI asked for.
#[derive(Debug, Clone, Default)]
pub struct SinkConfig {
    /// `--report FILE`: the run report.
    pub report: Option<PathBuf>,
    /// `--trace FILE`: Chrome trace-event JSON for the first workload.
    pub trace: Option<PathBuf>,
}

/// One recorded run, in submission order, with whichever artefacts it
/// carried.
#[derive(Debug)]
pub(crate) struct Record {
    label: String,
    apps: Vec<String>,
    telemetry: Option<RunTelemetry>,
    attribution: Option<RunAttribution>,
}

impl Session {
    /// The run options the next campaign should simulate under: telemetry
    /// on for either artefact, attribution on for the report (a config
    /// requesting nothing leaves every run uninstrumented). `--trace`
    /// writes one run's trace — the first recorded — so request tracing
    /// is asked for only while nothing has been recorded, and
    /// [`crate::plan::run_campaign_counted`] applies it to the campaign's
    /// first member alone.
    #[must_use]
    pub fn run_options(&self) -> RunOptions {
        let cfg = &self.cfg.sink;
        let unclaimed = cfg.trace.is_some() && self.records.lock().expect("sink poisoned").is_empty();
        RunOptions {
            telemetry: cfg.report.is_some() || cfg.trace.is_some(),
            trace_sample: unclaimed.then_some(TRACE_SAMPLE),
            attrib: cfg.report.is_some(),
        }
    }

    /// Collects each run's telemetry and/or attribution. Call in
    /// workload-submission order (the label embeds the arrival index); a
    /// run carrying neither artefact is skipped.
    pub fn record(&self, results: &[RunResult]) {
        let mut records = self.records.lock().expect("sink poisoned");
        for result in results {
            if result.telemetry.is_some() || result.attribution.is_some() {
                let label = format!("w{:03} {}", records.len(), result.app_names.join("+"));
                records.push(Record {
                    label,
                    apps: result.app_names.clone(),
                    telemetry: result.telemetry.clone(),
                    attribution: result.attribution.clone(),
                });
            }
        }
    }

    /// Writes every requested artefact. Called once at the end of the CLI
    /// run; I/O failures are reported to stderr but never abort (matching
    /// the CSV exporter).
    pub(crate) fn write_artefacts(&self) {
        let cfg = &self.cfg.sink;
        if cfg.report.is_none() && cfg.trace.is_none() {
            return;
        }
        let records = std::mem::take(&mut *self.records.lock().expect("sink poisoned"));
        if records.is_empty() {
            // Some experiments (fig1, workloads) never route a run through
            // the Runner; the artefacts are still written, just empty.
            eprintln!("[telemetry] no instrumented runs recorded");
        }
        if let Some(path) = &cfg.report {
            wrote(path, std::fs::write(path, run_report(&records).to_json_pretty()));
        }
        if let Some(path) = &cfg.trace {
            // One workload's trace is viewable; all of them concatenated
            // are not (perfetto expects a single timeline). The first
            // recorded run is the one that traced ([`Session::run_options`]).
            let json = records.iter().find_map(|r| r.telemetry.as_ref()).map_or_else(
                || asm_telemetry::Tracer::off().to_json(),
                |t| t.tracer.to_json(),
            );
            wrote(path, std::fs::write(path, json));
        }
    }
}

fn wrote<T>(path: &Path, r: std::io::Result<T>) {
    match r {
        Ok(_) => eprintln!("[telemetry] wrote {}", path.display()),
        Err(e) => eprintln!("[telemetry] failed to write {}: {e}", path.display()),
    }
}

/// The `--report` document: the schema tag, the ledger's component names
/// (the column order of every `cycles` and `component_totals` row), and
/// one entry per recorded run with its label and apps; the view's sorted
/// counters, DRAM read-latency quantiles and every series sample as
/// `[cycle, value]`; and its ledger — per quantum the app × component
/// cycles and the victim × offender blame, plus whole-run totals of both.
/// A non-finite value is written as `null`.
fn run_report(records: &[Record]) -> JsonValue {
    let num = JsonValue::num_u64;
    let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
    let matrix = |cells: &[u64], width: usize| {
        let row = |r: &[u64]| JsonValue::Arr(r.iter().map(|&c| num(c)).collect());
        JsonValue::Arr(cells.chunks(width).map(row).collect())
    };
    let runs = records.iter().map(|r| {
        let mut entry = vec![
            ("label".into(), JsonValue::str(&r.label)),
            ("apps".into(), JsonValue::Arr(r.apps.iter().map(JsonValue::str).collect())),
        ];
        if let Some(t) = &r.telemetry {
            // The view renders its counters sorted by name.
            let counters = t.counters.iter().map(|(n, v)| (n.clone(), num(*v)));
            let h = &t.mem_latency_hist;
            let latency = vec![
                ("samples".into(), num(h.total())),
                ("mean".into(), opt(h.mean())),
                ("p50".into(), opt(h.p50())),
                ("p95".into(), opt(h.p95())),
                ("p99".into(), opt(h.p99())),
            ];
            let series = t.series.iter().map(|(name, samples)| {
                let points = samples.iter().map(|&(c, v)| JsonValue::Arr(vec![num(c), JsonValue::Num(v)]));
                (name.to_owned(), JsonValue::Arr(points.collect()))
            });
            entry.push(("counters".into(), JsonValue::Obj(counters.collect())));
            entry.push(("dram_read_latency".into(), JsonValue::Obj(latency)));
            entry.push(("series".into(), JsonValue::Obj(series.collect())));
        }
        if let Some(a) = &r.attribution {
            let n = r.apps.len();
            let quanta = a.quanta.iter().map(|q| {
                JsonValue::Obj(vec![
                    ("start".into(), num(q.start)),
                    ("end".into(), num(q.end)),
                    ("cycles".into(), matrix(&q.ledger, COMPONENTS)),
                    ("blame".into(), matrix(&q.blame, n)),
                ])
            });
            entry.push((
                "attribution".into(),
                JsonValue::Obj(vec![
                    ("quanta".into(), JsonValue::Arr(quanta.collect())),
                    ("component_totals".into(), matrix(&a.totals, COMPONENTS)),
                    ("blame_totals".into(), matrix(&a.blame, n)),
                ]),
            ));
        }
        JsonValue::Obj(entry)
    });
    let components = Component::ALL.iter().map(|c| JsonValue::str(c.name()));
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str(REPORT_SCHEMA)),
        ("components".into(), JsonValue::Arr(components.collect())),
        ("runs".into(), JsonValue::Arr(runs.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_sink_yields_default_options() {
        let o = Session::default().run_options();
        assert!(!o.telemetry);
        assert!(o.trace_sample.is_none());
        assert!(!o.attrib);
    }

    #[test]
    fn trace_is_asked_of_the_first_recorded_run_only() {
        let mut session = Session::default();
        session.cfg.sink.trace = Some("t.json".into());
        session.cfg.sink.report = Some("r.json".into());
        let first = session.run_options();
        assert_eq!((first.telemetry, first.trace_sample, first.attrib), (true, Some(TRACE_SAMPLE), true));
        // A run with nothing to record claims nothing.
        session.record(&[RunResult::default()]);
        assert_eq!(session.run_options().trace_sample, Some(TRACE_SAMPLE));
        let mut run = RunResult::default();
        run.app_names = vec!["a".into(), "b".into()];
        run.attribution = Some(RunAttribution {
            quanta: Vec::new(),
            totals: Vec::new(),
            blame: Vec::new(),
        });
        session.record(&[run.clone(), run]);
        let later = session.run_options();
        assert_eq!((later.telemetry, later.trace_sample, later.attrib), (true, None, true));
        let labels: Vec<String> = session.records.into_inner().unwrap().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["w000 a+b", "w001 a+b"]);
    }

    /// The parsed report of one instrumented two-app run of 100k cycles
    /// (two 50k-cycle quanta), after checking that serialise → parse →
    /// serialise is a fixed point.
    fn two_app_report() -> JsonValue {
        let runner = asm_core::Runner::new({
            let mut c = asm_core::SystemConfig::default();
            c.quantum = 50_000;
            c.epoch = 1_000;
            c
        });
        let apps = vec![
            asm_workloads::suite::by_name("mcf_like").expect("suite profile"),
            asm_workloads::suite::by_name("h264ref_like").expect("suite profile"),
        ];
        let opts = RunOptions {
            telemetry: true,
            trace_sample: Some(TRACE_SAMPLE),
            attrib: true,
        };
        let session = Session::default();
        session.record(&[runner.run_with(&apps, 100_000, opts)]);
        let records = session.records.into_inner().expect("sink not poisoned");

        let text = run_report(&records).to_json_pretty();
        let doc = asm_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(asm_telemetry::json::parse(&doc.to_json()).expect("reparses").to_json(), doc.to_json());
        doc
    }

    /// The report's single run entry.
    fn only_run(doc: &JsonValue) -> &JsonValue {
        let runs = doc.get("runs").and_then(JsonValue::as_arr).expect("runs array");
        assert_eq!(runs.len(), 1);
        &runs[0]
    }

    #[test]
    fn stats_json_shape_round_trips() {
        let doc = two_app_report();
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(REPORT_SCHEMA));
        let components: Vec<&str> =
            doc.get("components").and_then(JsonValue::as_arr).expect("components").iter().filter_map(JsonValue::as_str).collect();
        assert_eq!(components, Component::ALL.map(Component::name));
        let run = only_run(&doc);
        assert_eq!(run.get("label").and_then(JsonValue::as_str), Some("w000 mcf_like+h264ref_like"));
        assert!(run.get("counters").and_then(|c| c.get("llc.app0.hits")).is_some());
        assert!(run.get("dram_read_latency").and_then(|l| l.get("p95")).is_some());
        let est = run.get("series").and_then(|s| s.get("app0.est_slowdown")).and_then(JsonValue::as_arr);
        let first = est.expect("est_slowdown series")[0].as_arr().expect("[cycle, value]");
        assert_eq!(first[0].as_num(), Some(50_000.0));
    }

    #[test]
    fn attrib_artefacts_round_trip() {
        let doc = two_app_report();
        let run = only_run(&doc);
        // Every ledger row of every quantum, and every whole-run blame
        // row, sums to the cycles it covers.
        let num = |v: &JsonValue| v.as_num().expect("number") as u64;
        let rows = |m: &JsonValue| -> Vec<u64> {
            let m = m.as_arr().expect("matrix");
            m.iter().map(|row| row.as_arr().expect("row").iter().map(num).sum()).collect()
        };
        let attribution = run.get("attribution").expect("attribution section");
        let quanta = attribution.get("quanta").and_then(JsonValue::as_arr).expect("quanta");
        assert_eq!(quanta.len(), 2);
        for q in quanta {
            let len = num(q.get("end").expect("end")) - num(q.get("start").expect("start"));
            assert_eq!(rows(q.get("cycles").expect("cycles")), [len, len]);
            assert_eq!(rows(q.get("blame").expect("blame")), [len, len]);
        }
        assert_eq!(rows(attribution.get("blame_totals").expect("blame totals")), [100_000, 100_000]);
        assert_eq!(rows(attribution.get("component_totals").expect("totals")), [100_000, 100_000]);
    }
}
