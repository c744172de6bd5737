//! Telemetry and attribution sink for the experiment harness.
//!
//! When any of `--stats-json`, `--trace`, `--series-csv` or
//! `--series-summary` is passed to `asm-experiments`, every workload run
//! is instrumented (see [`asm_core::RunOptions`]) and its
//! [`RunTelemetry`] snapshot is collected here. Likewise `--attrib`,
//! `--attrib-csv` and `--blame-json` turn on the ground-truth
//! cycle-attribution ledger (DESIGN.md §13) and collect each run's
//! [`RunAttribution`]. Recording happens on the caller's thread
//! **after** the parallel pool returns, in submission order, so every
//! artefact this module writes is byte-identical for any `--jobs` value
//! — the same invariant the tables already satisfy.
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

/// Which telemetry/attribution artefacts the CLI asked for.
#[derive(Debug, Clone, Default)]
pub struct SinkConfig {
    /// `--stats-json FILE`: merged counter/series/latency snapshot.
    pub stats_json: Option<PathBuf>,
    /// `--trace FILE`: Chrome trace-event JSON for the first workload.
    pub trace: Option<PathBuf>,
    /// `--series-csv DIR`: one long-format CSV per workload.
    pub series_csv: Option<PathBuf>,
    /// `--series-summary`: print per-series sparklines to stdout.
    pub series_summary: bool,
    /// `--attrib`: print per-workload attribution summaries to stdout.
    pub attrib: bool,
    /// `--attrib-csv FILE`: long-format per-quantum ledger CSV.
    pub attrib_csv: Option<PathBuf>,
    /// `--blame-json FILE`: per-workload blame matrices and totals.
    pub blame_json: Option<PathBuf>,
}

impl SinkConfig {
    /// Whether any artefact was requested.
    #[must_use]
    pub fn any(&self) -> bool {
        self.telemetry() || self.attribution()
    }

    /// Whether any *telemetry* artefact was requested (instruments runs
    /// with counters/series/traces).
    #[must_use]
    pub fn telemetry(&self) -> bool {
        self.stats_json.is_some()
            || self.trace.is_some()
            || self.series_csv.is_some()
            || self.series_summary
    }

    /// Whether any *attribution* artefact was requested (turns on the
    /// conservation-checked cycle ledger).
    #[must_use]
    pub fn attribution(&self) -> bool {
        self.attrib || self.attrib_csv.is_some() || self.blame_json.is_some()
    }
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

fn with_telemetry(records: &[Record]) -> impl Iterator<Item = (&Record, &RunTelemetry)> {
    records.iter().filter_map(|r| Some((r, r.telemetry.as_ref()?)))
}

fn with_attribution(records: &[Record]) -> impl Iterator<Item = (&Record, &RunAttribution)> {
    records.iter().filter_map(|r| Some((r, r.attribution.as_ref()?)))
}

impl Session {
    /// The run options the next campaign should simulate under: telemetry
    /// and attribution on exactly when such an artefact was requested (a
    /// config requesting nothing leaves every run uninstrumented).
    /// `--trace` writes one run's trace — the first recorded — so request
    /// tracing is asked for only while nothing has been recorded, and
    /// [`crate::plan::run_campaign_counted`] applies it to the campaign's
    /// first member alone.
    #[must_use]
    pub fn run_options(&self) -> RunOptions {
        let cfg = &self.cfg.sink;
        let unclaimed = cfg.trace.is_some() && self.records.lock().expect("sink poisoned").is_empty();
        RunOptions {
            telemetry: cfg.telemetry(),
            trace_sample: unclaimed.then_some(TRACE_SAMPLE),
            attrib: cfg.attribution(),
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
        if !cfg.any() {
            return;
        }
        let records = std::mem::take(&mut *self.records.lock().expect("sink poisoned"));
        if cfg.telemetry() && with_telemetry(&records).next().is_none()
            || cfg.attribution() && with_attribution(&records).next().is_none()
        {
            // Some experiments (fig1, workloads) never route a run through
            // the Runner; the artefacts are still written, just empty.
            eprintln!("[telemetry] no instrumented runs recorded");
        }
        if cfg.series_summary {
            for (r, t) in with_telemetry(&records) {
                print_series_summary(&r.label, t);
            }
        }
        if let Some(path) = &cfg.stats_json {
            report(path, std::fs::write(path, stats_json(&records).to_json_pretty()));
        }
        if let Some(path) = &cfg.trace {
            // One workload's trace is viewable; all of them concatenated
            // are not (perfetto expects a single timeline). The first
            // recorded run is the one that traced ([`Session::run_options`]).
            let json = with_telemetry(&records).next().map_or_else(
                || asm_telemetry::Tracer::off().to_json(),
                |(_, t)| t.tracer.to_json(),
            );
            report(path, std::fs::write(path, json));
        }
        if let Some(dir) = &cfg.series_csv {
            let write_all = || -> std::io::Result<()> {
                std::fs::create_dir_all(dir)?;
                for (r, t) in with_telemetry(&records) {
                    let path = dir.join(format!("{}.csv", sanitize(&r.label)));
                    std::fs::write(&path, series_csv(t))?;
                }
                Ok(())
            };
            report(dir, write_all());
        }
        if cfg.attrib {
            for (r, a) in with_attribution(&records) {
                print_attrib_summary(r, a);
            }
        }
        if let Some(path) = &cfg.attrib_csv {
            report(path, std::fs::write(path, attrib_csv(&records)));
        }
        if let Some(path) = &cfg.blame_json {
            report(path, std::fs::write(path, blame_json(&records).to_json_pretty()));
        }
    }
}

fn report<T>(path: &Path, r: std::io::Result<T>) {
    match r {
        Ok(_) => eprintln!("[telemetry] wrote {}", path.display()),
        Err(e) => eprintln!("[telemetry] failed to write {}: {e}", path.display()),
    }
}

/// `label` → a safe file stem (alphanumerics kept, the rest become `_`).
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The `--stats-json` document: schema tag plus one object per workload
/// with sorted counters, the DRAM read-latency quantiles and a summary of
/// every recorded series.
fn stats_json(records: &[Record]) -> JsonValue {
    let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
    let workloads = with_telemetry(records)
        .map(|(r, t)| {
            let mut counters: Vec<(String, JsonValue)> = t
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), JsonValue::num_u64(*v)))
                .collect();
            counters.sort_by(|a, b| a.0.cmp(&b.0));

            let h = &t.mem_latency_hist;
            let latency = JsonValue::Obj(vec![
                ("samples".into(), JsonValue::num_u64(h.total())),
                ("mean".into(), opt(h.mean())),
                ("p50".into(), opt(h.p50())),
                ("p95".into(), opt(h.p95())),
                ("p99".into(), opt(h.p99())),
            ]);

            let series = t
                .series
                .iter()
                .map(|(name, samples)| {
                    let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
                    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let summary = JsonValue::Obj(vec![
                        ("count".into(), JsonValue::num_u64(samples.len() as u64)),
                        // Series are derived whole; kept for `asm-telemetry v1`.
                        ("dropped".into(), JsonValue::num_u64(0)),
                        ("min".into(), opt(lo.is_finite().then_some(lo))),
                        ("max".into(), opt(hi.is_finite().then_some(hi))),
                        ("last".into(), opt(values.last().copied())),
                    ]);
                    (name.to_owned(), summary)
                })
                .collect();

            JsonValue::Obj(vec![
                ("label".into(), JsonValue::str(&r.label)),
                ("counters".into(), JsonValue::Obj(counters)),
                ("dram_read_latency".into(), latency),
                ("series".into(), JsonValue::Obj(series)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str("asm-telemetry v1")),
        ("workloads".into(), JsonValue::Arr(workloads)),
    ])
}

/// Long-format CSV (`series,cycle,value`) of every sample of every
/// series, in the view's then chronological order.
fn series_csv(t: &RunTelemetry) -> String {
    let mut out = String::from("series,cycle,value\n");
    for (name, samples) in t.series.iter() {
        for (cycle, value) in samples {
            use std::fmt::Write as _;
            let _ = writeln!(out, "{name},{cycle},{value}");
        }
    }
    out
}

/// One stdout block per workload: a sparkline and range per series.
/// Deterministic for any `--jobs` (records arrive in submission order).
fn print_series_summary(label: &str, t: &RunTelemetry) {
    println!("\ntelemetry series ({label}):");
    let width = t.series.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, samples) in t.series.iter() {
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        if values.is_empty() {
            println!("  {name:<width$}  (no samples)");
            continue;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {name:<width$}  {} min {lo:.3} max {hi:.3} last {:.3} ({} samples)",
            asm_metrics::sparkline(&values),
            values.last().copied().unwrap_or(f64::NAN),
            values.len(),
        );
    }
}

/// One stdout block per workload under `--attrib`: each app's whole-run
/// component decomposition (percent of run cycles) and its blame row.
/// Deterministic for any `--jobs` (records arrive in submission order).
fn print_attrib_summary(r: &Record, attrib: &RunAttribution) {
    let n = r.apps.len();
    println!("\ncycle attribution ({}):", r.label);
    let run_cycles: u64 = attrib.quanta.iter().map(|q| q.end - q.start).sum();
    if run_cycles == 0 {
        println!("  (no finalized quanta)");
        return;
    }
    let pct = |c: u64| 100.0 * c as f64 / run_cycles as f64;
    for (v, app) in r.apps.iter().enumerate() {
        println!("  app{v} {app} ({} quanta, {run_cycles} cycles):", attrib.quanta.len());
        for (k, comp) in Component::ALL.iter().enumerate() {
            let c = attrib.totals[v * COMPONENTS + k];
            if c > 0 {
                let tag = if comp.is_interference() { " [interference]" } else { "" };
                println!("    {:<18} {c:>12}  {:6.2}%{tag}", comp.name(), pct(c));
            }
        }
        let row: Vec<String> = (0..n)
            .map(|o| format!("app{o}={}", attrib.blame[v * n + o]))
            .collect();
        println!("    blame row: {}", row.join(" "));
    }
}

/// The `--attrib-csv` document: one long-format row per
/// (workload, quantum, app, component) with non-zero cycles, followed by
/// `blame.appN` pseudo-components carrying the off-diagonal blame matrix.
/// Quanta are identified by their end cycle.
fn attrib_csv(records: &[Record]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workload,quantum_end,app,component,cycles\n");
    for (r, attrib) in with_attribution(records) {
        let n = r.apps.len();
        for q in &attrib.quanta {
            for v in 0..n {
                for comp in Component::ALL {
                    let c = q.component(v, comp);
                    if c > 0 {
                        let _ = writeln!(out, "{},{},app{v},{},{c}", r.label, q.end, comp.name());
                    }
                }
                for o in 0..n {
                    let c = q.blamed(v, o);
                    if o != v && c > 0 {
                        let _ = writeln!(out, "{},{},app{v},blame.app{o},{c}", r.label, q.end);
                    }
                }
            }
        }
    }
    out
}

/// The `--blame-json` document: schema tag plus one object per workload
/// with the app list, whole-run component totals, the whole-run blame
/// matrix, and every quantum's blame matrix (victim-major rows).
fn blame_json(records: &[Record]) -> JsonValue {
    let nums = |row: &[u64]| JsonValue::Arr(row.iter().map(|&c| JsonValue::num_u64(c)).collect());
    let matrix = |blame: &[u64], n: usize| JsonValue::Arr(blame.chunks(n).map(nums).collect());
    let workloads = with_attribution(records)
        .map(|(r, attrib)| {
            let n = r.apps.len();
            let apps = JsonValue::Arr(r.apps.iter().map(|a| JsonValue::str(a)).collect());
            let by_component = |totals: &[u64]| {
                let named = Component::ALL.iter().zip(totals);
                JsonValue::Obj(named.map(|(c, &t)| (c.name().to_owned(), JsonValue::num_u64(t))).collect())
            };
            let totals = JsonValue::Arr(attrib.totals.chunks(COMPONENTS).map(by_component).collect());
            let quanta = JsonValue::Arr(
                attrib
                    .quanta
                    .iter()
                    .map(|q| {
                        JsonValue::Obj(vec![
                            ("start".into(), JsonValue::num_u64(q.start)),
                            ("end".into(), JsonValue::num_u64(q.end)),
                            ("blame".into(), matrix(&q.blame, n)),
                        ])
                    })
                    .collect(),
            );
            JsonValue::Obj(vec![
                ("label".into(), JsonValue::str(&r.label)),
                ("apps".into(), apps),
                ("component_totals".into(), totals),
                ("blame_totals".into(), matrix(&attrib.blame, n)),
                ("quanta".into(), quanta),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str("asm-attrib v1")),
        ("workloads".into(), JsonValue::Arr(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_only_alphanumerics() {
        assert_eq!(sanitize("w003 mcf_like+lbm_like"), "w003_mcf_like_lbm_like");
    }

    /// The records of a session that observed `result`.
    fn recorded(result: &RunResult) -> Vec<Record> {
        let session = Session::default();
        session.record(std::slice::from_ref(result));
        session.records.into_inner().unwrap()
    }

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
        session.cfg.sink.blame_json = Some("b.json".into());
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

    #[test]
    fn stats_json_shape_round_trips() {
        let runner = asm_core::Runner::new({
            let mut c = asm_core::SystemConfig::default();
            c.quantum = 50_000;
            c.epoch = 1_000;
            c
        });
        let apps = vec![
            asm_workloads::suite::by_name("mcf_like").unwrap(),
            asm_workloads::suite::by_name("h264ref_like").unwrap(),
        ];
        let opts = RunOptions {
            telemetry: true,
            trace_sample: Some(TRACE_SAMPLE),
            attrib: false,
        };
        let records = recorded(&runner.run_with(&apps, 100_000, opts));
        assert_eq!(records[0].label, "w000 mcf_like+h264ref_like");

        let text = stats_json(&records).to_json_pretty();
        let parsed = asm_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("asm-telemetry v1")
        );
        let w = parsed
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads array");
        assert_eq!(w.len(), 1);
        let counters = w[0].get("counters").expect("counters");
        assert!(counters.get("llc.app0.hits").is_some());
        assert!(w[0]
            .get("dram_read_latency")
            .and_then(|l| l.get("p95"))
            .is_some());

        let csv = series_csv(records[0].telemetry.as_ref().expect("telemetry"));
        assert!(csv.starts_with("series,cycle,value\n"));
        assert!(csv.contains("app0.est_slowdown,50000,"));
    }

    #[test]
    fn attrib_artefacts_round_trip() {
        let runner = asm_core::Runner::new({
            let mut c = asm_core::SystemConfig::default();
            c.quantum = 50_000;
            c.epoch = 1_000;
            c
        });
        let apps = vec![
            asm_workloads::suite::by_name("mcf_like").unwrap(),
            asm_workloads::suite::by_name("h264ref_like").unwrap(),
        ];
        let opts = RunOptions {
            telemetry: false,
            trace_sample: None,
            attrib: true,
        };
        let records = recorded(&runner.run_with(&apps, 100_000, opts));
        let attrib = records[0].attribution.as_ref().expect("attribution");

        let csv = attrib_csv(&records);
        assert!(csv.starts_with("workload,quantum_end,app,component,cycles\n"));
        assert!(csv.contains(",50000,app0,compute,"));

        let text = blame_json(&records).to_json_pretty();
        let parsed = asm_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("asm-attrib v1")
        );
        let w = parsed
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads array");
        assert_eq!(w.len(), 1);
        let blame = w[0]
            .get("blame_totals")
            .and_then(JsonValue::as_arr)
            .expect("blame matrix");
        assert_eq!(blame.len(), 2);
        // Each whole-run blame row sums to the run's attributed cycles.
        let run_cycles: u64 = attrib.quanta.iter().map(|q| q.end - q.start).sum();
        for v in 0..2 {
            let row: u64 = (0..2).map(|o| attrib.blame[v * 2 + o]).sum();
            assert_eq!(row, run_cycles, "blame row {v} does not conserve");
        }
    }
}
