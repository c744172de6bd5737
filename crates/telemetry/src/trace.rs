//! Sim-time event tracer emitting Chrome trace-event JSON.
//!
//! Events are timestamped in simulation cycles, reported to the viewer as
//! microseconds (`ts`/`dur` fields) — one cycle renders as one µs in
//! Perfetto or `chrome://tracing`, so relative durations read correctly
//! and determinism is preserved (no wall clock anywhere; asm-lint R4).
//!
//! Two event shapes cover everything the simulator emits:
//!
//! - *instant* events (`ph: "i"`) for point decisions — epoch owner picks,
//!   cache repartitions, quantum boundaries;
//! - *complete* events (`ph: "X"`) for spans — per-quantum summaries and
//!   (optionally 1-in-N sampled) memory request lifecycles.

use crate::json::JsonValue;

/// One Chrome trace-event record.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: &'static str,
    /// Category tag, e.g. `"sched"`, `"quantum"`, `"mem"`.
    pub cat: &'static str,
    /// Phase: `'i'` instant or `'X'` complete.
    pub ph: char,
    /// Start timestamp in simulation cycles (rendered as µs).
    pub ts: u64,
    /// Duration in cycles; only meaningful for `'X'` events.
    pub dur: u64,
    /// Process id lane; the simulator uses 0 for the system.
    pub pid: u64,
    /// Thread id lane; the simulator uses the app/core index.
    pub tid: u64,
    /// Extra key/value payload shown in the event details pane.
    pub args: Vec<(&'static str, JsonValue)>,
}

impl TraceEvent {
    fn to_json(&self) -> JsonValue {
        let mut members = vec![
            ("name".to_owned(), JsonValue::str(self.name)),
            ("cat".to_owned(), JsonValue::str(self.cat)),
            ("ph".to_owned(), JsonValue::str(self.ph.to_string())),
            ("ts".to_owned(), JsonValue::num_u64(self.ts)),
        ];
        if self.ph == 'X' {
            members.push(("dur".to_owned(), JsonValue::num_u64(self.dur)));
        }
        members.push(("pid".to_owned(), JsonValue::num_u64(self.pid)));
        members.push(("tid".to_owned(), JsonValue::num_u64(self.tid)));
        if !self.args.is_empty() {
            let args = self.args.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
            members.push(("args".to_owned(), JsonValue::Obj(args)));
        }
        JsonValue::Obj(members)
    }
}

/// Collects [`TraceEvent`]s up to a fixed limit and serialises them as a
/// Chrome trace-event JSON document.
///
/// # Examples
///
/// ```
/// use asm_telemetry::Tracer;
/// let mut t = Tracer::new(1);
/// t.instant("epoch_owner", "sched", 10_000, 0, vec![]);
/// let doc = asm_telemetry::json::parse(&t.to_json()).expect("valid JSON");
/// assert_eq!(doc.get("traceEvents").and_then(|v| v.as_arr()).map(<[_]>::len), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    /// Keep request lifecycles whose id is `0 (mod sample)`.
    sample: u64,
    limit: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            sample: 0,
            limit: 0,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// A live tracer keeping request lifecycles sampled 1-in-`sample`
    /// (by request id; 1 keeps every request) and buffering up to
    /// [`crate::DEFAULT_TRACE_LIMIT`] events.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is zero.
    #[must_use]
    pub fn new(sample: u64) -> Self {
        Self::with_limit(sample, crate::DEFAULT_TRACE_LIMIT)
    }

    /// Like [`Tracer::new`] with an explicit event cap.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is zero.
    #[must_use]
    pub fn with_limit(sample: u64, limit: usize) -> Self {
        assert!(sample > 0, "trace sample period must be positive");
        Tracer {
            enabled: true,
            sample,
            limit,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether this tracer records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the request with this id should get a lifecycle event
    /// (cheap modulo check for probe sites to gate span construction on).
    #[must_use]
    pub fn sample_request(&self, id: u64) -> bool {
        self.enabled && id % self.sample == 0
    }

    fn push(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// Records an instant event.
    pub fn instant(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        tid: u64,
        args: Vec<(&'static str, JsonValue)>,
    ) {
        self.push(TraceEvent {
            name,
            cat,
            ph: 'i',
            ts,
            dur: 0,
            pid: 0,
            tid,
            args,
        });
    }

    /// Records a complete (span) event covering `[ts, ts + dur)`.
    // asm-lint: allow(R9): opt-in trace recording — callers gate on
    // `is_enabled`/`sample_request`; the only allocation left is the
    // event buffer growing by doubling, for requests actually traced
    pub fn complete(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        tid: u64,
        args: Vec<(&'static str, JsonValue)>,
    ) {
        self.push(TraceEvent {
            name,
            cat,
            ph: 'X',
            ts,
            dur,
            pid: 0,
            tid,
            args,
        });
    }

    /// The buffered events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the Chrome trace-event document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms", ...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let events: Vec<JsonValue> = self.events.iter().map(TraceEvent::to_json).collect();
        let mut members = vec![
            ("traceEvents".to_owned(), JsonValue::Arr(events)),
            ("displayTimeUnit".to_owned(), JsonValue::str("ms")),
            (
                "otherData".to_owned(),
                JsonValue::Obj(vec![
                    ("clock".to_owned(), JsonValue::str("sim_cycles_as_us")),
                    ("dropped".to_owned(), JsonValue::num_u64(self.dropped)),
                ]),
            ),
        ];
        if !self.enabled {
            members.truncate(1);
        }
        JsonValue::Obj(members).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn instant_and_complete_events_render_chrome_schema() {
        let mut t = Tracer::new(1);
        t.instant(
            "epoch_owner",
            "sched",
            1000,
            2,
            vec![("owner", JsonValue::num_u64(2))],
        );
        t.complete("req", "mem", 500, 120, 1, vec![]);
        let doc = json::parse(&t.to_json()).expect("tracer output parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("has traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(JsonValue::as_str), Some("i"));
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_num), Some(1000.0));
        assert_eq!(events[1].get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(JsonValue::as_num), Some(120.0));
    }

    #[test]
    fn sampling_keeps_one_in_n_request_ids() {
        let t = Tracer::new(4);
        let kept: Vec<u64> = (0..10).filter(|&id| t.sample_request(id)).collect();
        assert_eq!(kept, vec![0, 4, 8]);
        assert!(!Tracer::off().sample_request(0));
    }

    #[test]
    fn limit_counts_dropped_events() {
        let mut t = Tracer::with_limit(1, 2);
        for i in 0..5 {
            t.instant("e", "sched", i, 0, vec![]);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped, 3);
        let doc = json::parse(&t.to_json()).expect("parses");
        let dropped = doc
            .get("otherData")
            .and_then(|o| o.get("dropped"))
            .and_then(JsonValue::as_num);
        assert_eq!(dropped, Some(3.0));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_emits_empty_doc() {
        let mut t = Tracer::off();
        t.instant("e", "sched", 0, 0, vec![]);
        t.complete("e", "mem", 0, 1, 0, vec![]);
        assert!(t.events().is_empty());
        assert_eq!(t.to_json(), r#"{"traceEvents":[]}"#);
    }
}
