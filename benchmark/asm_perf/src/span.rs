//! Span recorder for the traced pass: one span around every call the
//! benchmark makes into a simulator layer, kept in memory and written out
//! as a Chrome trace-event file when the run ends.
//!
//! The spans are recorded from this side of the layer boundary. Spans
//! inside the simulator are a later change (ROADMAP item 2a).

use std::time::Instant;

use crate::json;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// Position, in the recorder's list, of the span that was open when
    /// this one started. A span's own position is its id in the trace.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed repetition the span belongs to; `None` outside repetitions
    /// (set-up, warm-up, layer kernels).
    pub rep: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled `span` only calls through,
/// so the untraced pass pays nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: None,
        }
    }

    /// Tags the spans recorded from now on with a repetition index.
    pub fn set_rep(&mut self, rep: Option<usize>) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, child of whichever span is
    /// open. `f` gets the recorder back so it can open child spans.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`, oldest first.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The trace as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps, with the span
    /// id, its parent, the repetition and the self time under `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let selfs = self_times_ns(&self.spans);
        let events: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
                json::object(&[
                    ("name", json::string(&s.name)),
                    ("cat", json::string(layer_of(&s.name))),
                    ("ph", json::string("X")),
                    ("ts", json::number(s.start_ns as f64 / 1e3)),
                    ("dur", json::number(s.duration_ns() as f64 / 1e3)),
                    ("pid", "1".to_owned()),
                    ("tid", "1".to_owned()),
                    (
                        "args",
                        json::object(&[
                            ("id", id.to_string()),
                            ("parent", opt(s.parent)),
                            ("workload", json::string(workload)),
                            ("rep", opt(s.rep)),
                            ("self_us", json::number(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        json::object(&[
            ("displayTimeUnit", json::string("ms")),
            ("traceEvents", format!("[\n{}\n]", events.join(",\n"))),
        ])
    }
}

/// The layer a span name belongs to: everything before the last `.`
/// (`core.system.run_for` → `core.system`).
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so the result holds for any
/// span list whose `parent` fields are positions in it, not only the
/// strictly nested ones a single thread records.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "layer.call".to_owned(),
            parent,
            start_ns,
            end_ns,
            rep: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child
            span(Some(1), 15, 25),  // grandchild: charged to 1, not 0
            span(Some(0), 50, 70),  // sibling of 1
            span(Some(0), 60, 80),  // overlaps 3: union is 50..80
            span(Some(0), 90, 120), // runs past the parent: clipped
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 30 - 10, 20, 10, 20, 20, 30]
        );
    }

    #[test]
    fn self_time_of_leaf_and_empty_set() {
        assert_eq!(self_times_ns(&[span(None, 5, 9)]), vec![4]);
        assert!(self_times_ns(&[]).is_empty());
    }

    #[test]
    fn recorder_nests_and_tags_repetitions() {
        let mut rec = Recorder::new(true);
        rec.span("a.outer", |rec| {
            rec.set_rep(Some(2));
            rec.span("a.inner", |_| ());
            rec.set_rep(None);
        });
        rec.span("b.next", |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].rep, s[1].rep), (None, Some(2)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.seconds("a.inner").len(), 1);
        assert!(rec.seconds("a.missing").is_empty());
    }

    #[test]
    fn disabled_recorder_only_calls_through() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x.y", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_names_layers_and_parents() {
        let mut rec = Recorder::new(true);
        rec.span("core.system.run_for", |rec| rec.span("dram.tick", |_| ()));
        let doc = rec.chrome_trace("mem_skip");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"cat\": \"core.system\""));
        assert!(doc.contains("\"parent\": 0"));
        assert!(doc.contains("\"workload\": \"mem_skip\""));
        assert_eq!(layer_of("dram.tick"), "dram");
        assert_eq!(layer_of("bare"), "bare");
    }
}
