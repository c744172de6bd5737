//! The instruments riding one system, and the telemetry view.
//!
//! Two instruments record something the simulator would not otherwise
//! keep: the sim-time tracer (switched by `enable_telemetry`) and the
//! ground-truth attribution ledger (`enable_attribution`). Everything
//! else telemetry reports is a *view*, rendered once by
//! [`Probes::take_telemetry`] from state that exists for every run: the
//! quantum records, the lifetime shared-cache totals, the component
//! gauges, and the two always-on tallies kept here (cross-application
//! evictions caused, demand-read latency buckets). The ledger is not part
//! of the view: it reaches callers once, through
//! [`System::attrib_quanta`](super::System::attrib_quanta) and its totals.
//!
//! The memory path and the boundary report events unconditionally; an
//! event whose instrument is off costs one predictable `None` branch — so
//! switching an instrument on cannot change simulated behaviour (pinned
//! by the differential tests).

use asm_attrib::{MemEpisode, RunAttrib};
use asm_cpu::Core;
use asm_dram::{Completion, MemorySystem};
use asm_simcore::{AppId, Cycle, Histogram};
use asm_telemetry::{names, JsonValue, SeriesSet, Tracer};

use super::QuantumRecord;

/// Bucket geometry of [`Probes::mem_lat_counts`]: 50-cycle buckets to
/// 51 200 cycles. Queueing under heavy bank contention pushes tail read
/// latencies well past 4 000 cycles, and a p99 that lands in the overflow
/// bucket reports as unknown — so the range is sized for the tail, not
/// the median. Integer bucketing `latency / 50` matches
/// `(latency as f64 / 50.0) as usize` exactly: a cycle count below 2^53
/// converts exactly, and a quotient that is not a whole number is at
/// least 1/50 away from one — far outside f64 rounding error.
const MEM_HIST_BUCKET: u64 = 50;
const MEM_HIST_BUCKETS: usize = 1024;

/// A whole run as telemetry reports it, detached from the system so the
/// harness can serialise it after the simulation is dropped (see
/// [`System::take_telemetry`](super::System::take_telemetry)).
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Final counter/gauge snapshot, sorted by hierarchical name.
    pub counters: Vec<(String, u64)>,
    /// Per-quantum time series (estimated vs. actual slowdown, CARs,
    /// ATS miss rates, interference cycles).
    pub series: SeriesSet,
    /// The sim-time event trace (empty unless tracing was enabled).
    pub tracer: Tracer,
    /// Measured demand-miss memory latencies.
    pub mem_latency_hist: Histogram,
}

/// What the view reads of the system around [`Probes`]: state kept for
/// every run, telemetry or not.
pub(super) struct Recorded<'a> {
    pub(super) records: &'a [QuantumRecord],
    /// Whether ASM ran: its estimates then lead each record's list.
    pub(super) asm: bool,
    /// Whole-run shared-cache `(hits, misses)` per application.
    pub(super) llc: Vec<(u64, u64)>,
    pub(super) cores: &'a [Core],
    pub(super) mem: &'a MemorySystem,
    pub(super) banks_per_channel: usize,
    pub(super) executed_cycles: u64,
    pub(super) dropped_writebacks: u64,
}

/// The instrument set of one system (see the module docs).
#[derive(Debug)]
pub(super) struct Probes {
    apps: usize,
    /// Whether [`take_telemetry`](Self::take_telemetry) has anything to
    /// hand out: set by `enable_telemetry`, cleared by the take.
    telemetry_on: bool,
    tracer: Tracer,
    /// Cross-application shared-cache evictions each application caused.
    evictions_caused: Vec<u64>,
    /// Measured demand-miss memory latency buckets (the run report's
    /// p50/p95/p99). Raw integer counts — one read completion costs a
    /// divide-by-constant and an increment, no float conversion —
    /// assembled into a [`Histogram`] by the view.
    mem_lat_counts: Vec<u64>,
    mem_lat_overflow: u64,
    /// Ground-truth cycle attribution; while off, no ledger memory exists.
    attrib: Option<Box<RunAttrib>>,
    /// Measured miss latencies, when `latency_hist` is configured.
    alone_miss_hist: Option<Histogram>,
}

// Simulator state only: whether anyone will take the view, and the tracer
// (snapshots are only taken from runs with tracing off), stay out.
asm_simcore::persist_fields!(Probes {
    [evictions_caused],
    [mem_lat_counts],
    mem_lat_overflow,
    [attrib],
    [alone_miss_hist],
});

impl Probes {
    /// Everything off, except the measured-latency histogram when the
    /// configuration asks for one.
    pub(super) fn new(apps: usize, latency_hist: Option<(f64, usize)>) -> Self {
        Probes {
            apps,
            telemetry_on: false,
            tracer: Tracer::off(),
            evictions_caused: vec![0; apps],
            mem_lat_counts: vec![0; MEM_HIST_BUCKETS],
            mem_lat_overflow: 0,
            attrib: None,
            alone_miss_hist: latency_hist.map(|(w, b)| Histogram::new(w, b)),
        }
    }

    /// Makes the next [`take_telemetry`](Self::take_telemetry) render the
    /// view; `trace_sample` additionally starts the sim-time tracer,
    /// keeping 1-in-`n` request lifecycles.
    pub(super) fn enable_telemetry(&mut self, trace_sample: Option<u64>) {
        self.telemetry_on = true;
        self.tracer = trace_sample.map_or_else(Tracer::off, Tracer::new);
    }

    /// Starts a fresh attribution ledger.
    pub(super) fn enable_attribution(&mut self) {
        self.attrib = Some(Box::new(RunAttrib::new(self.apps)));
    }

    /// Renders the run so far as telemetry and detaches the trace, leaving
    /// telemetry off; empty when it was not on. This is the one place a
    /// counter or series name is rendered (the runner appends
    /// `app{i}.actual_slowdown`, which needs the alone runs). Series come
    /// out family by family, and a family without samples is still
    /// listed.
    pub(super) fn take_telemetry(&mut self, sim: &Recorded<'_>) -> RunTelemetry {
        if !std::mem::take(&mut self.telemetry_on) {
            return RunTelemetry {
                counters: Vec::new(),
                series: SeriesSet::default(),
                tracer: Tracer::off(),
                mem_latency_hist: Histogram::new(MEM_HIST_BUCKET as f64, MEM_HIST_BUCKETS),
            };
        }
        let n = self.apps;
        let mut counters = vec![
            (names::SYS_EXECUTED_CYCLES.to_owned(), sim.executed_cycles),
            (names::SYS_DROPPED_WRITEBACKS.to_owned(), sim.dropped_writebacks),
        ];
        for (i, core) in sim.cores.iter().enumerate() {
            let (hits, misses) = sim.llc[i];
            counters.push((names::llc_app_hits(i), hits));
            counters.push((names::llc_app_misses(i), misses));
            counters.push((names::llc_app_evictions_caused(i), self.evictions_caused[i]));
            counters.push((names::core_rob_stalls(i), core.stall_episodes()));
            counters.push((names::core_retired(i), core.retired()));
            counters.push((names::core_mem_ops(i), core.mem_ops_issued()));
        }
        let banks = sim.banks_per_channel;
        for (flat, (hits, misses)) in sim.mem.bank_row_outcomes().into_iter().enumerate() {
            let (ch, b) = (flat / banks, flat % banks);
            counters.push((names::dram_bank_row_hits(ch, b), hits));
            counters.push((names::dram_bank_row_misses(ch, b), misses));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));

        let mut series = SeriesSet::default();
        let mut family =
            |name: fn(usize) -> String, value: &dyn Fn(&QuantumRecord, usize) -> Option<f64>| {
                for i in 0..n {
                    let samples = sim.records.iter().filter_map(|r| Some((r.end_cycle, value(r, i)?)));
                    series.push(name(i), samples.collect());
                }
            };
        family(names::app_est_slowdown, &|r, i| sim.asm.then(|| r.estimates[0].1[i]));
        family(names::app_car_shared, &|r, i| Some(r.car_shared[i]));
        family(names::app_car_alone, &|r, i| Some(r.car_alone.as_ref()?[i]));
        family(names::app_ats_miss_rate, &QuantumRecord::ats_miss_rate);
        family(names::app_interference_cycles, &|r, i| Some(r.interference_cycles[i] as f64));

        RunTelemetry {
            counters,
            series,
            tracer: std::mem::replace(&mut self.tracer, Tracer::off()),
            mem_latency_hist: Histogram::from_parts(
                MEM_HIST_BUCKET as f64,
                self.mem_lat_counts.clone(),
                self.mem_lat_overflow,
            ),
        }
    }

    /// The attribution ledger, when attribution is on.
    pub(super) fn attribution(&self) -> Option<&RunAttrib> {
        self.attrib.as_deref()
    }

    /// The ledger, lent to whoever reports core ticks (the executed tick
    /// and the lazy replay in `cores.rs`).
    #[inline]
    pub(super) fn ledger(&mut self) -> Option<&mut RunAttrib> {
        self.attrib.as_deref_mut()
    }

    /// The measured miss-latency histogram, when configured.
    pub(super) fn measured_miss_latency_hist(&self) -> Option<&Histogram> {
        self.alone_miss_hist.as_ref()
    }

    /// An insertion by `inserter` evicted a line owned by `victim`.
    #[inline]
    pub(super) fn cross_eviction(&mut self, victim: usize, inserter: usize) {
        self.evictions_caused[inserter] += 1;
        if let Some(ledger) = self.attrib.as_deref_mut() {
            ledger.on_eviction(victim, inserter);
        }
    }

    /// The read `c` returned to `app`, about to be delivered. When it is
    /// the one `app`'s reorder-buffer head waits on, the pending
    /// memory-stall episode closes with this request's cause accounting;
    /// `pollution` is the demand access's pollution verdict.
    pub(super) fn read_returned(
        &mut self,
        app: usize,
        now: Cycle,
        c: &Completion,
        pollution: bool,
        unblocks_head: bool,
    ) {
        let Some(ledger) = self.attrib.as_deref_mut().filter(|_| unblocks_head) else {
            return;
        };
        let ep = MemEpisode {
            service: c.finish - c.service_start,
            cause: c.cause,
            induced: c.induced,
            induced_by: c.induced_by.map(|a| a.index()),
            pollution,
        };
        if let Some((start, len)) = ledger.on_blocking_completion(app, now, &ep) {
            // The interval the head was pinned on this one request.
            self.request_span("mem_stall", "attrib", c, start, len, c.interference_cycles);
        }
    }

    /// The demand miss that arrived at `arrival` finished with `c`,
    /// `interference` cycles of it charged to other applications.
    #[inline]
    pub(super) fn demand_miss(&mut self, c: &Completion, arrival: Cycle, interference: u64) {
        let latency = c.finish - arrival;
        if let Some(h) = &mut self.alone_miss_hist {
            h.add(latency as f64);
        }
        match self.mem_lat_counts.get_mut((latency / MEM_HIST_BUCKET) as usize) {
            Some(count) => *count += 1,
            None => self.mem_lat_overflow += 1,
        }
        self.request_span("mem_read", "mem", c, arrival, latency, interference);
    }

    /// Emits one span of request `c`'s lifecycle, if the tracer samples it.
    // Allocation cadence (R9): sampled-trace emission — gated on
    // `sample_request`, so it allocates (the args vector) only for traced
    // requests when the opt-in tracer is attached
    fn request_span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        c: &Completion,
        start: Cycle,
        dur: Cycle,
        interference: u64,
    ) {
        let tracer = &mut self.tracer;
        if tracer.sample_request(c.id) {
            tracer.complete(
                name,
                cat,
                start,
                dur,
                c.app.index() as u64,
                vec![
                    ("interference", JsonValue::num_u64(interference)),
                    ("row_hit", JsonValue::Bool(c.row_hit)),
                ],
            );
        }
    }

    /// An epoch began at `now` with `owner` prioritised.
    pub(super) fn epoch_started(&mut self, now: Cycle, owner: Option<AppId>) {
        let tracer = &mut self.tracer;
        if tracer.is_enabled() {
            let (tid, arg) = match owner {
                Some(a) => (a.index() as u64, JsonValue::num_u64(a.index() as u64)),
                None => (0, JsonValue::Null),
            };
            tracer.instant("epoch_owner", "sched", now, tid, vec![("owner", arg)]);
        }
    }

    /// The quantum recorded as `rec` (the `index`-th of the run) closed:
    /// traces it and closes the ledger quantum.
    ///
    /// The DRAM blame counters are read from `mem` *without* advancing
    /// the lazy channel accounting — advancing here would split the §4.3
    /// fractional-queueing f64 accruals at different points than an
    /// attrib-off run (float addition is not associative), breaking the
    /// attrib-on-vs-off byte-identity of estimator output. The
    /// deterministic staleness only smears blame *weights* into the next
    /// quantum; ledger totals are exact.
    pub(super) fn quantum_closed(&mut self, rec: &QuantumRecord, index: usize, mem: &MemorySystem) {
        let (start, now) = (rec.start_cycle, rec.end_cycle);
        let tracer = &mut self.tracer;
        if tracer.is_enabled() {
            let args = vec![("index", JsonValue::num_u64(index as u64))];
            tracer.complete("quantum", "quantum", start, now - start, 0, args);
            if let Some(p) = &rec.partition {
                let ways = p.iter().map(|&w| JsonValue::num_u64(w as u64)).collect();
                let args = vec![("ways", JsonValue::Arr(ways))];
                tracer.instant("repartition", "sched", now, 0, args);
            }
        }
        if let Some(ledger) = self.attrib.as_deref_mut() {
            let n = self.apps;
            let mut cum = vec![0; n * n * 3];
            mem.attrib_blame_into(n, &mut cum);
            ledger.end_quantum(now, &cum);
        }
    }
}
