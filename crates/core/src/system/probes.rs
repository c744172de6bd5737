//! The instruments riding one system: telemetry (counter registry,
//! per-quantum series, sim-time tracer, measured memory-latency buckets),
//! the ground-truth attribution ledger, and the measured miss-latency
//! histogram of Figure 6.
//!
//! [`Probes`] alone constructs an instrument, registers its handles or
//! asks whether it is on. The memory path and the boundary report events
//! unconditionally; an event whose consumers are off costs an indexed add
//! into the disabled registry's scratch slot, a push that resolves to no
//! ring, or one predictable `None` branch — so switching an instrument on
//! cannot change simulated behaviour (pinned by the differential tests).

use asm_attrib::{Component, MemEpisode, RunAttrib, COMPONENTS};
use asm_dram::{Completion, MemorySystem};
use asm_simcore::{AppId, Cycle, Histogram};
use asm_telemetry::{names, CounterId, JsonValue, Registry, SeriesId, SeriesSet, Tracer};

use super::QuantumRecord;

/// Telemetry instruments: the counter registry, per-quantum series rings,
/// the sim-time tracer and the measured memory-latency buckets.
///
/// A disabled instance is constructed for every system; event sites
/// execute the same indexed adds either way (the disabled registry
/// aliases them onto a scratch slot).
#[derive(Debug)]
struct SysTelemetry {
    registry: Registry,
    series: SeriesSet,
    tracer: Tracer,
    /// Measured demand-miss memory latency buckets (for the stats-JSON
    /// p50/p95/p99 dump); only filled while enabled. Kept as raw integer
    /// bucket counts on the hot path — one read completion costs a
    /// divide-by-constant and an increment, no float conversion — and
    /// assembled into a [`Histogram`] at [`Probes::take_telemetry`] time.
    mem_lat_counts: Vec<u64>,
    mem_lat_overflow: u64,
}

/// Bucket geometry of [`SysTelemetry::mem_lat_counts`]: 50-cycle
/// buckets to 51 200 cycles. Queueing under heavy bank contention pushes
/// tail read latencies well past 4 000 cycles, and a p99 that lands in
/// the overflow bucket reports as unknown — so the range is sized for
/// the tail, not the median. Integer bucketing `latency / 50` matches
/// `(latency as f64 / 50.0) as usize` exactly: a cycle count below 2^53
/// converts exactly, and a quotient that is not a whole number is at
/// least 1/50 away from one — far outside f64 rounding error.
const MEM_HIST_BUCKET: u64 = 50;
const MEM_HIST_BUCKETS: usize = 1024;

impl SysTelemetry {
    /// `trace_sample` is only ever given with `enabled`.
    fn new(enabled: bool, trace_sample: Option<u64>) -> Self {
        let (registry, series) = if enabled {
            let capacity = asm_telemetry::DEFAULT_SERIES_CAPACITY;
            (Registry::enabled(), SeriesSet::enabled(capacity))
        } else {
            (Registry::disabled(), SeriesSet::disabled())
        };
        SysTelemetry {
            registry,
            series,
            tracer: trace_sample.map_or_else(Tracer::off, Tracer::new),
            mem_lat_counts: vec![0; MEM_HIST_BUCKETS],
            mem_lat_overflow: 0,
        }
    }
}

// Counters, series rings and the memory-latency buckets. The tracer is
// deliberately left out: snapshots are only taken from runs with tracing
// off (checkpoint eligibility), so there is never trace state to carry.
asm_simcore::persist_fields!(SysTelemetry {
    registry,
    series,
    [mem_lat_counts],
    mem_lat_overflow,
});

/// What the event sites index the registry and the series set with.
#[derive(Debug, Default)]
struct Handles {
    llc_hits: Vec<CounterId>,
    llc_misses: Vec<CounterId>,
    llc_evictions_caused: Vec<CounterId>,
    s_est: Vec<SeriesId>,
    s_car_shared: Vec<SeriesId>,
    s_car_alone: Vec<SeriesId>,
    s_ats_miss_rate: Vec<SeriesId>,
    s_interference: Vec<SeriesId>,
    /// The ledger's cumulative per-component counters, app-major
    /// (`app_count × COMPONENTS`), registered as `attrib.app{i}.{name}`.
    c_components: Vec<CounterId>,
    /// The ledger's per-quantum blame series, victim-major
    /// (`app_count²`), registered as `attrib.app{v}.blame.app{o}`.
    s_blame: Vec<SeriesId>,
}

/// Everything telemetry collected over one run, detached from the system
/// so the harness can serialise it after the simulation is dropped (see
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

/// The instrument set of one system (see the module docs).
#[derive(Debug)]
pub(super) struct Probes {
    apps: usize,
    telemetry: SysTelemetry,
    /// Ground-truth cycle attribution; while off, no ledger memory exists.
    attrib: Option<Box<RunAttrib>>,
    /// Measured miss latencies, when `latency_hist` is configured.
    alone_miss_hist: Option<Histogram>,
    handles: Handles,
}

asm_simcore::persist_fields!(Probes { telemetry, [attrib], [alone_miss_hist] });

impl Probes {
    /// Everything off, except the measured-latency histogram when the
    /// configuration asks for one.
    pub(super) fn new(apps: usize, latency_hist: Option<(f64, usize)>) -> Self {
        let mut probes = Probes {
            apps,
            telemetry: SysTelemetry::new(false, None),
            attrib: None,
            alone_miss_hist: latency_hist.map(|(w, b)| Histogram::new(w, b)),
            handles: Handles::default(),
        };
        probes.bind_handles();
        probes
    }

    /// Starts telemetry collection afresh; `trace_sample` additionally
    /// enables the sim-time tracer, keeping 1-in-`n` request lifecycles.
    pub(super) fn enable_telemetry(&mut self, trace_sample: Option<u64>) {
        self.telemetry = SysTelemetry::new(true, trace_sample);
        self.bind_handles();
    }

    /// Starts a fresh attribution ledger.
    pub(super) fn enable_attribution(&mut self) {
        self.attrib = Some(Box::new(RunAttrib::new(self.apps)));
        self.bind_handles();
    }

    /// (Re-)registers every counter and series against the registry and
    /// series set now in place. Every path that replaces an instrument
    /// ends here, so the handles index the live registry whichever
    /// instrument was switched on first. Series are reported in
    /// registration order: the per-app telemetry series first, then the
    /// ledger's blame series (a name registered again keeps its handle).
    fn bind_handles(&mut self) {
        let n = self.apps;
        // The `attrib.*` families exist only while a ledger is kept.
        let ledger_apps = if self.attrib.is_some() { n } else { 0 };
        let SysTelemetry { registry, series, .. } = &mut self.telemetry;
        let mut counters =
            |name: fn(usize) -> String| (0..n).map(|i| registry.register(&name(i))).collect();
        let mut per_app =
            |name: fn(usize) -> String| (0..n).map(|i| series.register(&name(i))).collect();
        self.handles = Handles {
            llc_hits: counters(names::llc_app_hits),
            llc_misses: counters(names::llc_app_misses),
            llc_evictions_caused: counters(names::llc_app_evictions_caused),
            s_est: per_app(names::app_est_slowdown),
            s_car_shared: per_app(names::app_car_shared),
            s_car_alone: per_app(names::app_car_alone),
            s_ats_miss_rate: per_app(names::app_ats_miss_rate),
            s_interference: per_app(names::app_interference_cycles),
            c_components: (0..ledger_apps)
                .flat_map(|i| Component::ALL.map(|c| names::attrib_component(i, c.name())))
                .map(|name| registry.register(&name))
                .collect(),
            s_blame: (0..ledger_apps * n)
                .map(|k| series.register(&names::attrib_blame(k / n, k % n)))
                .collect(),
        };
    }

    /// Detaches everything telemetry collected, leaving telemetry off.
    /// `gauges` is asked for the end-of-run gauges only when there is a
    /// live registry to put them in.
    pub(super) fn take_telemetry(
        &mut self,
        gauges: impl FnOnce() -> Vec<(String, u64)>,
    ) -> RunTelemetry {
        let reg = &mut self.telemetry.registry;
        if reg.is_enabled() {
            for (name, value) in gauges() {
                reg.set_named(&name, value);
            }
        }
        let tele = std::mem::replace(&mut self.telemetry, SysTelemetry::new(false, None));
        self.bind_handles();
        RunTelemetry {
            counters: tele.registry.snapshot(),
            series: tele.series,
            tracer: tele.tracer,
            mem_latency_hist: Histogram::from_parts(
                MEM_HIST_BUCKET as f64,
                tele.mem_lat_counts,
                tele.mem_lat_overflow,
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

    /// A demand access of `app` hit or missed in the shared cache.
    #[inline]
    pub(super) fn llc_access(&mut self, app: usize, hit: bool) {
        let h = &self.handles;
        let id = if hit { h.llc_hits[app] } else { h.llc_misses[app] };
        self.telemetry.registry.add(id, 1);
    }

    /// An insertion by `inserter` evicted a line owned by `victim`.
    #[inline]
    pub(super) fn cross_eviction(&mut self, victim: usize, inserter: usize) {
        let caused = self.handles.llc_evictions_caused[inserter];
        self.telemetry.registry.add(caused, 1);
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
        let t = &mut self.telemetry;
        if t.registry.is_enabled() {
            let idx = (latency / MEM_HIST_BUCKET) as usize;
            match t.mem_lat_counts.get_mut(idx) {
                Some(count) => *count += 1,
                None => t.mem_lat_overflow += 1,
            }
        }
        self.request_span("mem_read", "mem", c, arrival, latency, interference);
    }

    /// Emits one span of request `c`'s lifecycle, if the tracer samples it.
    // asm-lint: allow(R9): sampled-trace emission — gated on
    // `sample_request`, so it allocates only for traced requests when
    // the opt-in tracer is attached
    fn request_span(
        &mut self,
        name: &str,
        cat: &'static str,
        c: &Completion,
        start: Cycle,
        dur: Cycle,
        interference: u64,
    ) {
        let tracer = &mut self.telemetry.tracer;
        if tracer.sample_request(c.id) {
            tracer.complete(
                name,
                cat,
                start,
                dur,
                c.app.index() as u64,
                vec![
                    ("interference".to_owned(), JsonValue::num_u64(interference)),
                    ("row_hit".to_owned(), JsonValue::Bool(c.row_hit)),
                ],
            );
        }
    }

    /// An epoch began at `now` with `owner` prioritised.
    pub(super) fn epoch_started(&mut self, now: Cycle, owner: Option<AppId>) {
        let tracer = &mut self.telemetry.tracer;
        if tracer.is_enabled() {
            let (tid, arg) = match owner {
                Some(a) => (a.index() as u64, JsonValue::num_u64(a.index() as u64)),
                None => (0, JsonValue::Null),
            };
            tracer.instant("epoch_owner", "sched", now, tid, vec![("owner".to_owned(), arg)]);
        }
    }

    /// The quantum recorded as `rec` (the `index`-th of the run) closed;
    /// `asm` holds ASM's estimates when that estimator is instantiated.
    /// Publishes the per-app series and trace events, then closes the
    /// ledger quantum and republishes it as counters and blame series.
    ///
    /// The DRAM blame counters are read from `mem` *without* advancing
    /// the lazy channel accounting — advancing here would split the §4.3
    /// fractional-queueing f64 accruals at different points than an
    /// attrib-off run (float addition is not associative), breaking the
    /// attrib-on-vs-off byte-identity of estimator output. The
    /// deterministic staleness only smears blame *weights* into the next
    /// quantum; ledger totals are exact.
    pub(super) fn quantum_closed(
        &mut self,
        rec: &QuantumRecord,
        index: usize,
        asm: Option<&[f64]>,
        mem: &MemorySystem,
    ) {
        let n = self.apps;
        let (start, now) = (rec.start_cycle, rec.end_cycle);
        let Probes {
            telemetry: t,
            handles: h,
            ..
        } = self;
        for i in 0..n {
            if let Some(asm) = asm {
                t.series.push(h.s_est[i], now, asm[i]);
            }
            t.series.push(h.s_car_shared[i], now, rec.car_shared[i]);
            if let Some(ca) = &rec.car_alone {
                t.series.push(h.s_car_alone[i], now, ca[i]);
            }
            if let Some(&(hits, misses)) = rec.ats_samples.get(i) {
                if hits + misses > 0 {
                    let rate = misses as f64 / (hits + misses) as f64;
                    t.series.push(h.s_ats_miss_rate[i], now, rate);
                }
            }
            t.series.push(h.s_interference[i], now, rec.interference_cycles[i] as f64);
        }
        if t.tracer.is_enabled() {
            let args = vec![("index".to_owned(), JsonValue::num_u64(index as u64))];
            t.tracer.complete("quantum", "quantum", start, now - start, 0, args);
            if let Some(p) = &rec.partition {
                let ways = p.iter().map(|&w| JsonValue::num_u64(w as u64)).collect();
                let args = vec![("ways".to_owned(), JsonValue::Arr(ways))];
                t.tracer.instant("repartition", "sched", now, 0, args);
            }
        }
        if let Some(ledger) = self.attrib.as_deref_mut() {
            let mut cum = vec![0; n * n * 3];
            mem.attrib_blame_into(n, &mut cum);
            let ql = ledger.end_quantum(now, &cum);
            for v in 0..n {
                for (k, comp) in Component::ALL.iter().enumerate() {
                    t.registry.add(h.c_components[v * COMPONENTS + k], ql.component(v, *comp));
                }
                for o in 0..n {
                    t.series.push(h.s_blame[v * n + o], now, ql.blamed(v, o) as f64);
                }
            }
        }
    }
}
