//! The traced pass's per-layer section: isolation kernels, subtraction
//! variants and harness phases, each call into a layer wrapped in a span
//! and every metric derived from those spans.
//!
//! Three ways to price a layer from outside it:
//! - **kernel** — drive the layer alone (a core over an ideal memory, the
//!   LLC tag store over the workload's address streams, the controller in
//!   a closed loop) and divide by operations;
//! - **subtraction** — run the whole `System` with and without the layer
//!   and divide the difference by simulated cycles;
//! - **phase** — re-enact the `Runner` calls a campaign driver makes and
//!   time each one.
//!
//! Where a measurement is sampled more than once the fastest sample
//! counts: the work is identical, and host noise only ever adds time.

use std::hint::black_box;
use std::sync::Arc;

use asm_cache::{
    lookahead_partition, AuxiliaryTagStore, BenefitCurves, PollutionFilter, SetAssocCache,
    WayPartition,
};
use asm_core::{
    checkpoint, AloneCache, CachePolicy, EstimatorSet, MemPolicy, RunOptions, RunResult, Runner,
    System, SystemConfig, COMPONENTS,
};
use asm_cpu::{AddressStream, AppProfile, Core, MemIssueResult};
use asm_dram::{MemRequest, MemorySystem};
use asm_experiments::plan::PlannedRun;
use asm_experiments::{pool, sampled, Scale};
use asm_simcore::persist::{StateReader, StateWriter};
use asm_simcore::{AppId, Cycle, LineAddr};

use crate::metrics::PER_LAYER;
use crate::span::Recorder;
use crate::stats::{median, min};
use crate::workloads::{estimator_err_pct, tier_err_pct, Ops, Probe};

/// Per-layer metric values by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name the catalogue does not declare: a typo here would
    /// otherwise print a silent 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What every per-layer section records into: spans, operation counts
/// and metric values.
pub struct Pass<'a> {
    pub rec: &'a mut Recorder,
    pub ops: &'a mut Ops,
    pub m: &'a mut Metrics,
}

/// Operations per kernel sample, and samples per kernel (fastest taken).
const KERNEL_OPS: usize = 200_000;
const KERNEL_SAMPLES: usize = 3;
/// Samples per subtraction variant (minimum taken).
const VARIANT_SAMPLES: usize = 2;

/// Gross-breakage gates on the accuracy figures, two to three times the
/// worst value seen over seeds 1–6 when the benchmark was written
/// (ASM 14%, sampled tier 7%, analytic tier 26%). They are not accuracy
/// targets: the figures themselves are what a change is judged by.
const ASM_ERR_GATE_PCT: f64 = 30.0;
const SAMPLED_ERR_GATE_PCT: f64 = 20.0;
const ANALYTIC_ERR_GATE_PCT: f64 = 60.0;

fn gate(ops: &mut Ops, what: &str, err_pct: f64, gate_pct: f64) {
    ops.check(err_pct <= gate_pct, || {
        format!("{what} is {err_pct:.1}%, above the {gate_pct}% gate")
    });
}

/// Errors of the slowdown estimators against measured slowdowns, for
/// workloads whose own repetitions carry ground truth.
pub fn estimator_errors(results: &[&RunResult], pass: &mut Pass) {
    let Pass { ops, m, .. } = pass;
    if let Some(err) = estimator_err_pct(results, "ASM") {
        gate(ops, "mean ASM estimation error", err, ASM_ERR_GATE_PCT);
    }
    for (estimator, metric) in [
        ("ASM", "asm_err_pct"),
        ("FST", "core.estimator.fst_err_pct"),
        ("PTCA", "core.estimator.ptca_err_pct"),
        ("MISE", "core.estimator.mise_err_pct"),
    ] {
        if let Some(err) = estimator_err_pct(results, estimator) {
            m.set(metric, err);
        }
    }
}

/// Everything a cycle-tier workload exercises: the cpu, cache and dram
/// kernels, a quantum-by-quantum `System` run, and the estimator /
/// mechanism / telemetry / attribution subtraction variants.
pub fn cycle_tier(probe: &Probe, pass: &mut Pass) {
    let Pass { rec, ops, m } = pass;
    kernels(probe, rec, m);
    system_run(probe, rec, ops, m);
    variants(probe, rec, ops, m);
}

/// The first `KERNEL_OPS` memory operations of the probe's applications,
/// round-robin, as the shared LLC would see them before L1 filtering.
fn address_ops(probe: &Probe) -> Vec<(LineAddr, AppId, bool)> {
    let mut streams: Vec<AddressStream> = probe
        .apps
        .iter()
        .enumerate()
        .map(|(slot, app)| AddressStream::new(app, slot, probe.config.seed))
        .collect();
    (0..KERNEL_OPS)
        .map(|i| {
            let slot = i % streams.len();
            let op = streams[slot].next_op();
            (op.line, AppId::new(slot), op.is_write)
        })
        .collect()
}

/// Nanoseconds per operation of the fastest of `KERNEL_SAMPLES` spans
/// of `f`.
fn kernel_ns(rec: &mut Recorder, span: &str, per_sample_ops: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..KERNEL_SAMPLES {
        rec.span(span, |_| f());
    }
    min(&rec.seconds(span)) * 1e9 / per_sample_ops as f64
}

fn kernels(probe: &Probe, rec: &mut Recorder, m: &mut Metrics) {
    let cfg = &probe.config;
    let apps = probe.apps.len();
    let ways = cfg.llc_geometry.ways();
    let ops = address_ops(probe);

    // cpu: each application's core over an ideal 50-cycle memory.
    let ticks = KERNEL_OPS / apps;
    let ns = kernel_ns(rec, "cpu.core_tick", ticks * apps, || {
        for (slot, app) in probe.apps.iter().enumerate() {
            let mut core = Core::new(AppId::new(slot), app, cfg.seed);
            for now in 0..ticks as Cycle {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 50));
            }
            black_box(core.retired());
        }
    });
    m.set("cpu.core_tick_ns", ns);

    // cache: the LLC tag store, free-for-all and way-partitioned (the
    // partitioned victim pick is the slowest replacement decision).
    for (span, metric, partitioned) in [
        ("cache.llc_access", "cache.llc_access_ns", false),
        ("cache.llc_access_part", "cache.llc_access_part_ns", true),
    ] {
        let ns = kernel_ns(rec, span, ops.len(), || {
            let mut llc = SetAssocCache::new(cfg.llc_geometry, apps);
            if partitioned {
                llc.set_partition(Some(WayPartition::even(ways, apps)));
            }
            let mut hits = 0u64;
            for &(line, app, is_write) in &ops {
                hits += u64::from(llc.access(line, app, is_write).hit);
            }
            black_box(hits);
        });
        m.set(metric, ns);
    }

    let mut ats: Vec<AuxiliaryTagStore> = Vec::new();
    let ns = kernel_ns(rec, "cache.ats_access", ops.len(), || {
        ats = (0..apps)
            .map(|_| AuxiliaryTagStore::new(cfg.llc_geometry, cfg.ats_sampled_sets))
            .collect();
        for &(line, app, _) in &ops {
            black_box(ats[app.index()].access(line));
        }
    });
    m.set("cache.ats_access_ns", ns);

    let ns = kernel_ns(rec, "cache.pollution", ops.len(), || {
        let mut filter = PollutionFilter::new(cfg.pollution_filter_bits);
        let mut hits = 0u64;
        for (i, &(line, _, _)) in ops.iter().enumerate() {
            if i % 2 == 0 {
                filter.insert(line);
            } else {
                hits += u64::from(filter.probably_contains(line));
            }
        }
        black_box(hits);
    });
    m.set("cache.pollution_ns", ns);

    // The UCP lookahead over the benefit curves the ATS kernel just
    // measured for these applications.
    let curves = BenefitCurves::from_fn(apps, ways + 1, |a, n| ats[a].hits_with_ways(n) as f64);
    let rounds = 200;
    let ns = kernel_ns(rec, "cache.lookahead", rounds, || {
        for _ in 0..rounds {
            black_box(lookahead_partition(black_box(&curves), ways, 1));
        }
    });
    m.set("cache.lookahead_us", ns / 1e3);

    // dram: the controller in a closed loop at the workload's scheduler,
    // queues kept topped up with the workload's read stream.
    let requests = KERNEL_OPS / 10;
    let ns = kernel_ns(rec, "dram.closed_loop", requests, || {
        let mut mem = MemorySystem::new(cfg.dram.clone(), cfg.scheduler, apps);
        let mut out = Vec::new();
        let (mut sent, mut done, mut now) = (0usize, 0usize, 0 as Cycle);
        while done < requests {
            while sent < requests {
                let (line, app, _) = ops[sent];
                if mem
                    .enqueue(MemRequest::read(sent as u64, line, app, now))
                    .is_err()
                {
                    break;
                }
                sent += 1;
            }
            out.clear();
            mem.tick(now, &mut out);
            done += out.len();
            // Jump to the controller's next event, as skip mode does:
            // the cost of ticking an idle controller is the next kernel.
            now = mem.next_event(now).unwrap_or(now + 1);
        }
        black_box(now);
    });
    m.set("dram.ns_per_request", ns);

    let ns = kernel_ns(rec, "dram.tick_idle", KERNEL_OPS, || {
        let mut mem = MemorySystem::new(cfg.dram.clone(), cfg.scheduler, apps);
        let mut out = Vec::new();
        for now in 0..KERNEL_OPS as Cycle {
            mem.tick(now, &mut out);
        }
        black_box(out.len());
    });
    m.set("dram.tick_idle_ns", ns);
}

/// One `System` run of the probe, driven a quantum at a time so each
/// quantum is a span.
fn system_run(probe: &Probe, rec: &mut Recorder, ops: &mut Ops, m: &mut Metrics) {
    let q = probe.config.quantum;
    let mut sys = rec.span("core.system.new", |_| {
        System::new(&probe.apps, probe.config.clone())
    });
    rec.span("core.system.run", |rec| {
        for _ in 0..probe.cycles / q {
            rec.span("core.system.quantum", |_| sys.run_for(q));
        }
        sys.run_for(probe.cycles % q);
    });
    ops.check(sys.now() == probe.cycles, || {
        "quantum-stepped run stopped short".to_owned()
    });
    let run_s = rec
        .seconds("core.system.run")
        .last()
        .copied()
        .unwrap_or(0.0);
    let executed = sys.executed_cycles();
    m.set(
        "core.system.ns_per_sim_cycle",
        run_s * 1e9 / probe.cycles as f64,
    );
    m.set(
        "core.system.ns_per_exec_cycle",
        run_s * 1e9 / executed as f64,
    );
    m.set(
        "core.system.exec_frac",
        executed as f64 / probe.cycles as f64,
    );
    m.set(
        "core.system.new_ms",
        min(&rec.seconds("core.system.new")) * 1e3,
    );
    let quanta = rec.seconds("core.system.quantum");
    m.set("core.system.quantum_ms_p50", median(&quanta) * 1e3);
    m.set(
        "core.system.quantum_ms_max",
        quanta.iter().copied().fold(0.0, f64::max) * 1e3,
    );
}

/// Sum of the counters whose name starts with `prefix` and ends with
/// `suffix` (`core*.retired`, `dram.*.row_hits`).
fn counter_sum(counters: &[(String, u64)], prefix: &str, suffix: &str) -> u64 {
    counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|&(_, v)| v)
        .sum()
}

/// The probe's `System` with one layer added or removed at a time.
fn variants(probe: &Probe, rec: &mut Recorder, ops: &mut Ops, m: &mut Metrics) {
    #[derive(Clone, Copy, PartialEq)]
    enum Variant {
        NoEstimator,
        AsmOnly,
        AllEstimators,
        Mechanisms,
        Telemetry,
        Attribution,
    }
    const ALL: [(Variant, &str); 6] = [
        (Variant::NoEstimator, "core.variant.no_estimator"),
        (Variant::AsmOnly, "core.variant.asm_only"),
        (Variant::AllEstimators, "core.variant.all_estimators"),
        (Variant::Mechanisms, "core.variant.mechanisms"),
        (Variant::Telemetry, "core.variant.telemetry"),
        (Variant::Attribution, "core.variant.attribution"),
    ];
    let config_of = |v: Variant| -> SystemConfig {
        let mut c = probe.config.clone();
        c.cache_policy = CachePolicy::None;
        c.mem_policy = MemPolicy::Uniform;
        c.estimators = match v {
            Variant::NoEstimator => EstimatorSet::none(),
            Variant::AllEstimators => EstimatorSet::everything(),
            _ => EstimatorSet::asm_only(),
        };
        if v == Variant::Mechanisms {
            c.cache_policy = CachePolicy::AsmCache;
            c.mem_policy = MemPolicy::SlowdownWeighted;
        }
        c
    };

    let cycles = probe.cycles as f64;
    for sample in 0..VARIANT_SAMPLES {
        for (v, span) in ALL {
            let mut sys = System::new(&probe.apps, config_of(v));
            match v {
                Variant::Telemetry => sys.enable_telemetry(None),
                Variant::Attribution => sys.enable_attribution(),
                _ => {}
            }
            rec.span(span, |_| sys.run_for(probe.cycles));
            ops.check(sys.now() == probe.cycles, || {
                format!("{span} stopped short")
            });
            if sample > 0 {
                continue;
            }
            // Deterministic counts, harvested once.
            match v {
                Variant::Telemetry => {
                    let tele = rec.span("telemetry.take", |_| sys.take_telemetry());
                    let c = &tele.counters;
                    m.set(
                        "cpu.retired_minstr",
                        counter_sum(c, "core", ".retired") as f64 / 1e6,
                    );
                    m.set("cpu.mem_ops", counter_sum(c, "core", ".mem_ops") as f64);
                    m.set(
                        "cpu.rob_stalls",
                        counter_sum(c, "core", ".rob_stalls") as f64,
                    );
                    let hits = counter_sum(c, "dram.", ".row_hits") as f64;
                    let misses = counter_sum(c, "dram.", ".row_misses") as f64;
                    m.set("dram.requests", hits + misses);
                    m.set(
                        "dram.row_hit_ratio",
                        if hits + misses > 0.0 {
                            hits / (hits + misses)
                        } else {
                            0.0
                        },
                    );
                    m.set(
                        "dram.read_latency_cycles_p50",
                        tele.mem_latency_hist.p50().unwrap_or(0.0),
                    );
                    let (mut accesses, mut llc_hits, mut llc_misses) = (0u64, 0u64, 0u64);
                    for i in 0..sys.app_count() {
                        let s = sys.app_summary(AppId::new(i));
                        accesses += s.llc_accesses;
                        llc_hits += s.llc_hits;
                        llc_misses += s.llc_misses;
                    }
                    m.set("cache.llc_accesses", accesses as f64);
                    m.set("cache.llc_misses", llc_misses as f64);
                    m.set(
                        "cache.llc_hit_ratio",
                        if accesses > 0 {
                            llc_hits as f64 / accesses as f64
                        } else {
                            0.0
                        },
                    );
                }
                Variant::Attribution => {
                    let totals = sys.attrib_totals().unwrap_or_default();
                    let all: u64 = totals.iter().sum();
                    let interference: u64 = totals
                        .chunks(COMPONENTS)
                        .flat_map(|row| {
                            asm_core::Component::ALL
                                .iter()
                                .filter(|c| c.is_interference())
                                .map(|c| row[c.index()])
                        })
                        .sum();
                    ops.check(all == sys.app_count() as u64 * probe.cycles, || {
                        "ledger totals do not cover every core cycle".to_owned()
                    });
                    m.set(
                        "attrib.interference_share",
                        if all > 0 {
                            interference as f64 / all as f64
                        } else {
                            0.0
                        },
                    );
                }
                _ => {}
            }
        }
    }

    let best = |span: &str| min(&rec.seconds(span));
    let base = best("core.variant.asm_only");
    let per_cycle = |span: &str| (best(span) - base) * 1e9 / cycles;
    m.set(
        "core.estimator.asm_ns_per_cycle",
        (base - best("core.variant.no_estimator")) * 1e9 / cycles,
    );
    m.set(
        "core.estimator.extra_ns_per_cycle",
        per_cycle("core.variant.all_estimators"),
    );
    m.set(
        "core.mech.extra_ns_per_cycle",
        per_cycle("core.variant.mechanisms"),
    );
    m.set(
        "telemetry.extra_ns_per_cycle",
        per_cycle("core.variant.telemetry"),
    );
    m.set(
        "telemetry.take_ms",
        min(&rec.seconds("telemetry.take")) * 1e3,
    );
    m.set(
        "attrib.extra_ns_per_cycle",
        per_cycle("core.variant.attribution"),
    );
    m.set(
        "attrib.on_over_off_pct",
        100.0 * (best("core.variant.attribution") / base - 1.0),
    );
}

/// What campaigns pay around the cycle loop: alone runs, snapshot
/// capture and restore, and the byte framing underneath them.
pub fn harness(probe: &Probe, pass: &mut Pass) {
    let Pass { rec, ops, m } = pass;
    let runner = Runner::with_cache(probe.config.clone(), Arc::new(AloneCache::new()));
    rec.span("core.runner.alone_runs", |_| {
        for slot in 0..probe.apps.len() {
            black_box(runner.alone_progress(&probe.apps, slot, probe.cycles));
        }
    });
    m.set(
        "core.runner.alone_runs_s",
        rec.seconds("core.runner.alone_runs")
            .last()
            .copied()
            .unwrap_or(0.0),
    );

    // One warmed quantum, captured and restored into a fresh system.
    let q = probe.config.quantum;
    let prefix = checkpoint::prefix_config(&probe.config);
    let mut sys = System::new(&probe.apps, prefix.clone());
    sys.run_prefix(q);
    let mut bytes = Vec::new();
    for _ in 0..KERNEL_SAMPLES {
        bytes = rec.span("core.checkpoint.capture", |_| {
            checkpoint::capture(&sys, 0, q)
        });
        let mut fresh = System::new(&probe.apps, prefix.clone());
        let warm = rec.span("core.checkpoint.resume", |_| {
            checkpoint::resume(&bytes, 0, &mut fresh)
        });
        ops.check(matches!(warm, Ok(w) if w == q), || {
            format!("snapshot restore returned {warm:?}, expected {q} warm cycles")
        });
    }
    m.set(
        "core.checkpoint.capture_ms",
        min(&rec.seconds("core.checkpoint.capture")) * 1e3,
    );
    m.set(
        "core.checkpoint.resume_ms",
        min(&rec.seconds("core.checkpoint.resume")) * 1e3,
    );
    m.set("core.checkpoint.snapshot_kb", bytes.len() as f64 / 1e3);

    // The envelope alone: 16 MB of words out and back in.
    let words: Vec<u64> = (0..1u64 << 20).collect();
    let floats: Vec<f64> = words.iter().map(|&w| w as f64).collect();
    let mut ok = true;
    let ns = kernel_ns(rec, "simcore.persist.roundtrip", 1, || {
        let mut w = StateWriter::new("asm-perf-roundtrip", 1);
        w.u64_slice(&words);
        w.f64_slice(&floats);
        let bytes = w.finish();
        let back = StateReader::new(&bytes, "asm-perf-roundtrip", 1).and_then(|mut r| {
            let a = r.u64_vec()?;
            let b = r.f64_vec()?;
            r.finish()?;
            Ok((a, b))
        });
        ok &= back.is_ok_and(|(a, b)| a == words && b.len() == floats.len());
    });
    ops.check(ok, || "persist envelope did not round-trip".to_owned());
    m.set(
        "simcore.persist.roundtrip_mb_per_s",
        16.0 * (1u64 << 20) as f64 / 1e6 / (ns * 1e-9),
    );
}

/// `plan::run_campaign`'s phases, re-enacted with the `Runner` calls it
/// makes, against the campaign's own wall-clock.
pub fn plan_phases(runs: &[PlannedRun], campaign_wall_s: f64, pass: &mut Pass) {
    let Pass { rec, ops, m } = pass;
    let opts = RunOptions::default();
    let cache = Arc::new(AloneCache::new());
    let runner_of = |run: &PlannedRun| Runner::with_cache(run.config.clone(), Arc::clone(&cache));
    let first = &runs[0];

    rec.span("experiments.plan.alone", |_| {
        let runner = runner_of(first);
        for slot in 0..first.apps.len() {
            black_box(runner.alone_progress(&first.apps, slot, first.cycles));
        }
    });
    let snapshot = rec.span("experiments.plan.warm", |_| {
        runner_of(first).warm_snapshot(&first.apps, opts)
    });
    rec.span("experiments.plan.fork_tail", |rec| {
        for run in runs {
            let r = rec.span("core.runner.run_with_snapshot", |_| {
                runner_of(run).run_with_snapshot(&run.apps, run.cycles, opts, &snapshot)
            });
            ops.check(r.is_ok(), || {
                "fork from the shared warm-up failed".to_owned()
            });
        }
    });
    // The per-member loop sweeps ran before the planner existed.
    rec.span("experiments.plan.cold_loop", |rec| {
        for run in runs {
            let r = rec.span("core.runner.run_with", |_| {
                runner_of(run).run_with(&run.apps, run.cycles, opts)
            });
            ops.slowdowns("cold member", &r.whole_run_slowdowns);
        }
    });

    let last = |span: &str| rec.seconds(span).last().copied().unwrap_or(0.0);
    let (alone, warm, tail) = (
        last("experiments.plan.alone"),
        last("experiments.plan.warm"),
        last("experiments.plan.fork_tail"),
    );
    m.set("experiments.plan.alone_s", alone);
    m.set("experiments.plan.warm_s", warm);
    m.set("experiments.plan.fork_tail_s", tail);
    m.set(
        "experiments.plan.overhead_ms",
        (campaign_wall_s - (alone + warm + tail)) * 1e3,
    );
    m.set(
        "experiments.plan.fork_speedup",
        (alone + last("experiments.plan.cold_loop")) / campaign_wall_s,
    );

    let items = vec![1u64; KERNEL_OPS];
    let ns = kernel_ns(rec, "experiments.pool.dispatch", items.len(), || {
        black_box(pool::run_ordered(1, &items, |i, &x| x + i as u64));
    });
    m.set("experiments.pool.dispatch_us", ns / 1e3);
}

/// The sampled tier's costs, split by two-point fits over campaign size
/// and interval count, and its error against full cycle-tier runs.
pub fn sampling(
    runs: &[PlannedRun],
    scale: &Scale,
    cache: &Arc<AloneCache>,
    estimates: &[sampled::SampledResult],
    reference: &[usize],
    campaign_wall_s: f64,
    pass: &mut Pass,
) {
    let Pass { rec, ops, m } = pass;
    // Error reference: the chosen members in full on the cycle tier.
    let (mut tier, mut truth, mut covered) = (Vec::new(), Vec::new(), 0usize);
    for &i in reference {
        let run = &runs[i];
        let runner = Runner::with_cache(run.config.clone(), Arc::clone(cache));
        let full = rec.span("core.runner.run", |_| runner.run(&run.apps, run.cycles));
        ops.slowdowns("sampled reference member", &full.whole_run_slowdowns);
        for (est, &exact) in estimates[i].slowdowns.iter().zip(&full.whole_run_slowdowns) {
            tier.push(est.value);
            truth.push(exact);
            covered += usize::from((est.value - exact).abs() <= est.ci);
        }
    }
    let (mean, worst) = tier_err_pct(&tier, &truth);
    gate(
        ops,
        "mean sampled-tier slowdown error",
        mean,
        SAMPLED_ERR_GATE_PCT,
    );
    m.set("tier_err_pct", mean);
    m.set("tier_err_worst_pct", worst);
    m.set(
        "sampling.ci_cover_pct",
        100.0 * covered as f64 / truth.len() as f64,
    );

    // Two members cost one fingerprint pass plus two members' probes;
    // 38 cost the same pass plus 38 members' probes.
    for _ in 0..KERNEL_SAMPLES {
        let two = rec.span("experiments.sampled.two_members", |_| {
            sampled::run_campaign(&runs[..2], scale)
        });
        ops.check(two.len() == 2, || {
            "two-member sampled campaign lost a member".to_owned()
        });
    }
    let two_s = min(&rec.seconds("experiments.sampled.two_members"));
    let per_member_s = (campaign_wall_s - two_s) / (runs.len() - 2) as f64;
    m.set("sampling.per_member_ms", per_member_s * 1e3);
    m.set("sampling.fixed_s", two_s - 2.0 * per_member_s);

    // Twice the intervals: the difference is probe time.
    let mut more = *scale;
    more.sample_intervals *= 2;
    for _ in 0..VARIANT_SAMPLES {
        let r = rec.span("experiments.sampled.double_k", |_| {
            sampled::run_campaign(runs, &more)
        });
        ops.check(r.len() == runs.len(), || {
            "K-doubled sampled campaign lost a member".to_owned()
        });
    }
    let extra_intervals = (runs.len() * scale.sample_intervals) as f64;
    let double_s = min(&rec.seconds("experiments.sampled.double_k"));
    m.set(
        "sampling.probe_ms_per_interval",
        (double_s - campaign_wall_s) * 1e3 / extra_intervals,
    );
}

/// The analytic tier's error against cycle-tier runs of the first few
/// mixes, and its set-up and per-mix costs.
pub fn analytic(
    reference_config: &SystemConfig,
    mixes: &[Vec<AppProfile>],
    solved: &[Vec<f64>],
    reference_cycles: Cycle,
    solve_s_per_mix: f64,
    pass: &mut Pass,
) {
    let Pass { rec, ops, m } = pass;
    let runner = Runner::new(reference_config.clone());
    let (mut tier, mut truth) = (Vec::new(), Vec::new());
    for (apps, slowdowns) in mixes.iter().zip(solved) {
        let full = rec.span("core.runner.run", |_| runner.run(apps, reference_cycles));
        ops.slowdowns("analytic reference mix", &full.whole_run_slowdowns);
        tier.extend_from_slice(slowdowns);
        truth.extend_from_slice(&full.whole_run_slowdowns);
    }
    let (mean, worst) = tier_err_pct(&tier, &truth);
    gate(
        ops,
        "mean analytic-tier slowdown error",
        mean,
        ANALYTIC_ERR_GATE_PCT,
    );
    m.set("tier_err_pct", mean);
    m.set("tier_err_worst_pct", worst);
    m.set(
        "analytic.profile_extract_ms",
        median(&rec.seconds("analytic.profile_extract")) * 1e3,
    );
    m.set("analytic.solve_us_per_mix", solve_s_per_mix * 1e6);
    m.set(
        "workloads.mix_gen_ms",
        min(&rec.seconds("workloads.mix_gen")) * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_by_prefix_and_suffix() {
        let c = vec![
            ("core0.retired".to_owned(), 5),
            ("core1.retired".to_owned(), 7),
            ("core1.mem_ops".to_owned(), 100),
            ("dram.ch0.bank3.row_hits".to_owned(), 2),
        ];
        assert_eq!(counter_sum(&c, "core", ".retired"), 12);
        assert_eq!(counter_sum(&c, "dram.", ".row_hits"), 2);
        assert_eq!(counter_sum(&c, "llc.", ".hits"), 0);
    }

    #[test]
    fn metrics_keep_the_last_value_per_name() {
        let mut m = Metrics::default();
        m.set("tier_err_pct", 1.0);
        m.set("tier_err_pct", 2.0);
        assert_eq!(m.get("tier_err_pct"), Some(2.0));
        assert_eq!(m.get("asm_err_pct"), None);
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metric_names_are_refused() {
        Metrics::default().set("cpu.core_tick_nanos", 1.0);
    }
}
