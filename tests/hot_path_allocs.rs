//! The allocation leg of the hot-path rule (DESIGN.md §8, R9), measured:
//! no heap allocation between quantum boundaries. `asm-lint` checks the
//! same leg lexically over its call graph; this test counts what it
//! approximates.
//!
//! A counting `#[global_allocator]` (this test binary only) counts real
//! allocator calls around `System::run_for` *between* quantum boundaries —
//! a `push` that grows a `Vec` or a `clone` of one counts like a `vec!` —
//! over a matrix with a case for every `SystemConfig` axis and every way a
//! `System` is built and driven (profiles, traces, alone runs with
//! progress logging, `run_prefix`), with fast-forward on and off. The
//! counts are a pure function of config + seed, so they are pinned; a new
//! per-cycle or per-request allocation anywhere under `System::step` fails
//! here. Epoch and quantum boundaries may allocate at their own cadence:
//! each such case states its bound. `MixSolver`'s half of the
//! rule is `crates/analytic/tests/solver_allocs.rs`.

use std::alloc::{GlobalAlloc, Layout, System as OsAllocator};
use std::cell::Cell;

use asm_repro::core::checkpoint::alone_config;
use asm_repro::core::{
    AppSpec, CachePolicy, EpochAssignment, EstimatorSet, MemPolicy, PrefetchConfig, QosConfig,
    System, SystemConfig, ThrottlePolicy,
};
use asm_repro::cpu::{AddressStream, AppProfile, TraceSource};
use asm_repro::dram::sched::SchedulerKind;
use asm_repro::dram::timing::RefreshConfig;
use asm_repro::simcore::{AppId, Cycle};
use asm_repro::workloads::suite;

thread_local! {
    /// Allocator calls made by this thread. Per thread because the test
    /// harness runs tests (and its own bookkeeping) on other threads; the
    /// simulator is single-threaded, so its calls all land here.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every operation is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract. The one addition is a bump of a
// `const`-initialised, destructor-free thread-local, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's layout and contract, passed through.
        unsafe { OsAllocator.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's layout and contract, passed through.
        unsafe { OsAllocator.alloc_zeroed(layout) }
    }

    // A `push` that grows is a `realloc`: it counts.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's pointer, layout and contract, passed through.
        unsafe { OsAllocator.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer, layout and contract, passed through.
        unsafe { OsAllocator.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `run` makes on this thread.
fn allocations_in(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

const QUANTUM: Cycle = 1_000_000;
/// Two quantum boundaries plus slack: every per-quantum structure has been
/// through its reset, and the measured window opens mid-quantum.
const WARM_UP: Cycle = 2 * QUANTUM + 50_000;
/// Ends 50k cycles before the third boundary. It still spans 90 epoch
/// boundaries (`Hierarchy::begin_epoch`): none allocates unless a case
/// says so.
const WINDOW: Cycle = 900_000;
/// The sampled tracer's period: one request lifecycle in this many.
const TRACE_SAMPLE: u64 = 64;

/// What a case's window may allocate.
enum Allowed {
    /// The deterministic count, pinned.
    Exactly(u64),
    /// A boundary-rate bound, given the LLC misses (= DRAM reads) the window
    /// served: far below one allocation per request or per cycle.
    AtMost(fn(misses: u64) -> u64),
}

/// How a case's `System` is built, instrumented and driven.
#[derive(Clone, Copy)]
enum Setup {
    /// `System::new` over the four profiles, windows run by `run_for`.
    Plain,
    /// With the attribution ledger on.
    Attribution,
    /// With the telemetry view on, and the request tracer sampling one
    /// lifecycle in the given period if any.
    Telemetry(Option<u64>),
    /// `System::from_specs`, every core replaying a recorded `TraceSource`.
    Traces,
    /// `System::new_alone` of slot 0 on `alone_config`, progress logging on
    /// — what `Runner` builds for an alone run.
    Alone,
    /// The window is run by `run_prefix`, as a campaign's shared prefix is.
    Prefix,
}

/// One row of the matrix.
struct Case {
    name: &'static str,
    /// The memory scheduler, FR-FCFS unless the row is about schedulers.
    scheduler: SchedulerKind,
    configure: fn(&mut SystemConfig),
    setup: Setup,
    allowed: Allowed,
}

fn case(name: &'static str, configure: fn(&mut SystemConfig), allowed: Allowed) -> Case {
    Case {
        name,
        scheduler: SchedulerKind::FrFcfs,
        configure,
        setup: Setup::Plain,
        allowed,
    }
}

/// Schedulers (each of `SchedulerKind::ALL`), boundary policies,
/// estimators and instruments. Every cell is 0: the window serves ~13,000
/// reads without one allocator call. (`Channel::push_read` pushes onto
/// `bank_members[bank]`; `Channel::new` reserves each list at the
/// read-queue capacity, so the push never grows one. PARBS's batches and
/// TCM's shuffles and clusters reuse scratch sized when the scheduler is
/// built.)
fn policy_matrix() -> Vec<Case> {
    let schedulers = SchedulerKind::ALL
        .map(|scheduler| Case { scheduler, ..case("scheduler", |_| {}, Allowed::Exactly(0)) });
    let others = [
        case("UCP", |c| c.cache_policy = CachePolicy::Ucp, Allowed::Exactly(0)),
        case("MCFQ", |c| c.cache_policy = CachePolicy::Mcfq, Allowed::Exactly(0)),
        case("ASM-Cache", |c| c.cache_policy = CachePolicy::AsmCache, Allowed::Exactly(0)),
        case("ASM-Mem", |c| c.mem_policy = MemPolicy::SlowdownWeighted, Allowed::Exactly(0)),
        case("all estimators", |c| c.estimators = EstimatorSet::all(), Allowed::Exactly(0)),
        Case { setup: Setup::Attribution, ..case("attribution", |_| {}, Allowed::Exactly(0)) },
        Case { setup: Setup::Telemetry(None), ..case("telemetry", |_| {}, Allowed::Exactly(0)) },
    ];
    schedulers.into_iter().chain(others).collect()
}

/// The remaining `SystemConfig` axes, the other ways of building and
/// driving a `System`, and the sampled tracer.
fn machine_matrix() -> Vec<Case> {
    vec![
        // Prefetches share the channel with demand reads and cover demand
        // misses: one prefetch two lines ahead leaves the window more than
        // 10,000 of them (the default degree 4, distance 24, leaves 8,453).
        case(
            "prefetcher",
            |c| c.prefetcher = Some(PrefetchConfig { degree: 1, distance: 2 }),
            Allowed::Exactly(0),
        ),
        case("refresh", |c| c.dram.refresh = Some(RefreshConfig::ddr3_2gb()), Allowed::Exactly(0)),
        case("2 channels", |c| c.dram.channels = 2, Allowed::Exactly(0)),
        case("full ATS", |c| c.ats_sampled_sets = None, Allowed::Exactly(0)),
        case(
            "ASM-QoS",
            |c| {
                let qos = QosConfig { target: AppId::new(0), bound: 2.5 };
                c.cache_policy = CachePolicy::AsmQos(qos);
            },
            Allowed::Exactly(0),
        ),
        case(
            "naive QoS",
            |c| c.cache_policy = CachePolicy::NaiveQos(AppId::new(0)),
            Allowed::Exactly(0),
        ),
        case(
            "FST throttling",
            |c| {
                c.estimators = EstimatorSet::all();
                c.throttle_policy = ThrottlePolicy::Fst { unfairness_threshold: 1.4 };
            },
            Allowed::Exactly(0),
        ),
        case(
            "round-robin epochs",
            |c| c.epoch_assignment = EpochAssignment::RoundRobin,
            Allowed::Exactly(0),
        ),
        case("epochs off", |c| c.epochs_enabled = false, Allowed::Exactly(0)),
        case("latency histograms", |c| c.latency_hist = Some((50.0, 64)), Allowed::Exactly(0)),
        case("every estimator", |c| c.estimators = EstimatorSet::everything(), Allowed::Exactly(0)),
        // `Probes::request_span` (gated on the tracer's sample) emits one
        // span per sampled DRAM read, and each of the window's 90 epoch
        // boundaries an `epoch_owner` instant. Names and arg keys are
        // `'static`, so each event allocates only its args vector: with
        // one request id in TRACE_SAMPLE traced, 208 spans + 90 instants +
        // 1 doubling of the event buffer = 299 allocations against 12,990
        // reads, the same with and without fast-forward.
        Case {
            setup: Setup::Telemetry(Some(TRACE_SAMPLE)),
            ..case("sampled trace", |_| {}, Allowed::Exactly(299))
        },
        Case { setup: Setup::Traces, ..case("trace-driven cores", |_| {}, Allowed::Exactly(0)) },
        Case { setup: Setup::Prefix, ..case("run_prefix", |_| {}, Allowed::Exactly(0)) },
        // `ProgressLog::record` pushes one milestone per `progress_interval`
        // instructions onto a `Vec` that grows by doubling: one reallocation
        // per power of two crossed. The window is under half the warm-up,
        // so unless the core retires twice as fast in it, the log grows by
        // less than its length and doubles at most once (measured: 0).
        Case {
            setup: Setup::Alone,
            ..case("alone run + progress log", |_| {}, Allowed::AtMost(|_| 1))
        },
    ]
}

fn profiles() -> Vec<AppProfile> {
    ["mcf_like", "libquantum_like", "soplex_like", "h264ref_like"]
        .iter()
        .map(|name| suite::by_name(name).expect("suite profile exists"))
        .collect()
}

/// Each profile's address stream, recorded and replayed as a trace that
/// loops after `OPS` operations.
fn trace_specs(apps: &[AppProfile], seed: u64) -> Vec<AppSpec> {
    const OPS: usize = 200_000;
    apps.iter()
        .enumerate()
        .map(|(slot, p)| {
            let mut stream = AddressStream::new(p, slot, seed);
            AppSpec {
                name: p.name().to_owned(),
                source: Box::new(TraceSource::new((0..OPS).map(|_| stream.next_op()).collect())),
                mem_probability: p.mem_probability(),
                mlp: p.mlp(),
            }
        })
        .collect()
}

fn system(case: &Case, skip_mode: bool) -> System {
    let apps = profiles();
    let mut config = SystemConfig::default();
    config.quantum = QUANTUM;
    config.skip_mode = skip_mode;
    config.scheduler = case.scheduler;
    (case.configure)(&mut config);
    let mut sys = match case.setup {
        Setup::Traces => System::from_specs(trace_specs(&apps, config.seed), config),
        Setup::Alone => System::new_alone(&apps, alone_config(&config), AppId::new(0)),
        _ => System::new(&apps, config),
    };
    match case.setup {
        Setup::Attribution => sys.enable_attribution(),
        Setup::Telemetry(sample) => sys.enable_telemetry(sample),
        Setup::Alone => sys.enable_progress_logging(),
        Setup::Plain | Setup::Traces | Setup::Prefix => {}
    }
    sys
}

fn llc_misses(sys: &System) -> u64 {
    (0..sys.app_count()).map(|i| sys.app_summary(AppId::new(i)).llc_misses).sum()
}

fn check(cases: Vec<Case>) {
    for case in cases {
        // Fast-forward is bitwise-exact, allocations included.
        for skip_mode in [true, false] {
            let mut sys = system(&case, skip_mode);
            sys.run_for(WARM_UP);
            let misses_before = llc_misses(&sys);
            let allocations = allocations_in(|| match case.setup {
                Setup::Prefix => sys.run_prefix(WINDOW),
                _ => sys.run_for(WINDOW),
            });
            let misses = llc_misses(&sys) - misses_before;
            let ctx = format!(
                "{} under {} (skip_mode = {skip_mode}, {misses} reads)",
                case.name, case.scheduler
            );
            assert!(misses > 10_000, "{ctx}: the window must be memory-bound");
            match case.allowed {
                Allowed::Exactly(n) => assert_eq!(allocations, n, "{ctx}"),
                Allowed::AtMost(bound) => {
                    assert!(allocations <= bound(misses), "{ctx}: {allocations} allocations");
                }
            }
        }
    }
}

#[test]
fn allocations_between_quantum_boundaries_are_pinned() {
    check(policy_matrix());
}

#[test]
fn every_machine_axis_is_allocation_free_between_boundaries() {
    check(machine_matrix());
}

#[test]
fn only_the_window_holding_a_quantum_boundary_allocates() {
    // Ten 100k-cycle windows from 2.55M to 3.55M: the fifth holds the
    // boundary at 3M — `System::end_quantum`, which builds the quantum's
    // record, estimates and per-app resets in 11 allocations. Every other
    // window is pure hot path.
    let mut sys = system(&policy_matrix()[0], true);
    sys.run_for(2 * QUANTUM + 550_000);
    let per_window: Vec<u64> =
        (0..10).map(|_| allocations_in(|| sys.run_for(100_000))).collect();
    assert_eq!(per_window, [0, 0, 0, 0, 11, 0, 0, 0, 0, 0]);
}
