//! Ground truth for lint rule R9 ("no heap allocation on the hot path").
//!
//! R9 is a lexical list over the functions reachable from
//! `System::{step, run_for, run_prefix}` — `vec!`, `format!`, `to_owned`,
//! `to_string`, `to_vec`, `collect`, `with_capacity`, `Box::new`,
//! `String::from` — and a fn-level `allow(R9)` takes a whole quantum/epoch/
//! batch boundary out of it. A `push` that grows a `Vec` or a `clone` of one
//! is invisible to that list. This test measures what the rule approximates:
//! a counting `#[global_allocator]` (this test binary only) around
//! `System::run_for` *between* quantum boundaries, over the scheduler,
//! cache-policy, estimator and instrument matrix, with fast-forward on and
//! off. The counts are a pure function of config + seed, so they are pinned;
//! a new per-cycle or per-request allocation anywhere under `System::step`
//! fails here whether or not R9 can spell it.

use std::alloc::{GlobalAlloc, Layout, System as OsAllocator};
use std::cell::Cell;

use asm_repro::core::{CachePolicy, EstimatorSet, MemPolicy, System, SystemConfig};
use asm_repro::dram::sched::{SchedulerKind, TcmConfig};
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
/// boundaries (`Hierarchy::begin_epoch`, an `allow(R9)` fn): none allocates.
const WINDOW: Cycle = 900_000;

/// What a case's window may allocate.
enum Allowed {
    /// The deterministic count, pinned.
    Exactly(u64),
    /// A boundary-rate bound, given the LLC misses (= DRAM reads) the window
    /// served: far below one allocation per request or per cycle.
    AtMost(fn(misses: u64) -> u64),
}

/// One row of the matrix.
struct Case {
    name: &'static str,
    configure: fn(&mut SystemConfig),
    attribution: bool,
    telemetry: bool,
    allowed: Allowed,
}

/// Every `Exactly` cell is 0: the window serves ~13,000 reads without one
/// allocator call. (`Channel::push_read` pushes onto `bank_members[bank]`,
/// which R9 cannot see; `Channel::new` reserves each list at the read-queue
/// capacity, so the push never grows one.)
fn matrix() -> Vec<Case> {
    let case = |name, configure, allowed| Case {
        name,
        configure,
        attribution: false,
        telemetry: false,
        allowed,
    };
    vec![
        case("FR-FCFS", |_| {}, Allowed::Exactly(0)),
        // `Parbs::form_batch` (`allow(R9)`: batch boundary) builds four
        // scratch vectors, plus a sort buffer past 20 queued requests: at
        // most 5 allocations per batch. Batches are not observable from
        // here, but each must drain every request it marked before the next
        // forms, and under this memory-bound mix a batch marks dozens — so
        // a tenth of the window's reads bounds 5 × batches from above
        // (measured: 809 against 12,775 reads) and sits a factor of ten
        // below one allocation per request.
        case(
            "PARBS",
            |c| c.scheduler = SchedulerKind::Parbs,
            Allowed::AtMost(|misses| misses / 10),
        ),
        // `Tcm::shuffle_ranks` and `Tcm::recluster` (both `allow(R9)`:
        // shuffle / TCM-quantum boundary) each build one apps-sized vector:
        // 1 allocation per boundary event (measured: 108).
        case(
            "TCM",
            |c| c.scheduler = SchedulerKind::Tcm,
            Allowed::AtMost(|_| {
                let tcm = TcmConfig::default();
                WINDOW / tcm.shuffle_interval + WINDOW / tcm.cluster_interval + 2
            }),
        ),
        case("ATLAS", |c| c.scheduler = SchedulerKind::Atlas, Allowed::Exactly(0)),
        case("BLISS", |c| c.scheduler = SchedulerKind::Bliss, Allowed::Exactly(0)),
        case("UCP", |c| c.cache_policy = CachePolicy::Ucp, Allowed::Exactly(0)),
        case("MCFQ", |c| c.cache_policy = CachePolicy::Mcfq, Allowed::Exactly(0)),
        case("ASM-Cache", |c| c.cache_policy = CachePolicy::AsmCache, Allowed::Exactly(0)),
        case("ASM-Mem", |c| c.mem_policy = MemPolicy::SlowdownWeighted, Allowed::Exactly(0)),
        case("all estimators", |c| c.estimators = EstimatorSet::all(), Allowed::Exactly(0)),
        Case { attribution: true, ..case("attribution", |_| {}, Allowed::Exactly(0)) },
        Case { telemetry: true, ..case("telemetry", |_| {}, Allowed::Exactly(0)) },
    ]
}

fn system(case: &Case, skip_mode: bool) -> System {
    let apps: Vec<_> = ["mcf_like", "libquantum_like", "soplex_like", "h264ref_like"]
        .iter()
        .map(|name| suite::by_name(name).expect("suite profile exists"))
        .collect();
    let mut config = SystemConfig::default();
    config.quantum = QUANTUM;
    config.skip_mode = skip_mode;
    (case.configure)(&mut config);
    let mut sys = System::new(&apps, config);
    if case.attribution {
        sys.enable_attribution();
    }
    if case.telemetry {
        sys.enable_telemetry(None);
    }
    sys
}

fn llc_misses(sys: &System) -> u64 {
    (0..sys.app_count()).map(|i| sys.app_summary(AppId::new(i)).llc_misses).sum()
}

#[test]
fn allocations_between_quantum_boundaries_are_pinned() {
    for case in matrix() {
        // Fast-forward is bitwise-exact, allocations included.
        for skip_mode in [true, false] {
            let mut sys = system(&case, skip_mode);
            sys.run_for(WARM_UP);
            let misses_before = llc_misses(&sys);
            let allocations = allocations_in(|| sys.run_for(WINDOW));
            let misses = llc_misses(&sys) - misses_before;
            assert!(misses > 10_000, "{}: the window must be memory-bound", case.name);
            let ctx = format!("{} (skip_mode = {skip_mode}, {misses} reads)", case.name);
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
fn only_the_window_holding_a_quantum_boundary_allocates() {
    // Ten 100k-cycle windows from 2.55M to 3.55M: the fifth holds the
    // boundary at 3M — `System::end_quantum` (`allow(R9)`), which builds the
    // quantum's record, estimates and per-app resets in 11 allocations.
    // Every other window is pure hot path.
    let mut sys = system(&matrix()[0], true);
    sys.run_for(2 * QUANTUM + 550_000);
    let per_window: Vec<u64> =
        (0..10).map(|_| allocations_in(|| sys.run_for(100_000))).collect();
    assert_eq!(per_window, [0, 0, 0, 0, 11, 0, 0, 0, 0, 0]);
}
