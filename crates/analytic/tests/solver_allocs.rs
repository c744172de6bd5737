//! The allocation leg of the hot-path rule (DESIGN.md §8, R9) for the
//! analytic tier: `MixSolver::{alone, solve}` — the per-mix fixed point
//! every analytic campaign runs hundreds of times — make no allocator call.
//! `MixSolver::solution` materialises the result and is outside the rule.
//!
//! A counting `#[global_allocator]` (this test binary only) counts real
//! allocator calls, so a `push` that grows or a `clone` of a `Vec` counts
//! like a `vec!`. The count is pinned at 0 over every suite profile's alone
//! fit and a solve of every mix size from 1 to `MAX_APPS`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asm_analytic::model::MAX_APPS;
use asm_analytic::{AloneFit, AnalyticConfig, MixSolver, ProfileParams, ReuseProfile};
use asm_core::SystemConfig;
use asm_workloads::suite;

thread_local! {
    /// Allocator calls made by this thread (the test harness allocates on
    /// its own threads; the solver runs on the test's).
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
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's layout and contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // A `push` that grows is a `realloc`: it counts.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's pointer, layout and contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer, layout and contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
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

#[test]
fn alone_and_solve_make_no_allocation() {
    let config = SystemConfig::default();
    let params = ProfileParams::from_system(&config);
    let profiles: Vec<ReuseProfile> = suite::all()
        .iter()
        .map(|p| ReuseProfile::extract(p, &params))
        .collect();
    // Every mix size, cycling through the suite so each profile (and so
    // each workload class) takes part.
    let mixes: Vec<Vec<&ReuseProfile>> = (1..=MAX_APPS)
        .map(|n| {
            (0..n)
                .map(|i| &profiles[(n + i) % profiles.len()])
                .collect()
        })
        .collect();
    let mut solver = MixSolver::new(AnalyticConfig::from_system(&config));
    let mut fits = [AloneFit {
        cpi: 1.0,
        miss: 0.0,
    }; MAX_APPS];

    for mix in &mixes {
        let allocations = allocations_in(|| {
            for (fit, app) in fits.iter_mut().zip(mix) {
                *fit = solver.alone(app);
            }
            solver.solve(mix, &fits[..mix.len()]);
        });
        assert_eq!(allocations, 0, "a {}-app mix", mix.len());
        // The solve converged to something: the pin is not vacuous.
        let solution = solver.solution(mix);
        assert!(solution
            .slowdowns
            .iter()
            .all(|s| s.is_finite() && *s >= 1.0));
    }
}
