//! A deterministic scoped-thread worker pool.
//!
//! [`run_ordered`] fans a list of independent jobs out across `jobs`
//! worker threads and returns the results **in submission order**, so a
//! caller that folds the returned `Vec` sequentially produces output that
//! is byte-identical for any thread count. Thread count is *schedule-only*
//! state (see DESIGN.md §8): it decides which core computes which item and
//! in what wall-clock order, never what any item computes.
//!
//! The pool is dependency-free (`std::thread::scope` only — the workspace
//! builds offline) and lives here, in the harness crate, because R6
//! (DESIGN.md §8, owned by clippy's `disallowed_methods`) bans threads from
//! the eleven simulation crates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` over every item of `items` on up to `jobs` worker threads and
/// returns the results in item order.
///
/// `f` is called as `f(index, &items[index])`; indices are claimed from a
/// shared counter, so workers stay busy regardless of per-item cost
/// imbalance. `jobs` is clamped to `1..=items.len()`; with `jobs == 1` the
/// items run inline on the caller's thread (no spawn overhead, identical
/// results).
///
/// # Panics
///
/// If a worker's `f` panics, the panic is propagated to the caller with
/// the offending item index prefixed to the message (the merge never
/// hangs); remaining workers stop claiming new items first.
pub fn run_ordered<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, items.len());
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // One slot per item: workers write disjoint indices, the caller drains
    // them in order afterwards. Mutex<Option<R>> per slot keeps this safe
    // without unsafe code; each lock is touched exactly twice.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => {
                        *slots[i].lock().expect("result slot lock cannot be poisoned") = Some(r);
                    }
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut first = failure
                            .lock()
                            .expect("failure slot lock cannot be poisoned");
                        // Keep the lowest item index so the report is
                        // deterministic enough to act on.
                        match &*first {
                            Some((j, _)) if *j <= i => {}
                            _ => *first = Some((i, payload)),
                        }
                        break;
                    }
                }
            });
        }
    });

    if let Some((i, payload)) = failure
        .into_inner()
        .expect("failure slot lock cannot be poisoned")
    {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        panic!("parallel worker panicked on item {i}: {msg}");
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock cannot be poisoned")
                .expect("no worker panicked, so every claimed slot was filled")
        })
        .collect()
}

/// The default worker count: one per available core. Environment-dependent
/// by design — and safe, because thread count is schedule-only state (the
/// merge order, and therefore every result, is fixed by [`run_ordered`]).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = run_ordered(8, &items, |i, &x| {
            // Stagger completion so late items often finish first.
            std::thread::sleep(std::time::Duration::from_micros((50 - i as u64) * 10));
            x * 2
        });
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_matches_jobs_many() {
        let items: Vec<u64> = (0..32).collect();
        let seq = run_ordered(1, &items, |i, &x| x.wrapping_mul(i as u64 + 3));
        let par = run_ordered(4, &items, |i, &x| x.wrapping_mul(i as u64 + 3));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = run_ordered(4, &[], |_, _: &u64| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let out = run_ordered(0, &[1u64, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_propagates_with_item_index() {
        let items: Vec<u64> = (0..16).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(4, &items, |_, &x| {
                assert!(x != 5, "injected failure");
                x
            })
        }));
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("propagated panic carries a String message");
        assert!(
            msg.contains("item 5") && msg.contains("injected failure"),
            "message should name the item and cause: {msg}"
        );
    }

    #[test]
    fn sequential_path_panics_too() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(1, &[1u64], |_, _| panic!("boom in sequential path"))
        }));
        assert!(result.is_err());
    }
}
