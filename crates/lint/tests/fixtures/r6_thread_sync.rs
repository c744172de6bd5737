//! Fixture: R6 — threads and synchronisation primitives in simulation
//! code. Parallelism belongs to the harness crate (`experiments`); the
//! simulator itself must stay single-threaded.

use std::sync::Mutex;
use std::thread;

fn spawn_worker() {
    let h = std::thread::spawn(|| 7);
    let _ = h.join();
}

fn locked_counter(m: &Mutex<u64>) -> u64 {
    *m.lock().expect("fixture lock is never poisoned")
}

fn atomic_counter() -> usize {
    let c = std::sync::atomic::AtomicUsize::new(0);
    c.load(std::sync::atomic::Ordering::SeqCst)
}

fn shared_ownership_is_fine(x: std::sync::Arc<u64>) -> u64 {
    *x
}

#[cfg(test)]
mod tests {
    // Tests may synchronise freely: they are not simulation code.
    use std::thread;

    fn parallel_in_tests_is_fine() {
        thread::yield_now();
    }
}
