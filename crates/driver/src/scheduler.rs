//! The wave scheduler's worker pool.
//!
//! [`run_indexed`] executes `n` independent tasks on up to `workers`
//! scoped `std::thread`s and returns the results *in task order*, which is
//! what makes the parallel driver's merges deterministic: however the
//! OS interleaves the workers, the caller applies outputs in the same
//! order the sequential solver would have produced them.

use retypd_core::sync::atomic::{AtomicUsize, Ordering};
use retypd_core::sync::Mutex;

/// Runs `f(0..n)` across up to `workers` threads, returning results indexed
/// by task. Work is distributed by an atomic cursor (tasks are coarse —
/// whole SCC solves or whole modules — so contention is negligible).
/// Panics in any task propagate to the caller once the scope joins.
pub fn run_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Trace context is thread-local; carry the dispatching thread's trace
    // id into every worker so spans emitted inside tasks attribute to the
    // request that scheduled them.
    let trace = retypd_telemetry::current_trace();
    // retypd-lint: allow(no-raw-thread) scoped spawns are not modeled
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _trace = retypd_telemetry::set_current_trace(trace);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().expect("result slot") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every task index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order() {
        for workers in [1, 2, 8] {
            let out = run_indexed(37, workers, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_single_task() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 1), vec![1]);
    }
}
