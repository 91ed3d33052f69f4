//! Minimal scoped-thread fan-out for the experiment pipeline.
//!
//! The build environment has no network access, so `rayon` is not
//! available; this module provides the one primitive the pipeline needs —
//! an order-preserving parallel map over a slice — on plain
//! `std::thread::scope` with an atomic work index. Results come back in
//! input order regardless of completion order, so callers that fold them
//! sequentially stay deterministic.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

/// Upper bound on worker threads; set `DISTVLIW_THREADS` to override the
/// detected parallelism (e.g. `DISTVLIW_THREADS=1` forces serial runs for
/// timing comparisons).
fn worker_count(items: usize) -> usize {
    let detected = std::env::var("DISTVLIW_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    detected.min(items)
}

/// Applies `f` to every item of `items` concurrently, returning the
/// results in input order. Falls back to a serial loop for a single item
/// or a single worker.
///
/// # Panics
///
/// Re-raises the first panic from `f`, with its original payload, once
/// every worker has stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Worker threads inherit the caller's trace context so spans opened
    // inside `f` (compile, sim, sweep cells) stay attached to the
    // requesting trace; this is the single propagation point for every
    // fan-out in the workspace.
    let ctx = distvliw_obs::trace::current_ctx();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    // A worker catches a panic from `f` itself and parks the payload
    // here: left to unwind, `scope` would re-raise it as a generic "a
    // scoped thread panicked" and lose the cause. The first payload wins
    // and stops the hand-out of further items.
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let slots = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, f, panicked) = (&next, &f, &panicked);
            let ctx = ctx.clone();
            scope.spawn(move || {
                distvliw_obs::trace::with_ctx(ctx, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(r) => {
                            if tx.send((i, r)).is_err() {
                                break;
                            }
                        }
                        Err(payload) => {
                            next.store(items.len(), Ordering::Relaxed);
                            panicked
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .get_or_insert(payload);
                            break;
                        }
                    }
                });
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
    });
    // Every worker has joined: re-raise the first panic with its own
    // payload before any slot is unwrapped.
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker produced every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_work() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_orders() {
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, |&x| {
            // Early items take longest: exercises out-of-order completion.
            std::thread::sleep(std::time::Duration::from_micros(320 - x * 10));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn worker_panic_message_propagates() {
        let items = vec![1u32, 2, 3, 4];
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 3, "kernel exploded");
                x
            })
        });
        let err = result.unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("kernel exploded"), "masked panic: {msg:?}");
    }

    #[test]
    fn a_panic_stops_the_hand_out_of_items() {
        // Every item panics, but each worker stops at its own first
        // panic, so `f` runs at most once per worker.
        let items: Vec<u32> = (0..10_000).collect();
        let calls = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("item {x} exploded")
            })
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.ends_with(" exploded"), "masked panic: {msg:?}");
        assert!(calls.into_inner() <= worker_count(items.len()));
    }

    #[test]
    fn errors_pass_through_as_values() {
        let items = vec![1u32, 0, 3];
        let out = par_map(&items, |&x| if x == 0 { Err("zero") } else { Ok(x) });
        assert_eq!(out, vec![Ok(1), Err("zero"), Ok(3)]);
    }
}
