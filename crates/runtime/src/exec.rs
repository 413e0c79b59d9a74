//! Deterministic parallel map over independent work items.
//!
//! Both the MRE experiment grids (hundreds of independent (scenario,
//! fraction, architecture) training cells) and the inter-stage plan
//! search (thousands of independent stage-latency evaluations)
//! parallelize trivially on multi-core hosts. This is a small
//! work-stealing `par_map` built on std's scoped threads and a shared
//! atomic cursor: each worker claims the next unprocessed index, so
//! results land at their input positions and the output order (and with
//! per-item seeding, every number) is identical at any thread count.
//!
//! Thread count comes from `PREDTOP_THREADS` (default: available
//! parallelism), clamped to the item count. An unparsable
//! `PREDTOP_THREADS` value warns once on stderr and falls back to the
//! default rather than silently ignoring the operator's intent.
//!
//! # Nested calls run inline
//!
//! A `par_map` called from inside a pool worker (a training cell that
//! runs a large matmul, a plan-search worker that runs a predictor
//! forward) maps its items inline on that worker instead of spawning a
//! second level of threads: the outer level already occupies the
//! cores, and a nested fan-out would only oversubscribe them. The rule
//! keys on a thread-local flag set only in spawned workers, so a
//! serial outer level (one item, or one thread, both mapped on the
//! caller's thread) still lets the inner level fan out. Results cannot
//! change: every map lands results at their input indices, identical
//! at any thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Parse a `PREDTOP_THREADS` value. Returns `None` when the string is
/// not a base-10 unsigned integer (callers decide the fallback); `0`
/// parses successfully and is floored to one thread by
/// [`configured_threads`].
pub fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

static PARSE_WARNING: Once = Once::new();

/// Resolve the worker count: `PREDTOP_THREADS` if set and parsable
/// (floored at 1), else the machine's available parallelism.
///
/// A set-but-unparsable `PREDTOP_THREADS` logs a warning to stderr the
/// first time it is seen instead of silently falling back.
pub fn configured_threads() -> usize {
    if let Some(v) = std::env::var_os("PREDTOP_THREADS") {
        let raw = v.to_string_lossy();
        match parse_threads(&raw) {
            Some(n) => return n.max(1),
            None => PARSE_WARNING.call_once(|| {
                eprintln!(
                    "warning: PREDTOP_THREADS={raw:?} is not an unsigned integer; \
                     falling back to available parallelism"
                );
            }),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

std::thread_local! {
    /// Set for the lifetime of every worker [`par_map_with`] spawns.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a thread spawned as a [`par_map_with`] pool worker. Every
/// map called there runs inline (see the module docs); kernels that
/// size their own fan-out read this to stay on one thread.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// True when [`par_map_with`] over `len` items on `threads` workers
/// spawns a pool: at least two items and two threads, called from
/// outside a pool worker. Every other map runs inline on the caller.
pub fn fans_out(len: usize, threads: usize) -> bool {
    threads.min(len) > 1 && !in_worker()
}

/// Map `f` over `items` on up to `threads` workers, preserving input
/// order in the output. Each item is its own task: a worker that
/// finishes one claims the next unclaimed index, so one expensive item
/// never holds cheap ones hostage behind it. Maps that do not
/// [`fans_out`] run inline on the caller. Panics in `f` propagate after
/// all workers stop claiming new work.
pub fn par_map_with<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if !fans_out(n, threads) {
        return items.into_iter().map(f).collect();
    }
    let threads = threads.min(n);

    // wrap each item so workers can take them by index
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("slot lock never poisoned: f runs outside it")
                            .take()
                            .expect("each index claimed once");
                        let r = f(item);
                        *results[i]
                            .lock()
                            .expect("result lock never poisoned: f runs outside it") = Some(r);
                    }
                })
            })
            .collect();
        // join every handle (no short-circuit): a panic left unjoined
        // would be re-propagated by `scope` itself with its own message
        let mut any_panicked = false;
        for h in handles {
            any_panicked |= h.join().is_err();
        }
        any_panicked
    });
    if panicked {
        panic!("worker panicked");
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock never poisoned")
                .expect("every index produced a result")
        })
        .collect()
}

/// [`par_map_with`] at the configured thread count.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(items, configured_threads(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let out = par_map_with(items.clone(), threads, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map_with(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_match_sequential_for_nontrivial_work() {
        let items: Vec<u64> = (1..=20).collect();
        let seq: Vec<u64> = items.iter().map(|&x| (1..=x).product()).collect();
        let par = par_map_with(items, 4, |x| (1..=x).product::<u64>());
        assert_eq!(par, seq);
    }

    #[test]
    fn parse_threads_accepts_integers_only() {
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads(" 12 "), Some(12), "whitespace is trimmed");
        assert_eq!(
            parse_threads("0"),
            Some(0),
            "zero parses; floor applied later"
        );
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("2.5"), None);
    }

    /// All the env-var cases live in one test: `std::env::set_var`
    /// affects the whole process, and cargo runs a binary's tests on
    /// concurrent threads.
    #[test]
    fn configured_threads_env_paths() {
        std::env::set_var("PREDTOP_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var("PREDTOP_THREADS", "0");
        assert_eq!(configured_threads(), 1, "floored at one");
        // unparsable: warns (once) and falls back to the default
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        std::env::set_var("PREDTOP_THREADS", "not-a-number");
        assert_eq!(configured_threads(), fallback);
        std::env::set_var("PREDTOP_THREADS", "also!bad");
        assert_eq!(configured_threads(), fallback, "stays on fallback");
        std::env::remove_var("PREDTOP_THREADS");
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn nested_maps_run_inline_on_the_worker_thread() {
        assert!(!in_worker(), "a test thread is not a pool worker");
        let outer = par_map_with((0..6u64).collect(), 3, |x| {
            let me = std::thread::current().id();
            let fanned = fans_out(50, 4);
            let inner = par_map_with((0..50u64).collect(), 4, |y| {
                (x * 100 + y, std::thread::current().id())
            });
            let on_me = inner.iter().all(|&(_, t)| t == me);
            let inner: Vec<u64> = inner.into_iter().map(|(v, _)| v).collect();
            (in_worker(), on_me, inner, fanned)
        });
        for (x, (flag, on_me, inner, fanned)) in (0u64..).zip(outer) {
            assert!(flag, "outer items run on spawned workers");
            assert!(on_me, "nested maps must stay on the worker's thread");
            assert!(!fanned, "fans_out reports the inline rule inside a worker");
            assert_eq!(inner, (0..50).map(|y| x * 100 + y).collect::<Vec<_>>());
        }
        assert!(!in_worker(), "the flag never leaks to the caller");
    }

    #[test]
    fn a_serial_outer_level_lets_the_inner_level_fan_out() {
        // one item or one thread: the outer map runs on the caller, so
        // the inner map is the only level and may use the pool
        for (items, threads) in [(1usize, 4usize), (3, 1)] {
            let out = par_map_with(vec![(); items], threads, |()| {
                let inner = par_map_with((0..100usize).collect(), 4, |_| in_worker());
                (in_worker(), fans_out(100, 4), inner.iter().all(|&w| w))
            });
            assert!(
                out.iter().all(|&o| o == (false, true, true)),
                "{items} x {threads}: {out:?}"
            );
        }
    }

    #[test]
    fn small_batches_and_single_thread_skip_dispatch() {
        assert!(!fans_out(0, 8), "an empty batch is inline");
        assert!(!fans_out(1, 8), "a single item runs on the caller");
        assert!(fans_out(2, 8), "two items fan out");
        assert!(
            !fans_out(1000, 1),
            "one thread never pays dispatch overhead"
        );
        assert!(!fans_out(1000, 0), "zero threads floor to one");
        // inline maps run on the caller's thread
        let me = std::thread::current().id();
        for (items, threads) in [(1usize, 8usize), (1000, 1)] {
            let ids = par_map_with(vec![(); items], threads, |()| std::thread::current().id());
            assert!(ids.iter().all(|&t| t == me), "{items} x {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let _ = par_map_with(vec![1, 2, 3, 4], 2, |x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
