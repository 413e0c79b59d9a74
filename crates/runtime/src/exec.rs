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

/// Map `f` over `items` on up to `threads` workers, preserving input
/// order in the output. Called from inside a pool worker, the map runs
/// inline on that worker. Panics in `f` propagate after all workers
/// stop claiming new work.
pub fn par_map_with<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 || in_worker() {
        return items.into_iter().map(f).collect();
    }

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

/// Default chunks-per-worker factor for [`chunk_size_for`]: enough
/// oversubscription that one slow chunk cannot idle the rest of the
/// pool, small enough that per-item dispatch overhead (one slot lock +
/// one cursor increment per item) is amortized across whole chunks.
pub const DEFAULT_OVERSUBSCRIPTION: usize = 4;

/// Default [`par_map_chunked`] serial threshold: batches at or under
/// this size skip thread dispatch entirely — spawning a scoped pool
/// costs more than mapping this many items inline.
pub const DEFAULT_SERIAL_THRESHOLD: usize = 32;

/// How one [`par_map_chunked`] call dispatched its batch, for callers
/// that surface granularity in their accounting (the service stack's
/// `Batched` layer, the search-scaling bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDispatch {
    /// Items per chunk (0 when the batch ran inline without chunking).
    pub chunk_size: usize,
    /// Number of chunks handed to the pool (0 when inline).
    pub chunks: usize,
    /// True when the batch went through the worker pool.
    pub dispatched: bool,
}

impl ChunkDispatch {
    /// The accounting of a batch that ran inline on the caller's thread.
    pub const INLINE: ChunkDispatch = ChunkDispatch {
        chunk_size: 0,
        chunks: 0,
        dispatched: false,
    };
}

/// Chunk size for dispatching `len` items over `threads` workers with
/// `oversubscription` chunks per worker: `⌈len / (threads ·
/// oversubscription)⌉`, floored at one. A saturating product keeps
/// degenerate "per-item" policies (`oversubscription = usize::MAX`)
/// well-defined: they yield chunk size 1.
pub fn chunk_size_for(len: usize, threads: usize, oversubscription: usize) -> usize {
    let slots = threads.max(1).saturating_mul(oversubscription.max(1));
    len.div_ceil(slots).max(1)
}

/// Map `f` over `items` in contiguous chunks through [`par_map_with`],
/// preserving input order in the output.
///
/// Granularity: the batch is cut into `threads × oversubscription`
/// chunks (see [`chunk_size_for`]) and the *chunks* are the pool's work
/// items — each worker claims a chunk and maps it serially, so per-item
/// pool overhead is paid once per chunk instead of once per item.
/// Batches of at most `serial_threshold` items, single-thread calls and
/// calls from inside a pool worker skip dispatch entirely and map
/// inline, reporting [`ChunkDispatch::INLINE`].
///
/// Determinism: chunks are contiguous input slices evaluated
/// left-to-right within a worker and re-flattened in chunk order, so the
/// output is element-for-element identical to the serial map at any
/// thread count, oversubscription, or threshold.
pub fn par_map_chunked<T, R, F>(
    items: Vec<T>,
    threads: usize,
    oversubscription: usize,
    serial_threshold: usize,
    f: F,
) -> (Vec<R>, ChunkDispatch)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads.max(1) == 1 || n <= serial_threshold || in_worker() {
        return (items.into_iter().map(f).collect(), ChunkDispatch::INLINE);
    }
    let chunk_size = chunk_size_for(n, threads, oversubscription);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(n.div_ceil(chunk_size));
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let dispatch = ChunkDispatch {
        chunk_size,
        chunks: chunks.len(),
        dispatched: true,
    };
    let mapped = par_map_with(chunks, threads, |chunk| {
        chunk.into_iter().map(&f).collect::<Vec<R>>()
    });
    (mapped.into_iter().flatten().collect(), dispatch)
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
            let inner = par_map_with((0..50u64).collect(), 4, |y| {
                (x * 100 + y, std::thread::current().id())
            });
            let (chunked, dispatch) = par_map_chunked((0..100u64).collect(), 4, 4, 0, |y| {
                (y + x, std::thread::current().id())
            });
            let on_me = inner.iter().chain(&chunked).all(|&(_, t)| t == me);
            let inner: Vec<u64> = inner.into_iter().map(|(v, _)| v).collect();
            let chunked: Vec<u64> = chunked.into_iter().map(|(v, _)| v).collect();
            (in_worker(), on_me, inner, chunked, dispatch)
        });
        for (x, (flag, on_me, inner, chunked, dispatch)) in (0u64..).zip(outer) {
            assert!(flag, "outer items run on spawned workers");
            assert!(on_me, "nested maps must stay on the worker's thread");
            assert_eq!(inner, (0..50).map(|y| x * 100 + y).collect::<Vec<_>>());
            assert_eq!(chunked, (0..100).map(|y| y + x).collect::<Vec<_>>());
            assert_eq!(
                dispatch,
                ChunkDispatch::INLINE,
                "inline batches report INLINE"
            );
        }
        assert!(!in_worker(), "the flag never leaks to the caller");
    }

    #[test]
    fn a_serial_outer_level_lets_the_inner_level_fan_out() {
        // one item or one thread: the outer map runs on the caller, so
        // the inner map is the only level and may use the pool
        for (items, threads) in [(1usize, 4usize), (3, 1)] {
            let out = par_map_with(vec![(); items], threads, |()| {
                let (_, d) = par_map_chunked((0..100usize).collect(), 4, 4, 0, |y| y);
                (in_worker(), d.dispatched)
            });
            assert!(
                out.iter().all(|&o| o == (false, true)),
                "{items} x {threads}: {out:?}"
            );
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

    // ---- chunked dispatch -----------------------------------------

    #[test]
    fn chunk_size_covers_the_batch_in_thread_times_oversub_chunks() {
        assert_eq!(chunk_size_for(1000, 8, 4), 32, "⌈1000/32⌉");
        assert_eq!(chunk_size_for(33, 4, 4), 3);
        assert_eq!(chunk_size_for(5, 8, 4), 1, "floored at one");
        assert_eq!(chunk_size_for(0, 8, 4), 1);
        assert_eq!(
            chunk_size_for(100, 0, 0),
            100,
            "degenerate zeros floor to 1×1"
        );
        assert_eq!(chunk_size_for(100, 2, usize::MAX), 1, "per-item policy");
    }

    #[test]
    fn chunked_matches_serial_at_any_configuration() {
        let items: Vec<usize> = (0..151).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            for oversub in [1, 4, usize::MAX] {
                for threshold in [0, 32, 1000] {
                    let (out, d) =
                        par_map_chunked(items.clone(), threads, oversub, threshold, |x| x * 3 + 1);
                    assert_eq!(out, expected, "threads={threads} oversub={oversub}");
                    if d.dispatched {
                        assert_eq!(d.chunk_size, chunk_size_for(items.len(), threads, oversub));
                        assert_eq!(d.chunks, items.len().div_ceil(d.chunk_size));
                    } else {
                        assert_eq!(d, ChunkDispatch::INLINE);
                    }
                }
            }
        }
    }

    #[test]
    fn small_batches_and_single_thread_skip_dispatch() {
        let (_, d) = par_map_chunked((0..32).collect::<Vec<usize>>(), 8, 4, 32, |x| x);
        assert!(!d.dispatched, "batch at the threshold stays inline");
        let (_, d) = par_map_chunked((0..33).collect::<Vec<usize>>(), 8, 4, 32, |x| x);
        assert!(d.dispatched, "batch over the threshold goes to the pool");
        let (_, d) = par_map_chunked((0..1000).collect::<Vec<usize>>(), 1, 4, 32, |x| x);
        assert!(!d.dispatched, "one thread never pays dispatch overhead");
        let (out, d) = par_map_chunked(Vec::<usize>::new(), 8, 4, 0, |x| x);
        assert!(out.is_empty());
        assert!(!d.dispatched, "empty batch is inline");
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn chunked_worker_panic_propagates() {
        let _ = par_map_chunked((0..100).collect::<Vec<usize>>(), 2, 4, 0, |x| {
            if x == 77 {
                panic!("boom");
            }
            x
        });
    }
}
