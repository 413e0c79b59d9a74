//! The batch-evaluation layer: fan a whole query batch out across the
//! deterministic worker pool, one query per task.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use predtop_runtime::{fans_out, par_map_with};

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Dispatch counters of a [`Batched`] layer, snapshot at any point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batches observed (`query_batch` calls).
    pub batches: usize,
    /// Batches fanned out across the worker pool.
    pub dispatched: usize,
    /// Batches run inline (one thread, fewer than two queries, or
    /// called from inside a pool worker).
    pub inline: usize,
    /// Pool tasks handed out across all dispatched batches: one per
    /// dispatched query.
    pub chunks: usize,
}

#[derive(Debug)]
pub(crate) struct BatchState {
    threads: usize,
    batches: AtomicUsize,
    dispatched: AtomicUsize,
    inline: AtomicUsize,
    chunks: AtomicUsize,
}

impl BatchState {
    fn new(threads: usize) -> BatchState {
        BatchState {
            threads: threads.max(1),
            batches: AtomicUsize::new(0),
            dispatched: AtomicUsize::new(0),
            inline: AtomicUsize::new(0),
            chunks: AtomicUsize::new(0),
        }
    }

    fn record(&self, queries: usize, dispatched: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if dispatched {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            self.chunks.fetch_add(queries, Ordering::Relaxed);
        } else {
            self.inline.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
        }
    }
}

/// Shared view of a [`Batched`] layer's dispatch counters, usable after
/// the layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct BatchHandle(pub(crate) Arc<BatchState>);

impl BatchHandle {
    /// Dispatch counters accumulated since the layer was built.
    pub fn stats(&self) -> BatchStats {
        self.0.stats()
    }

    /// The worker-pool size the layer fans batches out over, so work
    /// the search does beside the batch can run at the same width.
    pub fn threads(&self) -> usize {
        self.0.threads
    }
}

/// Middleware that overrides [`LatencyService::query_batch`] with a
/// `predtop-runtime` fan-out: every query is its own pool task, claimed
/// by whichever of `threads` workers is free next, and every reply
/// lands at its query's index.
///
/// One query per claim is what keeps skewed batches balanced: a
/// predictor source pays a whole forward pass for the first query of
/// each stage structure and a cache lookup for the rest, and those
/// first touches cluster at the front of a search's work-list. Because
/// the pool preserves input order (results land at their input
/// positions regardless of which worker computed them), a batch through
/// this layer is *bit-identical* to the serial default at any thread
/// count — this is the layer that gives the plan-search engine its
/// parallel candidate evaluation without giving up determinism.
///
/// A batch runs inline when the pool would not fan out: one thread,
/// fewer than two queries, or a call from inside a pool worker. Single
/// queries pass straight through.
pub struct Batched<S> {
    inner: S,
    state: Arc<BatchState>,
}

impl<S> Batched<S> {
    /// Fan batches out over exactly `threads` workers (floored at 1).
    pub fn new(inner: S, threads: usize) -> Batched<S> {
        Batched {
            inner,
            state: Arc::new(BatchState::new(threads)),
        }
    }

    /// The worker-pool size batches fan out over.
    pub fn threads(&self) -> usize {
        self.state.threads
    }

    /// A shareable handle onto this layer's dispatch counters.
    pub fn handle(&self) -> BatchHandle {
        BatchHandle(self.state.clone())
    }

    /// Dispatch counters accumulated since construction.
    pub fn stats(&self) -> BatchStats {
        self.state.stats()
    }
}

impl<S: LatencyService> LatencyService for Batched<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        self.inner.query(q)
    }

    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        let threads = self.state.threads;
        self.state.record(qs.len(), fans_out(qs.len(), threads));
        par_map_with(qs.iter().collect(), threads, |q| self.inner.query(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::counting_service;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn queries(layers: usize) -> Vec<LatencyQuery> {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = layers;
        let mut out = Vec::new();
        for start in 0..layers {
            for end in start + 1..=layers {
                out.push(LatencyQuery::new(
                    StageSpec::new(m, start, end),
                    MeshShape::new(1, 1),
                    ParallelConfig::SERIAL,
                ));
            }
        }
        out
    }

    #[test]
    fn batch_matches_serial_at_any_thread_count() {
        let qs = queries(8); // 36 queries
        let (svc, _) = counting_service();
        let serial: Vec<f64> = qs.iter().map(|q| svc.query(q).unwrap().seconds).collect();
        for threads in [1, 2, 4, 8] {
            let (svc, calls) = counting_service();
            let batched = Batched::new(svc, threads);
            let replies = batched.query_batch(&qs);
            assert_eq!(replies.len(), qs.len());
            for (i, r) in replies.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap().seconds.to_bits(), serial[i].to_bits());
            }
            assert_eq!(
                calls.load(std::sync::atomic::Ordering::Relaxed),
                qs.len(),
                "every query reaches the inner service exactly once"
            );
        }
    }

    /// A source whose first query blocks until every other query of the
    /// batch has been answered: the most skewed batch there is. It
    /// completes only if no other query is queued behind the first one
    /// on the same worker.
    struct FirstWaitsForTheRest {
        first: LatencyQuery,
        others: usize,
        answered: Mutex<usize>,
        all_answered: Condvar,
    }

    impl LatencyService for FirstWaitsForTheRest {
        fn name(&self) -> &'static str {
            "first-waits-for-the-rest"
        }

        fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            let mut answered = self.answered.lock().unwrap();
            if *q == self.first {
                // the bound is only reached when the batch deadlocks
                let (_answered, wait) = self
                    .all_answered
                    .wait_timeout_while(answered, Duration::from_secs(60), |n| *n < self.others)
                    .unwrap();
                assert!(
                    !wait.timed_out(),
                    "queries queued behind the first one were never claimed"
                );
            } else {
                *answered += 1;
                self.all_answered.notify_all();
            }
            Ok(LatencyReply {
                seconds: q.stage.num_layers() as f64,
                source: self.name(),
            })
        }
    }

    #[test]
    fn a_skewed_batch_is_claimed_one_query_at_a_time() {
        let qs = queries(8); // 36 queries
        let batched = Batched::new(
            FirstWaitsForTheRest {
                first: qs[0],
                others: qs.len() - 1,
                answered: Mutex::new(0),
                all_answered: Condvar::new(),
            },
            2,
        );
        let replies = batched.query_batch(&qs);
        for (q, r) in qs.iter().zip(&replies) {
            assert_eq!(r.as_ref().unwrap().seconds, q.stage.num_layers() as f64);
        }
        assert_eq!(batched.stats().chunks, qs.len());
    }

    #[test]
    fn dispatch_accounting_distinguishes_inline_from_fanout() {
        let qs = queries(8); // 36 queries
        let (svc, _) = counting_service();
        let batched = Batched::new(svc, 4);
        batched.query_batch(&qs);
        let s = batched.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.dispatched, 1);
        assert_eq!(s.inline, 0);
        assert_eq!(s.chunks, qs.len(), "one pool task per query");
        // a single query has nothing to fan out
        batched.query_batch(&qs[..1]);
        let s = batched.stats();
        assert_eq!((s.batches, s.dispatched, s.inline, s.chunks), (2, 1, 1, 36));
        // small batches fan out too
        batched.query_batch(&qs[..2]);
        let s = batched.stats();
        assert_eq!((s.batches, s.dispatched, s.inline, s.chunks), (3, 2, 1, 38));
        // the handle observes the same counters and width after the
        // layer moves
        let handle = batched.handle();
        assert_eq!(handle.stats(), s);
        assert_eq!(handle.threads(), 4);
        assert_eq!(Batched::new(counting_service().0, 0).handle().threads(), 1);
    }

    #[test]
    fn single_thread_runs_inline_even_above_threshold() {
        let qs = queries(8); // 36 queries: far above the two that fan out
        let (svc, _) = counting_service();
        let batched = Batched::new(svc, 1);
        batched.query_batch(&qs);
        assert_eq!(batched.stats().dispatched, 0);
        assert_eq!(batched.stats().inline, 1);
        assert_eq!(batched.stats().chunks, 0);
    }

    #[test]
    fn a_batch_inside_a_pool_worker_runs_inline_and_counts_as_inline() {
        let qs = queries(8); // 36 queries
        let (svc, _) = counting_service();
        let serial: Vec<u64> = qs
            .iter()
            .map(|q| svc.query(q).unwrap().seconds.to_bits())
            .collect();
        let (svc, _) = counting_service();
        let batched = Batched::new(svc, 4);
        let nested = predtop_runtime::par_map_with(vec![(); 2], 2, |()| {
            batched
                .query_batch(&qs)
                .into_iter()
                .map(|r| r.unwrap().seconds.to_bits())
                .collect::<Vec<_>>()
        });
        assert!(nested.iter().all(|bits| *bits == serial));
        let s = batched.stats();
        assert_eq!((s.batches, s.dispatched, s.inline, s.chunks), (2, 0, 2, 0));
    }

    #[test]
    fn empty_batch_is_fine() {
        let (svc, _) = counting_service();
        let batched = Batched::new(svc, 4);
        assert!(batched.query_batch(&[]).is_empty());
        assert_eq!(batched.stats().batches, 1);
        assert_eq!(batched.stats().inline, 1);
    }
}
