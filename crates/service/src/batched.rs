//! The batch-evaluation layer: fan a whole query batch out across the
//! deterministic worker pool, in coarse chunks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use predtop_runtime::{
    par_map_chunked, ChunkDispatch, DEFAULT_OVERSUBSCRIPTION, DEFAULT_SERIAL_THRESHOLD,
};

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// How a [`Batched`] layer carves a query batch into worker tasks.
///
/// The chunk size is `ceil(len / (threads × oversubscription))` — big
/// enough that per-task overhead (allocation, slot locking, cursor
/// contention) amortizes over many queries, small enough that the pool
/// stays load-balanced even when chunk costs are skewed. Batches of at
/// most `serial_threshold` queries skip thread dispatch entirely and
/// run inline on the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Chunks per worker thread. Higher values give smaller chunks
    /// (better balance, more overhead).
    pub oversubscription: usize,
    /// Batches no larger than this run inline on the calling thread.
    pub serial_threshold: usize,
}

impl Default for DispatchPolicy {
    fn default() -> DispatchPolicy {
        DispatchPolicy {
            oversubscription: DEFAULT_OVERSUBSCRIPTION,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }
}

impl DispatchPolicy {
    /// The historical fine-grained policy: one chunk per query, no
    /// inline short-circuit. Useful as a comparison baseline — results
    /// are bit-identical to the chunked default by construction.
    pub fn per_query() -> DispatchPolicy {
        DispatchPolicy {
            oversubscription: usize::MAX,
            serial_threshold: 0,
        }
    }
}

/// Dispatch counters of a [`Batched`] layer, snapshot at any point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batches observed (`query_batch` calls).
    pub batches: usize,
    /// Batches fanned out across the worker pool.
    pub dispatched: usize,
    /// Batches run inline (single worker, or under the serial
    /// threshold).
    pub inline: usize,
    /// Worker chunks cut across all dispatched batches.
    pub chunks: usize,
    /// Chunk size of the most recent dispatched batch (0 before any).
    pub last_chunk_size: usize,
}

#[derive(Debug, Default)]
pub(crate) struct BatchState {
    batches: AtomicUsize,
    dispatched: AtomicUsize,
    inline: AtomicUsize,
    chunks: AtomicUsize,
    last_chunk_size: AtomicUsize,
}

impl BatchState {
    fn record(&self, d: ChunkDispatch) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if d.dispatched {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            self.chunks.fetch_add(d.chunks, Ordering::Relaxed);
            self.last_chunk_size.store(d.chunk_size, Ordering::Relaxed);
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
            last_chunk_size: self.last_chunk_size.load(Ordering::Relaxed),
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
}

/// Middleware that overrides [`LatencyService::query_batch`] with a
/// `predtop-runtime` chunked fan-out: the batch is cut into
/// [`DispatchPolicy`]-sized chunks, each chunk is resolved on one of
/// `threads` workers, and every reply lands at its query's index.
///
/// Because the pool preserves input order (results land at their input
/// positions regardless of which worker computed them, and chunk
/// boundaries never reorder within a chunk), a batch through this layer
/// is *bit-identical* to the serial default at any thread count, chunk
/// size, or serial threshold — this is the layer that gives the
/// plan-search engine its parallel candidate evaluation without giving
/// up determinism.
///
/// Single queries pass straight through.
pub struct Batched<S> {
    inner: S,
    threads: usize,
    policy: DispatchPolicy,
    state: Arc<BatchState>,
}

impl<S> Batched<S> {
    /// Fan batches out over exactly `threads` workers (floored at 1)
    /// with the default chunking policy.
    pub fn new(inner: S, threads: usize) -> Batched<S> {
        Batched::with_policy(inner, threads, DispatchPolicy::default())
    }

    /// Fan batches out over exactly `threads` workers with an explicit
    /// chunking policy.
    pub fn with_policy(inner: S, threads: usize, policy: DispatchPolicy) -> Batched<S> {
        Batched {
            inner,
            threads: threads.max(1),
            policy,
            state: Arc::new(BatchState::default()),
        }
    }

    /// The worker-pool size batches fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunking policy batches are carved with.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
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
        let (out, dispatch) = par_map_chunked(
            qs.to_vec(),
            self.threads,
            self.policy.oversubscription,
            self.policy.serial_threshold,
            |q| self.inner.query(&q),
        );
        self.state.record(dispatch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::counting_service;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

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
    fn batch_matches_serial_at_any_thread_count_and_policy() {
        let qs = queries(8); // 36 queries: above the default threshold
        let (svc, _) = counting_service();
        let serial: Vec<f64> = qs.iter().map(|q| svc.query(q).unwrap().seconds).collect();
        for threads in [1, 2, 8] {
            for policy in [DispatchPolicy::default(), DispatchPolicy::per_query()] {
                let (svc, calls) = counting_service();
                let batched = Batched::with_policy(svc, threads, policy);
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
        // 36 queries over 4 threads × 4 oversubscription = 16 slots
        // -> chunk size 3, 12 chunks
        assert_eq!(s.last_chunk_size, 3);
        assert_eq!(s.chunks, 12);
        // a batch under the threshold runs inline
        batched.query_batch(&qs[..8]);
        let s = batched.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.dispatched, 1);
        assert_eq!(s.inline, 1);
        // the handle observes the same counters after the layer moves
        let handle = batched.handle();
        assert_eq!(handle.stats(), s);
    }

    #[test]
    fn single_thread_runs_inline_even_above_threshold() {
        let qs = queries(8);
        let (svc, _) = counting_service();
        let batched = Batched::new(svc, 1);
        batched.query_batch(&qs);
        assert_eq!(batched.stats().dispatched, 0);
        assert_eq!(batched.stats().inline, 1);
    }

    #[test]
    fn a_batch_inside_a_pool_worker_runs_inline_and_counts_as_inline() {
        let qs = queries(8); // 36 queries: above the default threshold
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
