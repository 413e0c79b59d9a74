//! The instrumentation layer: per-stack traffic counters and
//! deterministic latency accounting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// A snapshot of an [`Instrumented`] layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceMetrics {
    /// Total queries that passed through the layer (batched ones
    /// included).
    pub queries: usize,
    /// Number of `query_batch` calls.
    pub batches: usize,
    /// Queries that resolved to an error.
    pub errors: usize,
    /// Sum of all successfully served latency seconds. For batches this
    /// is accumulated *after* the inner batch returns, in query-index
    /// order, so the total is deterministic whenever the replies are.
    pub served_seconds: f64,
}

/// Shared state behind an [`Instrumented`] layer and its
/// [`MetricsHandle`]s.
#[derive(Debug, Default)]
pub(crate) struct MetricsState {
    queries: AtomicUsize,
    batches: AtomicUsize,
    errors: AtomicUsize,
    served_seconds: Mutex<f64>,
}

impl MetricsState {
    fn snapshot(&self) -> ServiceMetrics {
        ServiceMetrics {
            queries: self.queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            served_seconds: *self.served_seconds.lock(),
        }
    }

    fn record(&self, replies: &[Result<LatencyReply, ServiceError>]) {
        self.queries.fetch_add(replies.len(), Ordering::Relaxed);
        let mut sum = 0.0;
        let mut errors = 0;
        for r in replies {
            match r {
                Ok(reply) => sum += reply.seconds,
                Err(_) => errors += 1,
            }
        }
        if errors > 0 {
            self.errors.fetch_add(errors, Ordering::Relaxed);
        }
        *self.served_seconds.lock() += sum;
    }
}

/// Shared view of an [`Instrumented`] layer's counters, usable after the
/// layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct MetricsHandle(pub(crate) Arc<MetricsState>);

impl MetricsHandle {
    /// Counters accumulated since the layer was built.
    pub fn metrics(&self) -> ServiceMetrics {
        self.0.snapshot()
    }
}

/// Middleware that counts traffic without changing it.
///
/// Place it *outside* a [`crate::Batched`] layer: its `query_batch`
/// accounts the replies sequentially in index order after the inner
/// batch returns, so `served_seconds` stays deterministic even though
/// the batch itself was computed across threads. (Individual `query`
/// calls issued concurrently accumulate in arrival order; the search
/// path only uses batches.)
pub struct Instrumented<S> {
    inner: S,
    state: Arc<MetricsState>,
}

impl<S> Instrumented<S> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: S) -> Instrumented<S> {
        Instrumented {
            inner,
            state: Arc::new(MetricsState::default()),
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> MetricsHandle {
        MetricsHandle(self.state.clone())
    }

    /// Counters accumulated since construction.
    pub fn metrics(&self) -> ServiceMetrics {
        self.state.snapshot()
    }
}

impl<S: LatencyService> LatencyService for Instrumented<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let r = self.inner.query(q);
        self.state.record(std::slice::from_ref(&r));
        r
    }

    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        let replies = self.inner.query_batch(qs);
        self.state.batches.fetch_add(1, Ordering::Relaxed);
        self.state.record(&replies);
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service};
    use crate::Batched;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

    fn queries(n: usize) -> Vec<LatencyQuery> {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = n;
        (0..n)
            .map(|i| {
                LatencyQuery::new(
                    StageSpec::new(m, i, i + 1),
                    MeshShape::new(1, 1),
                    ParallelConfig::SERIAL,
                )
            })
            .collect()
    }

    #[test]
    fn counts_queries_batches_and_seconds_deterministically() {
        let qs = queries(8);
        let expected: f64 = {
            let (svc, _) = counting_service();
            qs.iter().map(|q| svc.query(q).unwrap().seconds).sum()
        };
        for threads in [1, 4] {
            let (svc, _) = counting_service();
            let stack = Instrumented::new(Batched::new(svc, threads));
            let handle = stack.handle();
            let _ = stack.query_batch(&qs);
            let m = handle.metrics();
            assert_eq!(m.queries, 8);
            assert_eq!(m.batches, 1);
            assert_eq!(m.errors, 0);
            assert_eq!(
                m.served_seconds.to_bits(),
                expected.to_bits(),
                "accounting must be bit-deterministic at {threads} threads"
            );
        }
    }

    #[test]
    fn counts_errors() {
        let stack = Instrumented::new(failing_service("down"));
        let qs = queries(3);
        let replies = stack.query_batch(&qs);
        assert!(replies.iter().all(|r| r.is_err()));
        let m = stack.metrics();
        assert_eq!(m.errors, 3);
        assert_eq!(m.queries, 3);
        assert_eq!(m.served_seconds, 0.0);
    }
}
