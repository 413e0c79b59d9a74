//! The deadline layer: a per-query wall-clock budget.
//!
//! [`Deadline`] measures how long the inner service takes to answer and
//! converts overruns into structured
//! [`ServiceError::DeadlineExceeded`] errors instead of letting a slow
//! source (a compiling simulator, a [`crate::FaultInject`] latency
//! spike) stall the whole search unboundedly.
//!
//! The budget is enforced in [`LatencyService::query`], so it works
//! *inside* a [`crate::Batched`] fan-out (each worker polices its own
//! query) and under the `Retry` layer (each attempt gets a fresh
//! budget).
//!
//! Edge semantics are exact, not approximate: a budget of `0` rejects
//! *before* consulting the inner service (a spent budget buys nothing),
//! and an unbounded budget (`None`) never manufactures an error — the
//! two properties the proptest below pins down for all inputs.
//!
//! `DeadlineExceeded` is classified `Permanent` (see
//! [`ServiceError::retryability`]): the budget is gone, so an immediate
//! retry of the same query would be born over-budget. Recovery paths are
//! a [`crate::Fallback`] to a cheaper source, or a caller-level rerun
//! with a fresh budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// A snapshot of a [`Deadline`] layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlineStats {
    /// Queries that individually overran (or were born over) the
    /// per-query budget.
    pub query_overruns: usize,
    /// Queries served within budget.
    pub served: usize,
}

#[derive(Debug, Default)]
pub(crate) struct DeadlineState {
    query_overruns: AtomicUsize,
    served: AtomicUsize,
}

impl DeadlineState {
    fn snapshot(&self) -> DeadlineStats {
        DeadlineStats {
            query_overruns: self.query_overruns.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
        }
    }
}

/// Shared view of a [`Deadline`] layer's counters, usable after the
/// layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct DeadlineHandle(pub(crate) Arc<DeadlineState>);

impl DeadlineHandle {
    /// Counters accumulated since the layer was built.
    pub fn stats(&self) -> DeadlineStats {
        self.0.snapshot()
    }
}

/// Middleware that polices a per-query wall-clock budget — see the
/// module docs.
pub struct Deadline<S> {
    inner: S,
    budget_seconds: Option<f64>,
    state: Arc<DeadlineState>,
}

impl<S> Deadline<S> {
    /// Wrap `inner` with a per-query budget in seconds (`None` means
    /// unbounded) and zeroed counters.
    pub fn new(inner: S, budget_seconds: Option<f64>) -> Deadline<S> {
        if let Some(b) = budget_seconds {
            assert!(b >= 0.0, "per-query budget must be non-negative");
        }
        Deadline {
            inner,
            budget_seconds,
            state: Arc::new(DeadlineState::default()),
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> DeadlineHandle {
        DeadlineHandle(self.state.clone())
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> DeadlineStats {
        self.state.snapshot()
    }
}

impl<S: LatencyService> LatencyService for Deadline<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let Some(budget) = self.budget_seconds else {
            let r = self.inner.query(q);
            if r.is_ok() {
                self.state.served.fetch_add(1, Ordering::Relaxed);
            }
            return r;
        };
        let overrun = |elapsed_seconds| {
            self.state.query_overruns.fetch_add(1, Ordering::Relaxed);
            Err(ServiceError::DeadlineExceeded {
                source: self.inner.name(),
                budget_seconds: budget,
                elapsed_seconds,
            })
        };
        if budget <= 0.0 {
            return overrun(0.0);
        }
        let started = Instant::now();
        let r = self.inner.query(q);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > budget {
            return overrun(elapsed);
        }
        if r.is_ok() {
            self.state.served.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::counting_service;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

    fn queries(n: usize) -> Vec<LatencyQuery> {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = n.max(1);
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

    /// A service that stalls for a fixed duration before answering.
    struct SlowService(f64);

    impl LatencyService for SlowService {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn query(&self, _q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            std::thread::sleep(std::time::Duration::from_secs_f64(self.0));
            Ok(LatencyReply {
                seconds: 1.0,
                source: "slow",
            })
        }
    }

    #[test]
    fn zero_budget_rejects_before_consulting_inner() {
        let (svc, calls) = counting_service();
        let layer = Deadline::new(svc, Some(0.0));
        let err = layer.query(&queries(1)[0]).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
        assert!(!err.is_transient(), "a spent budget is permanent");
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(layer.stats().query_overruns, 1);
    }

    #[test]
    fn slow_queries_overrun_a_tight_budget() {
        let layer = Deadline::new(SlowService(0.01), Some(0.001));
        let err = layer.query(&queries(1)[0]).unwrap_err();
        match err {
            ServiceError::DeadlineExceeded {
                budget_seconds,
                elapsed_seconds,
                ..
            } => {
                assert_eq!(budget_seconds, 0.001);
                assert!(elapsed_seconds > budget_seconds);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Budget 0 always errors, for any query.
            #[test]
            fn prop_zero_budget_always_errors(n in 1usize..6) {
                let qs = queries(n);
                let (svc, _) = counting_service();
                let layer = Deadline::new(svc, Some(0.0));
                for q in &qs {
                    prop_assert!(matches!(
                        layer.query(q),
                        Err(ServiceError::DeadlineExceeded { .. })
                    ));
                }
            }

            /// An unbounded budget never manufactures an error.
            #[test]
            fn prop_unbounded_budget_never_errors(n in 1usize..6) {
                let qs = queries(n);
                let (svc, _) = counting_service();
                let layer = Deadline::new(svc, None);
                for q in &qs {
                    prop_assert!(layer.query(q).is_ok());
                }
                for r in layer.query_batch(&qs) {
                    prop_assert!(r.is_ok());
                }
                prop_assert_eq!(layer.stats().query_overruns, 0);
            }

            /// An infinite budget behaves like an unbounded one.
            #[test]
            fn prop_infinite_budget_never_errors(n in 1usize..6) {
                let qs = queries(n);
                let (svc, _) = counting_service();
                let layer = Deadline::new(svc, Some(f64::INFINITY));
                for r in layer.query_batch(&qs) {
                    prop_assert!(r.is_ok());
                }
            }
        }
    }
}
