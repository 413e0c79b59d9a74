//! The deadline layer: per-query and per-batch wall-clock budgets.
//!
//! [`Deadline`] measures how long the inner service takes to answer and
//! converts overruns into structured
//! [`ServiceError::DeadlineExceeded`] errors instead of letting a slow
//! source (a compiling simulator, a [`crate::FaultInject`] latency
//! spike) stall the whole search unboundedly.
//!
//! Two budgets, one placement rule each:
//!
//! * **per-query** — enforced in [`LatencyService::query`], so it works
//!   *inside* a [`crate::Batched`] fan-out (each worker polices its own
//!   query);
//! * **per-batch** — enforced in [`LatencyService::query_batch`], which
//!   only fires when this layer sits *outside* the [`crate::Batched`]
//!   layer (inside one, workers call `query`, never `query_batch`).
//!   Once the batch budget is spent, every remaining query in the batch
//!   fails fast without consulting the inner service.
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

/// Wall-clock budgets of a [`Deadline`] layer. `None` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlinePolicy {
    /// Budget for one `query` call, in seconds.
    pub per_query_seconds: Option<f64>,
    /// Budget for one `query_batch` call, in seconds.
    pub per_batch_seconds: Option<f64>,
}

impl DeadlinePolicy {
    /// A per-query budget only.
    pub fn per_query(seconds: f64) -> DeadlinePolicy {
        DeadlinePolicy {
            per_query_seconds: Some(seconds),
            per_batch_seconds: None,
        }
    }

    /// A per-batch budget only.
    pub fn per_batch(seconds: f64) -> DeadlinePolicy {
        DeadlinePolicy {
            per_query_seconds: None,
            per_batch_seconds: Some(seconds),
        }
    }
}

/// A snapshot of a [`Deadline`] layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlineStats {
    /// Queries that individually overran (or were born over) the
    /// per-query budget.
    pub query_overruns: usize,
    /// Queries rejected because their enclosing batch had already spent
    /// its budget.
    pub batch_overruns: usize,
    /// Queries served within budget.
    pub served: usize,
}

#[derive(Debug, Default)]
pub(crate) struct DeadlineState {
    query_overruns: AtomicUsize,
    batch_overruns: AtomicUsize,
    served: AtomicUsize,
}

impl DeadlineState {
    fn snapshot(&self) -> DeadlineStats {
        DeadlineStats {
            query_overruns: self.query_overruns.load(Ordering::Relaxed),
            batch_overruns: self.batch_overruns.load(Ordering::Relaxed),
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

/// Middleware that polices wall-clock budgets — see the module docs for
/// the two budget kinds and their placement rules.
pub struct Deadline<S> {
    inner: S,
    policy: DeadlinePolicy,
    state: Arc<DeadlineState>,
}

impl<S> Deadline<S> {
    /// Wrap `inner` with the given budgets and zeroed counters.
    pub fn new(inner: S, policy: DeadlinePolicy) -> Deadline<S> {
        if let Some(b) = policy.per_query_seconds {
            assert!(b >= 0.0, "per-query budget must be non-negative");
        }
        if let Some(b) = policy.per_batch_seconds {
            assert!(b >= 0.0, "per-batch budget must be non-negative");
        }
        Deadline {
            inner,
            policy,
            state: Arc::new(DeadlineState::default()),
        }
    }

    /// The budgets this layer enforces.
    pub fn policy(&self) -> DeadlinePolicy {
        self.policy
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

impl<S: LatencyService> Deadline<S> {
    /// One budgeted query; `budget` is whichever budget applies at this
    /// call site (the per-query one, or a batch's remaining allowance).
    fn query_within(
        &self,
        q: &LatencyQuery,
        budget: Option<f64>,
    ) -> (Result<LatencyReply, ServiceError>, f64) {
        let Some(budget) = budget else {
            let r = self.inner.query(q);
            if r.is_ok() {
                self.state.served.fetch_add(1, Ordering::Relaxed);
            }
            return (r, 0.0);
        };
        if budget <= 0.0 {
            self.state.query_overruns.fetch_add(1, Ordering::Relaxed);
            return (
                Err(ServiceError::DeadlineExceeded {
                    source: self.inner.name(),
                    budget_seconds: budget,
                    elapsed_seconds: 0.0,
                }),
                0.0,
            );
        }
        let started = Instant::now();
        let r = self.inner.query(q);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > budget {
            self.state.query_overruns.fetch_add(1, Ordering::Relaxed);
            return (
                Err(ServiceError::DeadlineExceeded {
                    source: self.inner.name(),
                    budget_seconds: budget,
                    elapsed_seconds: elapsed,
                }),
                elapsed,
            );
        }
        if r.is_ok() {
            self.state.served.fetch_add(1, Ordering::Relaxed);
        }
        (r, elapsed)
    }
}

impl<S: LatencyService> LatencyService for Deadline<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        self.query_within(q, self.policy.per_query_seconds).0
    }

    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        let Some(batch_budget) = self.policy.per_batch_seconds else {
            return qs.iter().map(|q| self.query(q)).collect();
        };
        let mut spent = 0.0f64;
        qs.iter()
            .map(|q| {
                let remaining = batch_budget - spent;
                if remaining <= 0.0 {
                    self.state.batch_overruns.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::DeadlineExceeded {
                        source: self.inner.name(),
                        budget_seconds: batch_budget,
                        elapsed_seconds: spent,
                    });
                }
                // the per-query budget still applies if tighter than the
                // batch's remaining allowance
                let budget = match self.policy.per_query_seconds {
                    Some(pq) => Some(pq.min(remaining)),
                    None => Some(remaining),
                };
                let (r, elapsed) = self.query_within(q, budget);
                spent += elapsed;
                r
            })
            .collect()
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
        let layer = Deadline::new(svc, DeadlinePolicy::per_query(0.0));
        let err = layer.query(&queries(1)[0]).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
        assert!(!err.is_transient(), "a spent budget is permanent");
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(layer.stats().query_overruns, 1);
    }

    #[test]
    fn slow_queries_overrun_a_tight_budget() {
        let layer = Deadline::new(SlowService(0.01), DeadlinePolicy::per_query(0.001));
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

    #[test]
    fn exhausted_batch_budget_fails_the_tail_fast() {
        let qs = queries(6);
        let (svc, calls) = counting_service();
        let layer = Deadline::new(svc, DeadlinePolicy::per_batch(0.0));
        let replies = layer.query_batch(&qs);
        assert!(replies.iter().all(|r| r.is_err()));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "budget 0 consults nobody");
        assert_eq!(
            layer.stats().batch_overruns + layer.stats().query_overruns,
            6
        );
    }

    #[test]
    fn generous_batch_budget_serves_everything() {
        let qs = queries(6);
        let (svc, _) = counting_service();
        let layer = Deadline::new(svc, DeadlinePolicy::per_batch(3600.0));
        let replies = layer.query_batch(&qs);
        assert!(replies.iter().all(|r| r.is_ok()));
        assert_eq!(layer.stats().served, 6);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Budget 0 always errors — for any query, on both paths.
            #[test]
            fn prop_zero_budget_always_errors(n in 1usize..6, batch in any::<bool>()) {
                let qs = queries(n);
                let (svc, _) = counting_service();
                let policy = if batch {
                    DeadlinePolicy::per_batch(0.0)
                } else {
                    DeadlinePolicy::per_query(0.0)
                };
                let layer = Deadline::new(svc, policy);
                if batch {
                    for r in layer.query_batch(&qs) {
                        prop_assert!(matches!(r, Err(ServiceError::DeadlineExceeded { .. })));
                    }
                } else {
                    for q in &qs {
                        prop_assert!(matches!(
                            layer.query(q),
                            Err(ServiceError::DeadlineExceeded { .. })
                        ));
                    }
                }
            }

            /// An unbounded budget never manufactures an error.
            #[test]
            fn prop_unbounded_budget_never_errors(n in 1usize..6) {
                let qs = queries(n);
                let (svc, _) = counting_service();
                let layer = Deadline::new(svc, DeadlinePolicy::default());
                for q in &qs {
                    prop_assert!(layer.query(q).is_ok());
                }
                for r in layer.query_batch(&qs) {
                    prop_assert!(r.is_ok());
                }
                prop_assert_eq!(layer.stats().query_overruns, 0);
                prop_assert_eq!(layer.stats().batch_overruns, 0);
            }

            /// An infinite budget behaves like an unbounded one.
            #[test]
            fn prop_infinite_budget_never_errors(n in 1usize..6) {
                let qs = queries(n);
                let (svc, _) = counting_service();
                let layer = Deadline::new(
                    svc,
                    DeadlinePolicy {
                        per_query_seconds: Some(f64::INFINITY),
                        per_batch_seconds: Some(f64::INFINITY),
                    },
                );
                for r in layer.query_batch(&qs) {
                    prop_assert!(r.is_ok());
                }
            }
        }
    }
}
