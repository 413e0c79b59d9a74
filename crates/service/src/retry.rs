//! The bounded-retry layer: absorb transient failures with a
//! deterministic exponential-backoff accounting.
//!
//! [`Retry`] consults [`ServiceError::retryability`] — the structured
//! classification every error variant carries — and re-attempts only
//! `Transient` failures ([`ServiceError::InjectedFault`]). Permanent
//! failures (a missing model, an unfitted scenario, a spent deadline
//! budget) are returned immediately so a [`crate::Fallback`] above can
//! move to the next source without burning attempts.
//!
//! Backoff is *accounted, not slept*: each re-attempt charges
//! `0.05 s · 2^attempt` to [`RetryStats::backoff_seconds`], the same
//! deterministic simulated-time style as the cost ledger and the
//! instrument layer's `served_seconds`. Sleeping for real would make
//! chaos searches slow and their wall clocks noisy without changing any
//! value the stack resolves; the accounting preserves what a production
//! deployment would have waited. The layer counts whole base units
//! (`2^attempt` per re-attempt) in an integer, so the total of a
//! fanned-out batch is the same whatever order its workers finish in.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Backoff charged before re-attempt `k` (zero-based) is
/// `BACKOFF_BASE_SECONDS · 2^k`.
const BACKOFF_BASE_SECONDS: f64 = 0.05;

/// Attempt budget of a [`Retry`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first try (so a query is attempted at most
    /// `max_retries + 1` times).
    pub max_retries: usize,
}

impl RetryPolicy {
    /// `n` retries.
    pub fn retries(n: usize) -> RetryPolicy {
        RetryPolicy { max_retries: n }
    }
}

/// A snapshot of a [`Retry`] layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetryStats {
    /// Re-attempts issued (a query retried twice counts twice).
    pub retries: usize,
    /// Queries that failed at least once and then succeeded.
    pub recovered: usize,
    /// Queries whose transient failures outlived the attempt budget.
    pub exhausted: usize,
    /// Queries abandoned immediately on a permanent error.
    pub permanent_failures: usize,
    /// Deterministic exponential-backoff seconds accounted (not slept).
    pub backoff_seconds: f64,
}

#[derive(Debug, Default)]
pub(crate) struct RetryState {
    retries: AtomicUsize,
    recovered: AtomicUsize,
    exhausted: AtomicUsize,
    permanent: AtomicUsize,
    /// Accounted backoff in units of `BACKOFF_BASE_SECONDS`.
    backoff_units: AtomicU64,
}

impl RetryState {
    fn snapshot(&self) -> RetryStats {
        RetryStats {
            retries: self.retries.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            permanent_failures: self.permanent.load(Ordering::Relaxed),
            backoff_seconds: self.backoff_units.load(Ordering::Relaxed) as f64
                * BACKOFF_BASE_SECONDS,
        }
    }
}

/// Shared view of a [`Retry`] layer's counters, usable after the layer
/// has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct RetryHandle(pub(crate) Arc<RetryState>);

impl RetryHandle {
    /// Counters accumulated since the layer was built.
    pub fn stats(&self) -> RetryStats {
        self.0.snapshot()
    }
}

/// Middleware that re-attempts transient failures — see the module docs
/// for the retryability contract and backoff accounting.
///
/// Transparency: the reply that finally succeeds is the inner service's
/// reply, unchanged. A search whose every query eventually succeeds
/// through this layer is bit-identical to one that never failed.
pub struct Retry<S> {
    inner: S,
    policy: RetryPolicy,
    state: Arc<RetryState>,
}

impl<S> Retry<S> {
    /// Wrap `inner` with the given attempt budget and zeroed counters.
    pub fn new(inner: S, policy: RetryPolicy) -> Retry<S> {
        Retry {
            inner,
            policy,
            state: Arc::new(RetryState::default()),
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> RetryHandle {
        RetryHandle(self.state.clone())
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> RetryStats {
        self.state.snapshot()
    }
}

impl<S: LatencyService> LatencyService for Retry<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let mut attempt = 0usize;
        loop {
            match self.inner.query(q) {
                Ok(r) => {
                    if attempt > 0 {
                        self.state.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(r);
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    self.state.retries.fetch_add(1, Ordering::Relaxed);
                    let units = 1u64 << attempt.min(62);
                    let _ = self.state.backoff_units.fetch_update(
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                        |total| Some(total.saturating_add(units)),
                    );
                    attempt += 1;
                }
                Err(e) => {
                    if e.is_transient() {
                        self.state.exhausted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.state.permanent.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service};
    use crate::fault::{FaultConfig, FaultInject};
    use parking_lot::Mutex;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

    fn q(start: usize, end: usize) -> LatencyQuery {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 8;
        LatencyQuery::new(
            StageSpec::new(m, start, end),
            MeshShape::new(1, 1),
            ParallelConfig::SERIAL,
        )
    }

    /// A service that fails transiently `n` times, then succeeds.
    struct FlakyService(Mutex<usize>);

    impl LatencyService for FlakyService {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn query(&self, _q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            let mut left = self.0.lock();
            if *left > 0 {
                *left -= 1;
                return Err(ServiceError::InjectedFault {
                    source: "flaky",
                    attempt: 0,
                });
            }
            Ok(LatencyReply {
                seconds: 0.25,
                source: "flaky",
            })
        }
    }

    #[test]
    fn transient_failures_recover_within_budget() {
        let retry = Retry::new(FlakyService(Mutex::new(2)), RetryPolicy::retries(3));
        let r = retry.query(&q(0, 2)).unwrap();
        assert_eq!(r.seconds, 0.25);
        let s = retry.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.exhausted, 0);
        // backoff accounting: 0.05 + 0.10
        assert!((s.backoff_seconds - 0.15).abs() < 1e-12);
    }

    /// A service that fails each query transiently once per layer of
    /// its window, then succeeds.
    #[derive(Default)]
    struct FailsOncePerLayer(Mutex<std::collections::HashMap<LatencyQuery, usize>>);

    impl LatencyService for FailsOncePerLayer {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            let mut failures = self.0.lock();
            let n = failures.entry(*q).or_insert(0);
            if *n < q.stage.num_layers() {
                *n += 1;
                return Err(ServiceError::InjectedFault {
                    source: "flaky",
                    attempt: 0,
                });
            }
            Ok(LatencyReply {
                seconds: 0.25,
                source: "flaky",
            })
        }
    }

    #[test]
    fn backoff_total_does_not_depend_on_query_order() {
        let (a, b, c) = (q(0, 1), q(0, 2), q(1, 3));
        let backoff = |order: [LatencyQuery; 3]| {
            let retry = Retry::new(FailsOncePerLayer::default(), RetryPolicy::retries(3));
            for x in &order {
                retry.query(x).unwrap();
            }
            retry.stats().backoff_seconds.to_bits()
        };
        // charges of 0.05 | 0.05, 0.1 | 0.05, 0.1 seconds: summed as
        // floats, these two orders differ in the last bit
        assert_eq!(backoff([a, b, c]), backoff([b, c, a]));
    }

    #[test]
    fn budget_exhaustion_surfaces_the_transient_error() {
        let retry = Retry::new(FlakyService(Mutex::new(10)), RetryPolicy::retries(3));
        let err = retry.query(&q(0, 2)).unwrap_err();
        assert!(err.is_transient());
        let s = retry.stats();
        assert_eq!(s.retries, 3);
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.recovered, 0);
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let retry = Retry::new(failing_service("dead"), RetryPolicy::retries(5));
        let err = retry.query(&q(1, 3)).unwrap_err();
        assert!(matches!(err, ServiceError::Unavailable { .. }));
        let s = retry.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.permanent_failures, 1);
    }

    #[test]
    fn zero_retries_is_a_pass_through() {
        let (svc, calls) = counting_service();
        let retry = Retry::new(svc, RetryPolicy::retries(0));
        assert!(retry.query(&q(0, 1)).is_ok());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(retry.stats(), RetryStats::default());
    }

    #[test]
    fn retry_over_fault_injection_reproduces_the_clean_values() {
        // the canonical pairing: Retry(FaultInject(service)) serves the
        // exact clean values whenever the attempt budget suffices
        let qs: Vec<LatencyQuery> = (0..8).map(|i| q(i, i + 1)).collect();
        let (clean, _) = counting_service();
        let expected: Vec<f64> = qs.iter().map(|x| clean.query(x).unwrap().seconds).collect();

        let (svc, _) = counting_service();
        let retry = Retry::new(
            FaultInject::new(svc, FaultConfig::errors(9, 0.3)),
            RetryPolicy::retries(16),
        );
        for (x, want) in qs.iter().zip(&expected) {
            let got = retry.query(x).expect("16 retries absorb a 30% fault rate");
            assert_eq!(got.seconds.to_bits(), want.to_bits());
        }
    }
}
