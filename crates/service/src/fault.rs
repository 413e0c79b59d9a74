//! The failure-injection layer: deterministic, hash-seeded chaos.
//!
//! [`FaultInject`] sits in front of a healthy service and makes it
//! unreliable on purpose — the precondition for testing every other
//! fault-tolerance layer. It injects transient errors
//! ([`ServiceError::InjectedFault`]), which a [`crate::Retry`] layer
//! above can absorb.
//!
//! Determinism: the injection decision for a query is a SplitMix64-style
//! hash of `(seed, query, attempt)` — the same style as `predtop-sim`'s
//! per-operator cost perturbation — where `attempt` is a per-query
//! counter this layer maintains. Same seed, same query, same attempt
//! number ⇒ same outcome, on any thread, in any batch order. Because a
//! successful reply passes through *unchanged*, a search that survives
//! injected faults (every query eventually served) chooses a plan
//! bit-identical to the fault-free run.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Number of attempt-counter shards (power of two, mask-selected).
const SHARDS: usize = 16;

/// Injection rate and determinism seed for a [`FaultInject`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Seed of the injection hash. Two layers with the same seed inject
    /// identically; changing the seed re-rolls every decision.
    pub seed: u64,
    /// Probability in `[0, 1]` that an attempt fails with
    /// [`ServiceError::InjectedFault`].
    pub error_rate: f64,
}

impl FaultConfig {
    /// Fail `error_rate` of attempts under `seed`.
    pub fn errors(seed: u64, error_rate: f64) -> FaultConfig {
        FaultConfig { seed, error_rate }
    }
}

/// A snapshot of a [`FaultInject`] layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Attempts that were failed with an injected error.
    pub injected_errors: usize,
    /// Attempts that passed through untouched.
    pub passed: usize,
}

#[derive(Debug)]
pub(crate) struct FaultState {
    config: FaultConfig,
    attempts: Vec<Mutex<HashMap<LatencyQuery, u64>>>,
    injected_errors: AtomicUsize,
    passed: AtomicUsize,
}

impl FaultState {
    fn new(config: FaultConfig) -> FaultState {
        assert!(
            (0.0..=1.0).contains(&config.error_rate),
            "the fault rate must be a probability"
        );
        FaultState {
            config,
            attempts: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            injected_errors: AtomicUsize::new(0),
            passed: AtomicUsize::new(0),
        }
    }

    fn snapshot(&self) -> FaultStats {
        FaultStats {
            injected_errors: self.injected_errors.load(Ordering::Relaxed),
            passed: self.passed.load(Ordering::Relaxed),
        }
    }

    /// Fetch-and-increment the per-query attempt counter. Retries of one
    /// query are sequential (the [`crate::Retry`] loop runs on one
    /// thread), so the sequence 0, 1, 2, … a query observes is
    /// deterministic regardless of what other queries do concurrently.
    fn next_attempt(&self, q: &LatencyQuery) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        q.hash(&mut h);
        let shard = (h.finish() as usize) & (SHARDS - 1);
        let mut map = self.attempts[shard].lock();
        let n = map.entry(*q).or_insert(0);
        let attempt = *n;
        *n += 1;
        attempt
    }

    /// SplitMix64-style hash of (seed, query, attempt) to a unit float
    /// in `[0, 1)`.
    fn roll(&self, q: &LatencyQuery, attempt: u64) -> f64 {
        let mut qh = std::collections::hash_map::DefaultHasher::new();
        q.hash(&mut qh);
        // The mixer lives in predtop-store's shared hash module (its
        // constants are pinned there); fault schedules for a given
        // (seed, query, attempt) are bit-stable across releases.
        let mut h = predtop_store::hash::SplitMix64::new(self.config.seed);
        h.mix(qh.finish());
        h.mix(attempt);
        // the error roll's stream word: mixing it keeps every decision
        // where `fault_schedules_are_pinned` records it
        h.mix(0);
        h.unit_f64()
    }
}

/// Shared view of a [`FaultInject`] layer's counters, usable after the
/// layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct FaultHandle(pub(crate) Arc<FaultState>);

impl FaultHandle {
    /// Counters accumulated since the layer was built.
    pub fn stats(&self) -> FaultStats {
        self.0.snapshot()
    }
}

/// Middleware that injects deterministic failures in front of a healthy
/// service — see the module docs for the fault model.
///
/// Value-determinism contract: an attempt either fails with
/// [`ServiceError::InjectedFault`] or returns the inner service's reply
/// *unchanged*. Whatever succeeds is therefore bit-identical to the
/// fault-free service.
pub struct FaultInject<S> {
    inner: S,
    state: Arc<FaultState>,
}

impl<S> FaultInject<S> {
    /// Wrap `inner` with the given injection config and zeroed counters.
    pub fn new(inner: S, config: FaultConfig) -> FaultInject<S> {
        FaultInject {
            inner,
            state: Arc::new(FaultState::new(config)),
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle(self.state.clone())
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> FaultStats {
        self.state.snapshot()
    }
}

impl<S: LatencyService> LatencyService for FaultInject<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let cfg = &self.state.config;
        let attempt = self.state.next_attempt(q);
        if cfg.error_rate > 0.0 && self.state.roll(q, attempt) < cfg.error_rate {
            self.state.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::InjectedFault {
                source: self.inner.name(),
                attempt,
            });
        }
        self.state.passed.fetch_add(1, Ordering::Relaxed);
        self.inner.query(q)
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
    fn zero_rates_are_a_pass_through() {
        let (svc, calls) = counting_service();
        let layer = FaultInject::new(svc, FaultConfig::default());
        for q in queries(8) {
            assert!(layer.query(&q).is_ok());
        }
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        let s = layer.stats();
        assert_eq!(s.injected_errors, 0);
        assert_eq!(s.passed, 8);
    }

    #[test]
    fn rate_one_fails_every_attempt_and_never_consults_inner() {
        let (svc, calls) = counting_service();
        let layer = FaultInject::new(svc, FaultConfig::errors(7, 1.0));
        for q in queries(4) {
            let err = layer.query(&q).unwrap_err();
            assert!(matches!(err, ServiceError::InjectedFault { .. }));
            assert!(err.is_transient());
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(layer.stats().injected_errors, 4);
    }

    #[test]
    fn injection_is_deterministic_per_seed_query_and_attempt() {
        let run = |seed: u64| -> Vec<bool> {
            let (svc, _) = counting_service();
            let layer = FaultInject::new(svc, FaultConfig::errors(seed, 0.5));
            // three attempts per query, exactly as a retry loop issues
            queries(6)
                .iter()
                .flat_map(|q| (0..3).map(|_| layer.query(q).is_err()).collect::<Vec<_>>())
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must inject identically");
        assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e));
        let c = run(43);
        assert_ne!(a, c, "a different seed re-rolls the outcomes");
    }

    #[test]
    fn successful_attempts_pass_replies_through_unchanged() {
        let qs = queries(6);
        let (clean, _) = counting_service();
        let expected: Vec<f64> = qs.iter().map(|q| clean.query(q).unwrap().seconds).collect();
        let (svc, _) = counting_service();
        let layer = FaultInject::new(svc, FaultConfig::errors(3, 0.4));
        for (q, want) in qs.iter().zip(&expected) {
            // retry until the injection hash lets the query through
            let got = (0..64)
                .find_map(|_| layer.query(q).ok())
                .expect("some attempt passes");
            assert_eq!(got.seconds.to_bits(), want.to_bits());
            assert_eq!(got.source, "counting");
        }
    }

    /// Over twelve one-layer queries, which of each query's first four
    /// attempts fail: bit `k` of its mask is attempt `k`.
    fn failure_masks(seed: u64, error_rate: f64) -> Vec<u8> {
        let (svc, _) = counting_service();
        let layer = FaultInject::new(svc, FaultConfig::errors(seed, error_rate));
        queries(12)
            .iter()
            .map(|q| (0..4).fold(0, |mask, k| mask | (u8::from(layer.query(q).is_err()) << k)))
            .collect()
    }

    #[test]
    fn fault_schedules_are_pinned() {
        // a change to the decision hash re-rolls these; the chaos gate
        // (seed 1 at 0.2 behind 3 retries) relies on its schedule
        assert_eq!(
            failure_masks(1, 0.2),
            [0b1000, 0b0011, 0, 0, 0, 0b0011, 0, 0b0101, 0b0001, 0b0011, 0, 0b1000]
        );
        assert_eq!(
            failure_masks(3, 0.4),
            [
                0b1000, 0, 0b0001, 0b0110, 0b1000, 0b0101, 0b0101, 0b1000, 0b1111, 0b1101, 0b1101,
                0
            ]
        );
    }
}
