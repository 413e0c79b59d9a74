//! The circuit-breaker layer: stop hammering a source that keeps
//! failing.
//!
//! [`CircuitBreaker`] runs the classic three-state machine over a
//! sliding window of recent outcomes:
//!
//! * **Closed** — queries pass through; outcomes are recorded into a
//!   sliding window of the last [`BreakerConfig::window`] attempts.
//!   When the window holds at least
//!   [`BreakerConfig::failure_threshold`] failures, the breaker trips.
//! * **Open** — the next [`BreakerConfig::cooldown_rejections`] queries
//!   are rejected with [`ServiceError::CircuitOpen`] *without*
//!   consulting the inner service, giving it room to recover.
//! * **Half-open** — once the cooldown is spent, admitted queries are
//!   probes: the first recorded success closes the breaker (with a
//!   fresh window); the first recorded failure re-opens it.
//!
//! The cooldown is counted in *rejections*, not wall time — the same
//! deterministic simulated-time style as the retry layer's accounted
//! backoff. A count-based cooldown makes the state machine a pure
//! function of the outcome sequence it observes, which keeps
//! single-threaded chaos runs exactly reproducible. (Under a
//! multi-threaded [`crate::Batched`] fan-out the *interleaving* of
//! outcomes is scheduling-dependent, so breaker trips may differ run to
//! run — the layer-ordering rules in DESIGN.md §10 spell out when that
//! matters.)
//!
//! [`ServiceError::CircuitOpen`] is classified `Transient`: the breaker
//! half-opens after its cooldown, so a [`crate::Retry`] layer *outside*
//! the breaker can ride through an open period — each rejected retry
//! burns one cooldown step until a probe is admitted.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Trip and recovery thresholds of a [`CircuitBreaker`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Size of the sliding outcome window consulted while closed.
    pub window: usize,
    /// Number of failures within the window that trips the breaker.
    pub failure_threshold: usize,
    /// Number of queries rejected while open before a half-open probe
    /// is admitted.
    pub cooldown_rejections: usize,
}

impl BreakerConfig {
    /// Trip after `failure_threshold` failures in a window of twice
    /// that size, with a cooldown of the same length.
    pub fn tripping_after(failure_threshold: usize) -> BreakerConfig {
        let t = failure_threshold.max(1);
        BreakerConfig {
            window: 2 * t,
            failure_threshold: t,
            cooldown_rejections: t,
        }
    }
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig::tripping_after(5)
    }
}

/// The observable position of a breaker's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircuitState {
    /// Queries pass through; outcomes feed the sliding window.
    Closed,
    /// Queries are rejected until the cooldown is spent.
    Open,
    /// Cooldown spent; admitted queries are recovery probes.
    HalfOpen,
}

impl std::fmt::Display for CircuitState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitState::Closed => write!(f, "closed"),
            CircuitState::Open => write!(f, "open"),
            CircuitState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// A snapshot of a [`CircuitBreaker`] layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerStats {
    /// Current position of the state machine.
    pub state: CircuitState,
    /// Closed→Open and HalfOpen→Open transitions.
    pub opened: usize,
    /// Open→HalfOpen transitions (cooldowns spent).
    pub half_opened: usize,
    /// HalfOpen→Closed transitions (successful probes).
    pub closed: usize,
    /// Queries rejected with [`ServiceError::CircuitOpen`].
    pub rejected: usize,
}

impl Default for BreakerStats {
    fn default() -> BreakerStats {
        BreakerStats {
            state: CircuitState::Closed,
            opened: 0,
            half_opened: 0,
            closed: 0,
            rejected: 0,
        }
    }
}

/// The lock-guarded half of the machine: state plus the sliding window.
#[derive(Debug)]
enum Mode {
    Closed { window: VecDeque<bool> },
    Open { rejections_left: usize },
    HalfOpen,
}

#[derive(Debug)]
pub(crate) struct BreakerState {
    config: BreakerConfig,
    mode: Mutex<Mode>,
    opened: AtomicUsize,
    half_opened: AtomicUsize,
    closed: AtomicUsize,
    rejected: AtomicUsize,
}

impl BreakerState {
    fn new(config: BreakerConfig) -> BreakerState {
        assert!(config.window >= 1, "breaker window must be non-empty");
        assert!(
            (1..=config.window).contains(&config.failure_threshold),
            "failure threshold must fit inside the window"
        );
        BreakerState {
            config,
            mode: Mutex::new(Mode::Closed {
                window: VecDeque::with_capacity(config.window),
            }),
            opened: AtomicUsize::new(0),
            half_opened: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
        }
    }

    fn snapshot(&self) -> BreakerStats {
        let state = match &*self.mode.lock() {
            Mode::Closed { .. } => CircuitState::Closed,
            Mode::Open { .. } => CircuitState::Open,
            Mode::HalfOpen => CircuitState::HalfOpen,
        };
        BreakerStats {
            state,
            opened: self.opened.load(Ordering::Relaxed),
            half_opened: self.half_opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Admission decision: `Ok(())` admits the query, `Err(n)` rejects
    /// it with `n` cooldown rejections remaining. The inner call itself
    /// happens outside this lock.
    fn admit(&self) -> Result<(), u64> {
        let mut mode = self.mode.lock();
        match &mut *mode {
            Mode::Closed { .. } | Mode::HalfOpen => Ok(()),
            Mode::Open { rejections_left } => {
                if *rejections_left > 0 {
                    *rejections_left -= 1;
                    let remaining = *rejections_left as u64;
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    Err(remaining)
                } else {
                    *mode = Mode::HalfOpen;
                    self.half_opened.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
            }
        }
    }

    /// Feed one observed outcome back into the state machine.
    fn record(&self, ok: bool) {
        let mut mode = self.mode.lock();
        match &mut *mode {
            Mode::Closed { window } => {
                if window.len() == self.config.window {
                    window.pop_front();
                }
                window.push_back(!ok);
                let failures = window.iter().filter(|&&f| f).count();
                if failures >= self.config.failure_threshold {
                    *mode = Mode::Open {
                        rejections_left: self.config.cooldown_rejections,
                    };
                    self.opened.fetch_add(1, Ordering::Relaxed);
                }
            }
            Mode::HalfOpen => {
                if ok {
                    *mode = Mode::Closed {
                        window: VecDeque::with_capacity(self.config.window),
                    };
                    self.closed.fetch_add(1, Ordering::Relaxed);
                } else {
                    *mode = Mode::Open {
                        rejections_left: self.config.cooldown_rejections,
                    };
                    self.opened.fetch_add(1, Ordering::Relaxed);
                }
            }
            // the breaker tripped while this call was already in
            // flight; its outcome no longer moves the machine
            Mode::Open { .. } => {}
        }
    }
}

/// Shared view of a [`CircuitBreaker`] layer's counters, usable after
/// the layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct BreakerHandle(pub(crate) Arc<BreakerState>);

impl BreakerHandle {
    /// Counters (and current state) accumulated since the layer was
    /// built.
    pub fn stats(&self) -> BreakerStats {
        self.0.snapshot()
    }
}

/// The breaker's state machine as a standalone admission controller,
/// for gatekeepers that sit *in front of* a service rather than inside
/// its stack — the `predtop serve` daemon asks it before dispatching
/// each request and feeds the outcome back after. Same machine, same
/// counters, same determinism contract as the [`CircuitBreaker`]
/// middleware; the only difference is who calls the inner service.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    state: Arc<BreakerState>,
}

impl AdmissionControl {
    /// A fresh controller with the given thresholds, starting closed.
    pub fn new(config: BreakerConfig) -> AdmissionControl {
        AdmissionControl {
            state: Arc::new(BreakerState::new(config)),
        }
    }

    /// Admission decision for one request: `Ok(())` admits it (the
    /// caller must later [`record`](AdmissionControl::record) the
    /// outcome), `Err(n)` sheds it with `n` cooldown rejections left
    /// before a half-open probe is admitted.
    pub fn try_admit(&self) -> Result<(), u64> {
        self.state.admit()
    }

    /// Feed one admitted request's outcome back into the machine.
    pub fn record(&self, ok: bool) {
        self.state.record(ok);
    }

    /// Counters (and current state) accumulated since construction.
    pub fn stats(&self) -> BreakerStats {
        self.state.snapshot()
    }
}

/// Middleware that sheds load off a persistently failing service — see
/// the module docs for the state machine.
pub struct CircuitBreaker<S> {
    inner: S,
    state: Arc<BreakerState>,
}

impl<S> CircuitBreaker<S> {
    /// Wrap `inner` with the given thresholds, starting closed.
    pub fn new(inner: S, config: BreakerConfig) -> CircuitBreaker<S> {
        CircuitBreaker {
            inner,
            state: Arc::new(BreakerState::new(config)),
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> BreakerHandle {
        BreakerHandle(self.state.clone())
    }

    /// Counters (and current state) accumulated since construction.
    pub fn stats(&self) -> BreakerStats {
        self.state.snapshot()
    }
}

impl<S: LatencyService> LatencyService for CircuitBreaker<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        if let Err(cooldown_remaining) = self.state.admit() {
            return Err(ServiceError::CircuitOpen {
                source: self.inner.name(),
                cooldown_remaining,
            });
        }
        let r = self.inner.query(q);
        self.state.record(r.is_ok());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

    fn q(i: usize) -> LatencyQuery {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 8;
        LatencyQuery::new(
            StageSpec::new(m, i, i + 1),
            MeshShape::new(1, 1),
            ParallelConfig::SERIAL,
        )
    }

    /// A service whose per-call outcomes follow a script.
    struct Scripted(Mutex<VecDeque<bool>>);

    impl Scripted {
        fn new(outcomes: &[bool]) -> Scripted {
            Scripted(Mutex::new(outcomes.iter().copied().collect()))
        }
    }

    impl LatencyService for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn query(&self, _q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            if self.0.lock().pop_front().unwrap_or(true) {
                Ok(LatencyReply {
                    seconds: 1.0,
                    source: "scripted",
                })
            } else {
                Err(ServiceError::Unavailable {
                    source: "scripted",
                    reason: "scripted failure".into(),
                })
            }
        }
    }

    #[test]
    fn healthy_traffic_never_trips_the_breaker() {
        let (svc, _) = counting_service();
        let breaker = CircuitBreaker::new(svc, BreakerConfig::tripping_after(2));
        for i in 0..32 {
            assert!(breaker.query(&q(i % 8)).is_ok());
        }
        let s = breaker.stats();
        assert_eq!(s.state, CircuitState::Closed);
        assert_eq!(s.opened, 0);
        assert_eq!(s.rejected, 0);
    }

    #[test]
    fn threshold_failures_trip_the_breaker_open() {
        let breaker =
            CircuitBreaker::new(failing_service("dead"), BreakerConfig::tripping_after(3));
        for i in 0..3 {
            assert!(matches!(
                breaker.query(&q(i)),
                Err(ServiceError::Unavailable { .. })
            ));
        }
        let s = breaker.stats();
        assert_eq!(s.state, CircuitState::Open);
        assert_eq!(s.opened, 1);
    }

    #[test]
    fn open_breaker_rejects_without_consulting_inner() {
        let cfg = BreakerConfig {
            window: 2,
            failure_threshold: 1,
            cooldown_rejections: 4,
        };
        let breaker = CircuitBreaker::new(failing_service("dead"), cfg);
        breaker.query(&q(0)).unwrap_err(); // trips
        for k in 0..4 {
            match breaker.query(&q(0)).unwrap_err() {
                ServiceError::CircuitOpen {
                    cooldown_remaining, ..
                } => {
                    assert_eq!(cooldown_remaining, 3 - k as u64);
                }
                other => panic!("expected CircuitOpen, got {other}"),
            }
        }
        assert_eq!(breaker.stats().rejected, 4);
    }

    #[test]
    fn successful_probe_closes_the_breaker() {
        // fail once (trips, threshold 1), then recover
        let svc = Scripted::new(&[false]);
        let cfg = BreakerConfig {
            window: 2,
            failure_threshold: 1,
            cooldown_rejections: 2,
        };
        let breaker = CircuitBreaker::new(svc, cfg);
        breaker.query(&q(0)).unwrap_err(); // Closed → Open
        breaker.query(&q(0)).unwrap_err(); // rejected (1 left)
        breaker.query(&q(0)).unwrap_err(); // rejected (0 left)
        let r = breaker.query(&q(0)); // half-open probe, script says ok
        assert!(r.is_ok());
        let s = breaker.stats();
        assert_eq!(s.state, CircuitState::Closed);
        assert_eq!(s.opened, 1);
        assert_eq!(s.half_opened, 1);
        assert_eq!(s.closed, 1);
        assert_eq!(s.rejected, 2);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let cfg = BreakerConfig {
            window: 2,
            failure_threshold: 1,
            cooldown_rejections: 1,
        };
        let breaker = CircuitBreaker::new(failing_service("dead"), cfg);
        breaker.query(&q(0)).unwrap_err(); // trips
        breaker.query(&q(0)).unwrap_err(); // rejected
        breaker.query(&q(0)).unwrap_err(); // probe fails → reopen
        let s = breaker.stats();
        assert_eq!(s.state, CircuitState::Open);
        assert_eq!(s.opened, 2);
        assert_eq!(s.half_opened, 1);
        assert_eq!(s.closed, 0);
    }

    #[test]
    fn breaker_rejections_are_transient_for_the_retry_layer() {
        let cfg = BreakerConfig {
            window: 2,
            failure_threshold: 1,
            cooldown_rejections: 3,
        };
        let breaker = CircuitBreaker::new(failing_service("dead"), cfg);
        breaker.query(&q(0)).unwrap_err();
        let err = breaker.query(&q(0)).unwrap_err();
        assert!(matches!(err, ServiceError::CircuitOpen { .. }));
        assert!(err.is_transient(), "retry can ride through an open period");
    }

    #[test]
    fn closing_resets_the_sliding_window() {
        // threshold 2 in a window of 3: fail, fail (trip), cooldown 1,
        // probe ok (close + fresh window), then one failure must NOT
        // re-trip because the old failures were discarded
        let svc = Scripted::new(&[false, false, true, false, true, true]);
        let cfg = BreakerConfig {
            window: 3,
            failure_threshold: 2,
            cooldown_rejections: 1,
        };
        let breaker = CircuitBreaker::new(svc, cfg);
        breaker.query(&q(0)).unwrap_err(); // fail 1
        breaker.query(&q(0)).unwrap_err(); // fail 2 → Open
        breaker.query(&q(0)).unwrap_err(); // rejected
        assert!(breaker.query(&q(0)).is_ok()); // probe ok → Closed, window reset
        breaker.query(&q(0)).unwrap_err(); // one fresh failure
        assert_eq!(breaker.stats().state, CircuitState::Closed);
        assert!(breaker.query(&q(0)).is_ok());
    }

    #[test]
    fn admission_control_runs_the_same_machine_without_a_stack() {
        let ac = AdmissionControl::new(BreakerConfig {
            window: 2,
            failure_threshold: 2,
            cooldown_rejections: 2,
        });
        // healthy traffic passes
        ac.try_admit().unwrap();
        ac.record(true);
        // two failures in the window trip it
        ac.try_admit().unwrap();
        ac.record(false);
        ac.try_admit().unwrap();
        ac.record(false);
        assert_eq!(ac.stats().state, CircuitState::Open);
        // cooldown counts down in rejections
        assert_eq!(ac.try_admit(), Err(1));
        assert_eq!(ac.try_admit(), Err(0));
        // then a probe is admitted; success closes the machine
        ac.try_admit().unwrap();
        ac.record(true);
        let s = ac.stats();
        assert_eq!(s.state, CircuitState::Closed);
        assert_eq!(s.opened, 1);
        assert_eq!(s.half_opened, 1);
        assert_eq!(s.closed, 1);
        assert_eq!(s.rejected, 2);
    }

    #[test]
    fn admission_control_clones_share_one_machine() {
        let ac = AdmissionControl::new(BreakerConfig {
            window: 2,
            failure_threshold: 1,
            cooldown_rejections: 8,
        });
        let other = ac.clone();
        ac.try_admit().unwrap();
        ac.record(false); // trips
        assert!(other.try_admit().is_err(), "clone observes the trip");
        assert_eq!(other.stats().rejected, 1);
    }
}
