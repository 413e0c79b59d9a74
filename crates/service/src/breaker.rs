//! Admission control: stop sending work to a source that keeps
//! failing.
//!
//! [`AdmissionControl`] is the gate the `predtop serve` engine asks
//! before it dispatches each work request, and feeds each admitted
//! request's outcome back into. It runs the classic three-state breaker
//! over a sliding window of recent outcomes, all sized by one trip count
//! `n` ([`BreakerConfig::tripping_after`]):
//!
//! * **Closed** — requests are admitted; outcomes are recorded into a
//!   sliding window of the last `2n` of them. When the window holds `n`
//!   failures, the breaker trips.
//! * **Open** — the next `n` requests are shed, each told how many
//!   cooldown rejections are left, so the caller never consults the
//!   failing source.
//! * **Half-open** — once the cooldown is spent, admitted requests are
//!   probes: the first recorded success closes the breaker (with a
//!   fresh window); the first recorded failure re-opens it.
//!
//! The cooldown is counted in *rejections*, not wall time, so the state
//! machine is a pure function of the admissions and outcomes it
//! observes. Concurrent requests interleave those in completion order,
//! so *which* requests a multi-client daemon sheds is
//! schedule-dependent; no reply value ever is.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

/// The trip count of an [`AdmissionControl`]: `n` failures within the
/// last `2n` outcomes trip it, and it then sheds the next `n` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// At least 1, so the window is never empty.
    failure_threshold: usize,
}

impl BreakerConfig {
    /// Trip after `failure_threshold` failures (at least one) in a window
    /// of twice that size, with a cooldown of the same length.
    pub fn tripping_after(failure_threshold: usize) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: failure_threshold.max(1),
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
    /// Requests are admitted; outcomes feed the sliding window.
    Closed,
    /// Requests are shed until the cooldown is spent.
    Open,
    /// Cooldown spent; admitted requests are recovery probes.
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

/// A snapshot of an [`AdmissionControl`]'s counters.
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
    /// Requests shed while open.
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

/// The machine's position, with what that position needs to move on.
#[derive(Debug)]
enum Mode {
    /// `true` marks a failure among the last `2n` outcomes.
    Closed {
        window: VecDeque<bool>,
    },
    Open {
        rejections_left: usize,
    },
    HalfOpen,
}

/// The lock-guarded machine: its position plus the transition counts.
#[derive(Debug)]
struct Machine {
    mode: Mode,
    stats: BreakerStats,
}

impl Machine {
    fn enter(&mut self, mode: Mode) {
        self.stats.state = match mode {
            Mode::Closed { .. } => CircuitState::Closed,
            Mode::Open { .. } => CircuitState::Open,
            Mode::HalfOpen => CircuitState::HalfOpen,
        };
        self.mode = mode;
    }
}

/// The breaker's state machine as a gate in front of a service — see the
/// module docs. Clones share one machine.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    /// Failures in the window that trip the machine; the window holds
    /// twice as many outcomes and the cooldown sheds as many requests.
    threshold: usize,
    machine: Arc<Mutex<Machine>>,
}

impl AdmissionControl {
    /// A fresh controller with the given trip count, starting closed.
    pub fn new(config: BreakerConfig) -> AdmissionControl {
        AdmissionControl {
            threshold: config.failure_threshold,
            machine: Arc::new(Mutex::new(Machine {
                mode: Mode::Closed {
                    window: VecDeque::new(),
                },
                stats: BreakerStats::default(),
            })),
        }
    }

    /// Admission decision for one request: `Ok(())` admits it (the
    /// caller must later [`record`](AdmissionControl::record) the
    /// outcome), `Err(n)` sheds it with `n` cooldown rejections left
    /// before a half-open probe is admitted.
    pub fn try_admit(&self) -> Result<(), u64> {
        let mut m = self.machine.lock();
        match &mut m.mode {
            Mode::Closed { .. } | Mode::HalfOpen => Ok(()),
            Mode::Open { rejections_left: 0 } => {
                m.enter(Mode::HalfOpen);
                m.stats.half_opened += 1;
                Ok(())
            }
            Mode::Open { rejections_left } => {
                *rejections_left -= 1;
                let left = *rejections_left as u64;
                m.stats.rejected += 1;
                Err(left)
            }
        }
    }

    /// Feed one admitted request's outcome back into the machine.
    pub fn record(&self, ok: bool) {
        let mut m = self.machine.lock();
        let trip = match &mut m.mode {
            Mode::Closed { window } => {
                if window.len() == 2 * self.threshold {
                    window.pop_front();
                }
                window.push_back(!ok);
                window.iter().filter(|&&failed| failed).count() >= self.threshold
            }
            Mode::HalfOpen if ok => {
                m.enter(Mode::Closed {
                    window: VecDeque::new(),
                });
                m.stats.closed += 1;
                false
            }
            Mode::HalfOpen => true,
            // the breaker tripped while this request was in flight; its
            // outcome no longer moves the machine
            Mode::Open { .. } => false,
        };
        if trip {
            m.enter(Mode::Open {
                rejections_left: self.threshold,
            });
            m.stats.opened += 1;
        }
    }

    /// Counters (and current state) accumulated since construction.
    pub fn stats(&self) -> BreakerStats {
        self.machine.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request through the gate: shed with the cooldown left, or
    /// admitted with its outcome `ok` recorded.
    fn request(ac: &AdmissionControl, ok: bool) -> Result<(), u64> {
        ac.try_admit()?;
        ac.record(ok);
        Ok(())
    }

    #[test]
    fn healthy_traffic_never_trips_the_breaker() {
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(2));
        for _ in 0..32 {
            assert_eq!(request(&ac, true), Ok(()));
        }
        let s = ac.stats();
        assert_eq!(s.state, CircuitState::Closed);
        assert_eq!(s.opened, 0);
        assert_eq!(s.rejected, 0);
    }

    #[test]
    fn threshold_failures_trip_the_breaker_open() {
        // three failures in a window of six trip it; a failure that has
        // slid out of the window no longer counts
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(3));
        for ok in [false, true, true, true, true, true, false, false] {
            request(&ac, ok).unwrap();
        }
        assert_eq!(ac.stats().state, CircuitState::Closed, "two in the window");
        request(&ac, false).unwrap();
        let s = ac.stats();
        assert_eq!(s.state, CircuitState::Open);
        assert_eq!(s.opened, 1);
    }

    #[test]
    fn open_breaker_rejects_without_consulting_inner() {
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(4));
        let mut calls = 0;
        let mut serve = |ok| {
            ac.try_admit()?;
            calls += 1;
            ac.record(ok);
            Ok::<(), u64>(())
        };
        for _ in 0..4 {
            serve(false).unwrap(); // the fourth trips it
        }
        // the cooldown counts its rejections down, reporting what is left
        for left in (0..4).rev() {
            assert_eq!(serve(true), Err(left));
        }
        assert_eq!(calls, 4, "a shed request never reaches the source");
        assert_eq!(ac.stats().rejected, 4);
    }

    #[test]
    fn successful_probe_closes_the_breaker() {
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(2));
        request(&ac, false).unwrap();
        request(&ac, false).unwrap(); // Closed → Open
        assert_eq!(request(&ac, true), Err(1));
        assert_eq!(request(&ac, true), Err(0));
        request(&ac, true).unwrap(); // half-open probe succeeds
        let s = ac.stats();
        assert_eq!(s.state, CircuitState::Closed);
        assert_eq!(s.opened, 1);
        assert_eq!(s.half_opened, 1);
        assert_eq!(s.closed, 1);
        assert_eq!(s.rejected, 2);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(1));
        request(&ac, false).unwrap(); // trips
        assert_eq!(request(&ac, false), Err(0));
        request(&ac, false).unwrap(); // probe fails → reopen
        let s = ac.stats();
        assert_eq!(s.state, CircuitState::Open);
        assert_eq!(s.opened, 2);
        assert_eq!(s.half_opened, 1);
        assert_eq!(s.closed, 0);
    }

    #[test]
    fn closing_resets_the_sliding_window() {
        // two failures trip it; after a successful probe, one fresh
        // failure must NOT re-trip, because the old ones were discarded
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(2));
        request(&ac, false).unwrap();
        request(&ac, false).unwrap(); // Open
        assert!(request(&ac, true).is_err());
        assert!(request(&ac, true).is_err());
        request(&ac, true).unwrap(); // probe ok → Closed, window reset
        request(&ac, false).unwrap(); // one fresh failure
        assert_eq!(ac.stats().state, CircuitState::Closed);
        assert_eq!(request(&ac, true), Ok(()));
    }

    #[test]
    fn admission_control_runs_the_same_machine_without_a_stack() {
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(2));
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
        assert_eq!(ac.stats().state, CircuitState::HalfOpen);
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
        let ac = AdmissionControl::new(BreakerConfig::tripping_after(1));
        let other = ac.clone();
        ac.try_admit().unwrap();
        ac.record(false); // trips
        assert!(other.try_admit().is_err(), "clone observes the trip");
        assert_eq!(other.stats().rejected, 1);
    }
}
