//! The graceful-degradation layer: try a primary source, fall back to a
//! secondary on error, and keep count of who actually answered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// How many queries each side of a [`Fallback`] ended up serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FallbackStats {
    /// Queries answered by the primary source.
    pub primary_served: usize,
    /// Queries the primary refused and the secondary answered.
    pub fallback_served: usize,
}

#[derive(Debug, Default)]
pub(crate) struct FallbackState {
    primary: AtomicUsize,
    secondary: AtomicUsize,
}

impl FallbackState {
    fn snapshot(&self) -> FallbackStats {
        FallbackStats {
            primary_served: self.primary.load(Ordering::Relaxed),
            fallback_served: self.secondary.load(Ordering::Relaxed),
        }
    }
}

/// Shared view of a [`Fallback`] layer's counters, usable after the
/// layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct FallbackHandle(pub(crate) Arc<FallbackState>);

impl FallbackHandle {
    /// Who served how many queries since the layer was built.
    pub fn stats(&self) -> FallbackStats {
        self.0.snapshot()
    }
}

/// Middleware that chains two latency sources: every query first goes to
/// `primary`; on any [`ServiceError`] the same query is retried against
/// `secondary`. Chaining `Fallback`s nests arbitrarily deep — the
/// canonical stack is predictor → analytic → simulator.
///
/// Attribution: the reply's [`LatencyReply::source`] is whatever base
/// service actually answered, so a downstream consumer (or a test) can
/// assert *which* model a number came from. Only when both sides fail is
/// the secondary's error returned.
pub struct Fallback<A, B> {
    primary: A,
    secondary: B,
    state: Arc<FallbackState>,
}

impl<A, B> Fallback<A, B> {
    /// Serve from `primary`, degrading to `secondary` per query.
    pub fn new(primary: A, secondary: B) -> Fallback<A, B> {
        Fallback {
            primary,
            secondary,
            state: Arc::new(FallbackState::default()),
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> FallbackHandle {
        FallbackHandle(self.state.clone())
    }

    /// Who served how many queries since construction.
    pub fn stats(&self) -> FallbackStats {
        self.state.snapshot()
    }
}

impl<A: LatencyService, B: LatencyService> LatencyService for Fallback<A, B> {
    fn name(&self) -> &'static str {
        self.primary.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        match self.primary.query(q) {
            Ok(r) => {
                self.state.primary.fetch_add(1, Ordering::Relaxed);
                Ok(r)
            }
            Err(_) => {
                let r = self.secondary.query(q)?;
                self.state.secondary.fetch_add(1, Ordering::Relaxed);
                Ok(r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

    fn q(start: usize, end: usize) -> LatencyQuery {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 4;
        LatencyQuery::new(
            StageSpec::new(m, start, end),
            MeshShape::new(1, 1),
            ParallelConfig::SERIAL,
        )
    }

    #[test]
    fn healthy_primary_serves_everything() {
        let (primary, _) = counting_service();
        let (secondary, sec_calls) = counting_service();
        let fb = Fallback::new(primary, secondary);
        let r = fb.query(&q(0, 2)).unwrap();
        assert_eq!(r.source, "counting");
        assert_eq!(
            fb.stats(),
            FallbackStats {
                primary_served: 1,
                fallback_served: 0
            }
        );
        assert_eq!(sec_calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failed_primary_degrades_per_query() {
        let (secondary, sec_calls) = counting_service();
        let fb = Fallback::new(failing_service("predictor"), secondary);
        let r = fb.query(&q(0, 2)).unwrap();
        assert_eq!(r.source, "counting", "reply attributes the actual server");
        assert_eq!(
            fb.stats(),
            FallbackStats {
                primary_served: 0,
                fallback_served: 1
            }
        );
        assert_eq!(sec_calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn both_failing_returns_secondary_error() {
        let fb = Fallback::new(failing_service("predictor"), failing_service("analytic"));
        let err = fb.query(&q(0, 1)).unwrap_err();
        assert_eq!(err.source(), "analytic");
        assert_eq!(fb.stats(), FallbackStats::default());
    }

    #[test]
    fn nested_fallback_chains_three_sources() {
        let (sim, _) = counting_service();
        let fb = Fallback::new(
            failing_service("predictor"),
            Fallback::new(failing_service("analytic"), sim),
        );
        let r = fb.query(&q(1, 3)).unwrap();
        assert_eq!(r.source, "counting");
    }
}
