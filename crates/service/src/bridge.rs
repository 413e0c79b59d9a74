//! Bridges between the service stack and the pre-service
//! [`StageLatencyProvider`] world — the *only* place the two traits are
//! converted.
//!
//! [`ProviderService`] lifts any provider *into* the stack, and
//! [`AsProvider`] projects a stack back *down* to a provider for APIs
//! (like `PipelinePlan::latency`) that still speak the older trait.
//! Callers must not hand-roll their own lift code: one conversion point
//! keeps the attribution labels and error mapping consistent across the
//! workspace.

use predtop_models::StageSpec;
use predtop_parallel::{MeshShape, ParallelConfig, StageLatencyProvider};

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Adapter lifting a [`StageLatencyProvider`] into a named
/// [`LatencyService`].
///
/// Providers are infallible by contract (they always return *some*
/// `f64`), so every query succeeds and is attributed to `name`.
pub struct ProviderService<P> {
    provider: P,
    name: &'static str,
}

impl<P> ProviderService<P> {
    /// Lift `provider` under the attribution label `name`.
    pub fn new(provider: P, name: &'static str) -> ProviderService<P> {
        ProviderService { provider, name }
    }
}

impl<P: StageLatencyProvider> LatencyService for ProviderService<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        Ok(LatencyReply {
            seconds: self.provider.stage_latency(&q.stage, q.mesh, q.config),
            source: self.name,
        })
    }
}

/// Adapter projecting a [`LatencyService`] back down to a
/// [`StageLatencyProvider`], for pre-service APIs that still take the
/// provider trait.
///
/// The provider signature has no error channel, so a service error maps
/// to `f64::INFINITY` — the optimizer and Eqn. 4 both treat an infinite
/// stage as "never pick this", which is the correct degradation.
pub struct AsProvider<S>(pub S);

impl<S: LatencyService> StageLatencyProvider for AsProvider<S> {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        match self.0.query(&LatencyQuery::new(*stage, mesh, config)) {
            Ok(r) => r.seconds,
            Err(_) => f64::INFINITY,
        }
    }
}

/// A service that can never answer — the degenerate base of a
/// [`crate::Fallback`] chain, used e.g. when the CLI is asked for a
/// trained predictor but the model file failed to load.
pub struct Unavailable {
    name: &'static str,
    reason: String,
}

impl Unavailable {
    /// A source called `name` that refuses every query with `reason`.
    pub fn new(name: &'static str, reason: impl Into<String>) -> Unavailable {
        Unavailable {
            name,
            reason: reason.into(),
        }
    }
}

impl LatencyService for Unavailable {
    fn name(&self) -> &'static str {
        self.name
    }

    fn query(&self, _q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        Err(ServiceError::Unavailable {
            source: self.name,
            reason: self.reason.clone(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A deterministic pure test provider: latency derived from the
    /// query triple alone.
    pub(crate) struct SyntheticProvider;

    impl StageLatencyProvider for SyntheticProvider {
        fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
            let layers = (stage.end - stage.start) as f64;
            let devices = mesh.num_devices() as f64;
            let ways = config.num_devices() as f64;
            layers * 0.01 / devices + 0.001 * ways
        }
    }

    struct CountingService(Arc<AtomicUsize>);

    impl LatencyService for CountingService {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(LatencyReply {
                seconds: SyntheticProvider.stage_latency(&q.stage, q.mesh, q.config),
                source: "counting",
            })
        }
    }

    /// A service named "counting" whose replies are a pure function of
    /// the query, plus the shared call counter.
    pub(crate) fn counting_service() -> (impl LatencyService, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        (CountingService(calls.clone()), calls)
    }

    /// A service that refuses every query.
    pub(crate) fn failing_service(name: &'static str) -> Unavailable {
        Unavailable::new(name, "synthetic test failure")
    }

    use predtop_models::ModelSpec;

    fn sample_query() -> LatencyQuery {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 4;
        LatencyQuery::new(
            StageSpec::new(m, 0, 2),
            MeshShape::new(1, 2),
            ParallelConfig::SERIAL,
        )
    }

    #[test]
    fn provider_service_round_trips_through_as_provider() {
        let q = sample_query();
        let svc = ProviderService::new(SyntheticProvider, "synthetic");
        let direct = SyntheticProvider.stage_latency(&q.stage, q.mesh, q.config);
        let reply = svc.query(&q).unwrap();
        assert_eq!(reply.seconds.to_bits(), direct.to_bits());
        assert_eq!(reply.source, "synthetic");
        let back = AsProvider(svc);
        assert_eq!(
            back.stage_latency(&q.stage, q.mesh, q.config).to_bits(),
            direct.to_bits()
        );
    }

    #[test]
    fn batched_provider_serves_the_provider_values_under_its_label() {
        let q = sample_query();
        let direct = SyntheticProvider.stage_latency(&q.stage, q.mesh, q.config);
        let stack =
            crate::ServiceBuilder::new(ProviderService::new(SyntheticProvider, "synthetic"))
                .batched(2)
                .finish();
        let r = stack.query(&q).unwrap();
        assert_eq!(r.seconds.to_bits(), direct.to_bits());
        assert_eq!(r.source, "synthetic");
    }

    #[test]
    fn as_provider_maps_errors_to_infinity() {
        let q = sample_query();
        let p = AsProvider(failing_service("down"));
        assert!(p.stage_latency(&q.stage, q.mesh, q.config).is_infinite());
    }
}
