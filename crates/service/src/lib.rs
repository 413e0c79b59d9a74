//! # predtop-service
//!
//! The composable latency-service layer: one [`LatencyService`] trait
//! that every latency source implements — the ground-truth simulator,
//! the analytic white-box model, the trained gray-box predictor — plus
//! tower-style middleware layers that any source can wear:
//!
//! * [`Memoize`] — single-flight memoization per structural class of
//!   queries (isomorphic sub-problems share one entry), with hit/miss
//!   [`CacheStats`];
//! * [`Persist`] — the disk tier under [`Memoize`]: replies are served
//!   from (and write-behind into) a content-addressed
//!   `predtop-store` directory, keyed by structural descriptor plus a
//!   namespace, so a second run starts warm;
//! * [`Batched`] — evaluates whole query batches in one deterministic
//!   `predtop-runtime` fan-out (`par_map_with`), so the plan-search
//!   engine's candidate table is bit-identical at any thread count;
//! * [`Instrumented`] — per-layer query/batch/error counters plus a
//!   deterministic accounting of the latency-seconds the stack served;
//! * [`Fallback`] — graceful degradation between sources (predictor →
//!   analytic → simulator), with the source that actually answered
//!   recorded on every [`LatencyReply`];
//! * [`FaultInject`] — deterministic hash-seeded chaos (injected
//!   transient errors) for resilience drills;
//! * [`Retry`] — bounded re-attempts of transient failures with
//!   deterministic accounted exponential backoff;
//! * [`Deadline`] — a per-query wall-clock budget that
//!   converts overruns into structured [`ServiceError::DeadlineExceeded`].
//!
//! Failures speak one structured vocabulary: every [`ServiceError`]
//! variant carries the source it is attributed to and a fixed
//! [`Retryability`] classification that the fault-tolerance layers (and
//! the CLI) dispatch on.
//!
//! Stacks are assembled with [`ServiceBuilder`]: its combinators choose
//! which layers a stack has, and `finish` wraps them in the one
//! canonical order (see [`builder`]). It keeps shared [`StackHandles`]
//! to each layer's counters so outcomes (e.g. `predtop-core`'s
//! `SearchOutcome`) can surface cache and fallback accounting without
//! holding the stack itself.
//!
//! Determinism contract: no layer may change the *value* a query
//! resolves to — only how it is computed (cached, fanned out, counted,
//! or served by a stand-in source). The inter-stage DP therefore chooses
//! bit-identical plans through any stack built from these layers.
//!
//! Bridges to the pre-service world: [`ProviderService`] lifts any
//! `predtop_parallel::StageLatencyProvider` into a named service, and
//! [`AsProvider`] projects a service back down for APIs (like
//! `PipelinePlan::latency`) that still speak the provider trait.
//!
//! The serving surface sits on top: [`api`] is the versioned
//! request/response vocabulary every frontend (CLI, wire protocol,
//! tests) shares; [`wire`] frames it over TCP and Unix sockets for the
//! `predtop serve` daemon, with [`AdmissionControl`] — a
//! closed/open/half-open breaker over a sliding failure window — shedding
//! requests at the door while the source keeps failing; [`ServiceReport`]
//! snapshots a stack's installed layers, each rendered exactly once
//! through the shared [`Ledger`] trait for the CLI text summary, the
//! flat JSON object, and the wire `Stats` reply alike.

#![warn(missing_docs)]

pub mod api;
pub mod batched;
pub mod breaker;
pub mod bridge;
pub mod builder;
pub mod deadline;
pub mod fallback;
pub mod fault;
pub mod instrument;
pub mod ledger;
pub mod memoize;
pub mod persist;
pub mod query;
pub mod report;
pub mod retry;
pub mod wire;

pub use batched::{BatchHandle, BatchStats, Batched};
pub use breaker::{AdmissionControl, BreakerConfig, BreakerStats, CircuitState};
pub use bridge::{AsProvider, ProviderService, Unavailable};
pub use builder::{ServiceBuilder, ServiceStack, StackHandles};
pub use deadline::{Deadline, DeadlineHandle, DeadlineStats};
pub use fallback::{Fallback, FallbackHandle, FallbackStats};
pub use fault::{FaultConfig, FaultHandle, FaultInject, FaultStats};
pub use instrument::{Instrumented, MetricsHandle, ServiceMetrics};
pub use ledger::{flat_json_fields, Ledger, LedgerField, LedgerValue};
pub use memoize::{CacheHandle, CacheStats, Memoize};
pub use persist::{Persist, PersistHandle, PersistStats};
pub use query::{LatencyQuery, LatencyReply, Retryability, ServiceError};
pub use report::ServiceReport;
pub use retry::{Retry, RetryHandle, RetryPolicy, RetryStats};

/// A source of stage latencies, queryable one at a time or in batches.
///
/// This is the pluggable-backend seam of the whole system: the plan
/// search, the CLI, and the bench harness only ever talk
/// to *some* `LatencyService`, and middleware layers ([`Memoize`],
/// [`Batched`], [`Instrumented`], [`Fallback`]) are themselves services
/// wrapping an inner one.
///
/// Implementations must tolerate concurrent `query` calls (`Sync`
/// supertrait): the [`Batched`] layer fans one batch out across worker
/// threads.
pub trait LatencyService: Sync {
    /// Short static label of this source ("simulator", "analytic",
    /// "predictor", ...), used for per-query attribution in
    /// [`LatencyReply::source`] and in error messages.
    fn name(&self) -> &'static str;

    /// Resolve one query to a latency, or explain why this source
    /// cannot serve it (so a [`Fallback`] layer can try the next one).
    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError>;

    /// Resolve a whole batch, one reply per query at the query's index.
    ///
    /// The default is a serial in-order map; the [`Batched`] layer
    /// overrides it with a deterministic parallel fan-out. Overrides
    /// must preserve the index correspondence and per-query values.
    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        qs.iter().map(|q| self.query(q)).collect()
    }
}

impl<S: LatencyService + ?Sized> LatencyService for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        (**self).query(q)
    }
    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        (**self).query_batch(qs)
    }
}

impl<S: LatencyService + ?Sized> LatencyService for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        (**self).query(q)
    }
    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        (**self).query_batch(qs)
    }
}

impl<S: LatencyService + Send + ?Sized> LatencyService for std::sync::Arc<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        (**self).query(q)
    }
    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        (**self).query_batch(qs)
    }
}
