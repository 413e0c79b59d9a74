//! The request/response vocabulary every [`crate::LatencyService`]
//! speaks, including the structured error model the fault-tolerance
//! layers dispatch on.

use predtop_models::StageSpec;
use predtop_parallel::{MeshShape, ParallelConfig};

/// One stage-latency question: how long does `stage` take on a
/// `mesh`-shaped sub-mesh under `config`?
///
/// This is exactly the (stage, sub-mesh, configuration) candidate key
/// the inter-stage DP enumerates, promoted to a first-class value so
/// middleware layers can hash, batch, and attribute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyQuery {
    /// Layer range being asked about.
    pub stage: StageSpec,
    /// Sub-mesh shape the stage would run on.
    pub mesh: MeshShape,
    /// Intra-stage parallelism configuration.
    pub config: ParallelConfig,
}

impl LatencyQuery {
    /// Build a query from the candidate triple.
    pub fn new(stage: StageSpec, mesh: MeshShape, config: ParallelConfig) -> LatencyQuery {
        LatencyQuery {
            stage,
            mesh,
            config,
        }
    }
}

/// A resolved latency, tagged with the source that actually produced it.
///
/// The tag is what makes [`crate::Fallback`] auditable: whichever base
/// service answered stamps its [`crate::LatencyService::name`] here, and
/// the tag survives memoization and batching unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyReply {
    /// Predicted/measured latency in seconds (forward+backward of one
    /// micro-batch, matching `StageLatencyProvider::stage_latency`).
    pub seconds: f64,
    /// Name of the base service that served this query.
    pub source: &'static str,
}

/// Whether retrying the *same* query against the *same* service can
/// possibly change the answer.
///
/// Every [`ServiceError`] variant has a fixed classification (see
/// [`ServiceError::retryability`]); the [`crate::Retry`] layer retries
/// only `Transient` errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Retryability {
    /// The failure is momentary — an injected fault. The same query may
    /// succeed on the next attempt.
    Transient,
    /// The failure is structural — a missing model file, an unfitted
    /// scenario, an exhausted deadline budget. Retrying the same query
    /// re-fails deterministically; the only escapes are a
    /// [`crate::Fallback`] chain or a different query.
    Permanent,
}

/// Why a service could not answer a query.
///
/// This is the structured error vocabulary every fault-tolerance layer
/// dispatches on: [`crate::Retry`] consults
/// [`retryability`](ServiceError::retryability), [`crate::Fallback`]
/// treats any variant as "try the next source", and the CLI renders each
/// variant distinctly. The variants are ordered roughly from "the source
/// is broken" to "a layer manufactured this failure"; the last,
/// [`ServiceError::NoLegalPlan`], is raised by the plan search over the
/// stack, never by a layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The source as a whole is unusable (e.g. a saved model file that
    /// failed to load). Permanent.
    Unavailable {
        /// Name of the failed source.
        source: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The source exists but was never fitted for this (sub-mesh,
    /// configuration) scenario. Permanent.
    ScenarioUnsupported {
        /// Name of the source.
        source: &'static str,
        /// The unsupported sub-mesh.
        mesh: MeshShape,
        /// The unsupported configuration.
        config: ParallelConfig,
    },
    /// A [`crate::FaultInject`] layer manufactured this failure (chaos
    /// testing / resilience drills). Transient by construction: the
    /// injection decision is a hash of (seed, query, attempt), so the
    /// next attempt rolls a fresh outcome.
    InjectedFault {
        /// Name of the source the fault was injected in front of.
        source: &'static str,
        /// Zero-based attempt number the injection hash saw.
        attempt: u64,
    },
    /// A [`crate::Deadline`] layer observed the query (or its enclosing
    /// batch) overrunning its budget. Permanent: the budget is spent, so
    /// an immediate retry of the same query would be born over-budget.
    DeadlineExceeded {
        /// Name of the source that was being consulted.
        source: &'static str,
        /// The configured budget, in seconds.
        budget_seconds: f64,
        /// Time actually consumed when the overrun was detected.
        elapsed_seconds: f64,
    },
    /// A checked plan search's static-legality filter left no covering
    /// partition: every plan needs a candidate it rejected. No source
    /// failed; the problem (model, cluster, device memory) has no legal
    /// plan. Permanent.
    NoLegalPlan {
        /// Candidates the search enumerated.
        candidates: usize,
        /// How many of them the filter rejected.
        rejected: usize,
        /// How many of those rejections were the `P1401` memory rule.
        rejected_memory: usize,
    },
}

impl ServiceError {
    /// Name of the source that raised (or was shielded by) the error.
    pub fn source(&self) -> &'static str {
        match self {
            ServiceError::Unavailable { source, .. } => source,
            ServiceError::ScenarioUnsupported { source, .. } => source,
            ServiceError::InjectedFault { source, .. } => source,
            ServiceError::DeadlineExceeded { source, .. } => source,
            ServiceError::NoLegalPlan { .. } => "static-legality",
        }
    }

    /// The error's fixed retry classification — the contract the
    /// [`crate::Retry`] layer enforces.
    pub fn retryability(&self) -> Retryability {
        match self {
            ServiceError::Unavailable { .. } => Retryability::Permanent,
            ServiceError::ScenarioUnsupported { .. } => Retryability::Permanent,
            ServiceError::InjectedFault { .. } => Retryability::Transient,
            ServiceError::DeadlineExceeded { .. } => Retryability::Permanent,
            ServiceError::NoLegalPlan { .. } => Retryability::Permanent,
        }
    }

    /// True when a retry of the same query may succeed.
    pub fn is_transient(&self) -> bool {
        self.retryability() == Retryability::Transient
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Unavailable { source, reason } => {
                write!(f, "latency source `{source}` unavailable: {reason}")
            }
            ServiceError::ScenarioUnsupported {
                source,
                mesh,
                config,
            } => write!(
                f,
                "latency source `{source}` has no predictor for scenario ({mesh:?}, {config:?})"
            ),
            ServiceError::InjectedFault { source, attempt } => write!(
                f,
                "injected fault in front of `{source}` (attempt {attempt})"
            ),
            ServiceError::DeadlineExceeded {
                source,
                budget_seconds,
                elapsed_seconds,
            } => write!(
                f,
                "deadline exceeded querying `{source}`: {elapsed_seconds:.6}s elapsed \
                 against a {budget_seconds:.6}s budget"
            ),
            ServiceError::NoLegalPlan {
                candidates,
                rejected,
                rejected_memory,
            } => write!(
                f,
                "no legal plan: static legality rejected {rejected} of {candidates} \
                 candidates ({rejected_memory} by the P1401 memory bound) and no \
                 covering partition is left"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_classifies_and_attributes() {
        let mesh = MeshShape::new(1, 1);
        let config = ParallelConfig::SERIAL;
        let cases: Vec<(ServiceError, Retryability)> = vec![
            (
                ServiceError::Unavailable {
                    source: "predictor",
                    reason: "gone".into(),
                },
                Retryability::Permanent,
            ),
            (
                ServiceError::ScenarioUnsupported {
                    source: "predictor",
                    mesh,
                    config,
                },
                Retryability::Permanent,
            ),
            (
                ServiceError::InjectedFault {
                    source: "simulator",
                    attempt: 2,
                },
                Retryability::Transient,
            ),
            (
                ServiceError::DeadlineExceeded {
                    source: "simulator",
                    budget_seconds: 0.0,
                    elapsed_seconds: 0.1,
                },
                Retryability::Permanent,
            ),
            (
                ServiceError::NoLegalPlan {
                    candidates: 10,
                    rejected: 10,
                    rejected_memory: 4,
                },
                Retryability::Permanent,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.retryability(), want, "{err}");
            assert_eq!(err.is_transient(), want == Retryability::Transient);
            assert!(!err.source().is_empty());
            assert!(!err.to_string().is_empty());
        }
    }
}
