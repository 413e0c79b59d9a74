//! # predtop-parallel
//!
//! Parallelization plans and plan optimizers — the reproduction of the
//! Alpa machinery PredTOP plugs into.
//!
//! * [`config`] — intra-stage parallelism configurations (Table III):
//!   how many data-parallel replicas × how many model/tensor-parallel
//!   ways a stage runs with on its device mesh.
//! * [`sharding`] — per-operator sharding strategies (replicate, batch-,
//!   row-, column-sharded) and the collectives each transition costs.
//! * [`intra`] — the intra-stage optimizer: picks one sharding strategy
//!   per operator to minimize the stage's execution time on a mesh,
//!   generic over an [`intra::OpCost`] model (implemented by the
//!   simulator; this keeps `predtop-parallel` free of hardware specifics
//!   and lets tests drive the optimizer with synthetic costs).
//! * [`interstage`] — Alpa's inter-operator pass as two pure phases:
//!   enumerate the (layer range, sub-mesh, configuration) candidates,
//!   then run the dynamic program minimizing the Eqn. 4 pipeline latency
//!   over their evaluated latencies. Evaluation itself happens elsewhere
//!   (`predtop-core`'s search, through a `predtop-service` stack).
//! * [`intern`] — the [`StructuralInterner`]: hash-conses
//!   (stage, sub-mesh, configuration) sub-problems into
//!   [`StructuralKey`]s so memoization can key on *structure* (two
//!   isomorphic interior layer windows share one key) instead of raw
//!   query identity; and [`StageGraphs`], one shared stage graph per
//!   [`StageStructure`].
//! * [`plan`] — end-to-end pipeline plans and the Eqn. 4 white-box
//!   formula `T = Σ tᵢ + (B−1)·max tⱼ`.
//!
//! The [`StageLatencyProvider`] trait is the plain per-stage latency
//! interface: the simulator, the predictors and the analytic baseline
//! implement it, and [`PipelinePlan::latency`] composes it through
//! Eqn. 4. The plan search itself queries the `predtop-service`
//! `LatencyService` stack, which lifts any provider with its
//! `ProviderService` adapter.

#![warn(missing_docs)]

pub mod config;
pub mod intern;
pub mod interstage;
pub mod intra;
pub mod plan;
pub mod schedule;
pub mod sharding;

pub use config::{table3_configs, MeshShape, ParallelConfig};
pub use intern::{
    InternStats, StageGraphs, StageStructure, StructuralDescriptor, StructuralInterner,
    StructuralKey,
};
pub use interstage::{enumerate_candidates, solve_pipeline, EvaluatedCandidate, InterStageOptions};
pub use intra::{IntraPlan, OpCost};
pub use plan::{pipeline_latency, PipelinePlan, PlanError, PlanRule, PlanViolation, PlannedStage};
pub use schedule::{one_f_one_b, Schedule, Slot};

use predtop_models::StageSpec;

/// Source of per-stage optimal latencies — the gray-box seam.
///
/// Implementations: the ground-truth profiler (simulator), a trained
/// black-box predictor, or any `predtop-service` stack projected back
/// down through its `AsProvider` bridge. A provider lifted into a
/// service stack is queried from several worker threads at once, hence
/// the `Sync` supertrait: a provider must tolerate concurrent
/// `stage_latency` calls (all in-tree providers already memoize behind
/// locks or are pure).
pub trait StageLatencyProvider: Sync {
    /// Optimal execution latency (seconds, forward+backward for one
    /// micro-batch) of `stage` on a `mesh`-shaped sub-mesh under
    /// `config`.
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64;
}

impl<P: StageLatencyProvider + ?Sized> StageLatencyProvider for &P {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        (**self).stage_latency(stage, mesh, config)
    }
}
