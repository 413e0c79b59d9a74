//! # PredTOP
//!
//! A from-scratch Rust reproduction of *PredTOP: Latency Predictor
//! Utilizing DAG Transformers for Distributed Deep Learning Training
//! with Operator Parallelism* (Acharya & Shu, IPDPS 2025).
//!
//! PredTOP predicts the iteration latency of distributed deep-learning
//! training under hybrid parallelism by splitting the problem at the
//! stage boundary:
//!
//! * **inter-stage** (pipeline) parallelism is modeled *white-box* with
//!   the closed-form `T = Σ tᵢ + (B−1)·max tⱼ` (eqn. 4);
//! * **intra-stage** (model/tensor) parallelism is modeled *black-box*
//!   by a Transformer over the stage's operator DAG, with attention
//!   restricted to reachable node pairs (DAGRA) and node depth as the
//!   positional encoding (DAGPE).
//!
//! This facade re-exports the whole workspace. Quick taste:
//!
//! ```
//! use predtop::prelude::*;
//!
//! // a small GPT-style model and the 2-GPU Platform 1
//! let mut model = ModelSpec::gpt3_1p3b(2);
//! model.seq_len = 64; model.hidden = 64; model.num_heads = 4;
//! model.vocab = 256; model.num_layers = 4;
//! let profiler = SimProfiler::new(Platform::platform1(), 42);
//!
//! // ground-truth latency of one stage under 2-way model parallelism
//! let stage = StageSpec::new(model, 0, 2);
//! let t = profiler.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(1, 2));
//! assert!(t > 0.0);
//!
//! // white-box pipeline composition (eqn. 4)
//! let total = pipeline_latency(&[t, t * 1.5], 8);
//! assert!(total > t * 1.5 * 8.0);
//! ```
//!
//! Crate map (see `DESIGN.md` for the full inventory):
//!
//! | crate | contents |
//! |---|---|
//! | [`store`] | content-addressed object store: latency replies, plan/model snapshots, gc |
//! | [`ir`] | tensor-operator DAG, pruning, Table I features, DAGRA/DAGPE |
//! | [`models`] | GPT-3 / MoE builders, stage slicing & sampling |
//! | [`cluster`] | GPU/interconnect/mesh specs, collective cost models |
//! | [`parallel`] | sharding strategies, intra-stage optimizer, inter-stage DP |
//! | [`runtime`] | deterministic worker pool sized by `PREDTOP_THREADS` |
//! | [`sim`] | roofline simulator, profiler, cost ledger, 1F1B event sim |
//! | [`tensor`] | matrices, autodiff tape, Adam, schedules, losses |
//! | [`gnn`] | GCN / GAT / DAG-Transformer predictors, training loop |
//! | [`service`] | `LatencyService` trait + memoize/batch/instrument/fallback/fault-tolerance middleware |
//! | [`analyze`] | fixpoint dataflow engine, graph/plan lints, machine-applicable fixes |
//! | [`core`] | the gray-box workflow and plan-search use case |

#![warn(missing_docs)]

pub use predtop_analyze as analyze;
pub use predtop_cluster as cluster;
pub use predtop_core as core;
pub use predtop_gnn as gnn;
pub use predtop_ir as ir;
pub use predtop_models as models;
pub use predtop_parallel as parallel;
pub use predtop_runtime as runtime;
pub use predtop_service as service;
pub use predtop_sim as sim;
pub use predtop_store as store;
pub use predtop_tensor as tensor;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use predtop_analyze::{has_errors, render_text, StaticLegality};
    pub use predtop_cluster::{GpuSpec, Link, Mesh, Platform};
    pub use predtop_core::{
        encode_plan, load_model_service, pipeline_latency, run_search, search_legality,
        search_plan_service, AnalyticBaseline, ArchConfig, EngineConfig, GrayBoxConfig, PredTop,
        SearchOutcome, SearchRequest, ServeEngine, ServiceReport,
    };
    pub use predtop_gnn::{
        mean_relative_error, train, Dataset, GraphSample, ModelKind, TrainConfig, TrainedPredictor,
    };
    pub use predtop_ir::{DType, Graph, GraphBuilder, OpKind, Shape};
    pub use predtop_models::{enumerate_stages, sample_stages, ModelSpec, StageSpec};
    pub use predtop_parallel::{
        table3_configs, InterStageOptions, InternStats, MeshShape, ParallelConfig, PipelinePlan,
        StageLatencyProvider, StructuralInterner, StructuralKey,
    };
    pub use predtop_runtime::configured_threads;
    pub use predtop_service::{
        api, flat_json_fields, wire, AdmissionControl, BatchStats, BreakerConfig, CacheStats,
        FaultConfig, LatencyQuery, LatencyReply, LatencyService, Ledger, LedgerField, LedgerValue,
        PersistStats, RetryPolicy, Retryability, ServiceBuilder, ServiceError, ServiceStack,
        Unavailable,
    };
    pub use predtop_sim::{DeviceCostModel, SimProfiler};
    pub use predtop_store::{ObjectKind, Store, StoreError};
}
