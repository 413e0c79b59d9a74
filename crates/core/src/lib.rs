//! # predtop-core
//!
//! The paper's primary contribution: the gray-box latency-prediction
//! framework (§III, §VI) that combines
//!
//! * **white-box** modeling of inter-stage (pipeline) parallelism —
//!   eqn. 4, re-exported here as [`pipeline_latency`] — with
//! * **black-box** DAG-Transformer prediction of intra-stage (model /
//!   tensor parallel) optimal latencies,
//!
//! and its flagship use case: cutting the optimization cost of
//! Alpa-style parallelization-plan search (§VIII-B).
//!
//! The three phases of §VI map onto [`graybox::PredTop`]:
//!
//! 1. **Profiling phase** — sample a size-diverse subset of stage
//!    candidates and profile them (here: on the simulator) for every
//!    (sub-mesh, configuration) scenario;
//! 2. **Training phase** — fit one predictor per scenario on the
//!    profiled `(graph, latency)` pairs;
//! 3. **Prediction phase** — serve `stage_latency` queries for *all*
//!    candidates from the trained predictors, so the inter-stage DP
//!    never profiles again.
//!
//! [`search`] wraps the end-to-end comparison: full profiling vs partial
//! profiling vs PredTOP with each predictor architecture.

#![warn(missing_docs)]

pub mod analytic;
pub mod artifacts;
pub mod graybox;
pub mod predictor;
pub mod search;
pub mod serve;

pub use analytic::AnalyticBaseline;
pub use artifacts::{
    decode_outcome, decode_plan, decode_predictor, encode_outcome, encode_plan, encode_predictor,
    ArtifactError, SearchSnapshot,
};
pub use graybox::{decode_graybox, encode_graybox, graybox_snapshot_key, GrayBoxConfig, PredTop};
pub use predictor::ArchConfig;
pub use predtop_parallel::plan::pipeline_latency;
pub use search::{
    run_search, search_legality, search_plan, search_plan_checked,
    search_plan_checked_with_threads, search_plan_service, search_plan_stored,
    search_plan_with_threads, search_snapshot_key, SearchOutcome, SearchRequest, ServiceReport,
    StoredSearch,
};
pub use serve::{load_model_service, EngineConfig, ServeEngine};
