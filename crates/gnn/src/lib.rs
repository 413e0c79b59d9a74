//! # predtop-gnn
//!
//! The black-box stage-latency predictors of §IV: the DAG Transformer
//! (the paper's model) and the GCN / GAT baselines it is compared
//! against, all built on `predtop-tensor`'s autodiff.
//!
//! * [`dataset`] — turns `(stage graph, profiled latency)` pairs into
//!   training samples: Table I feature matrices, normalized adjacency
//!   (GCN), neighbourhood masks (GAT), DAGRA reachability masks and
//!   DAGPE depth encodings (DAG Transformer), plus log-standardized
//!   targets.
//! * [`model`] — the common [`model::GnnModel`] interface, the shared
//!   regression head (§IV-B5: pooled embedding → ReLU linear layers →
//!   scalar), and [`model::TrainedPredictor`] bundling a model with its
//!   target scaler.
//! * [`gcn`] / [`gat`] / [`dag_transformer`] — the three architectures
//!   with the paper's hyper-parameters (GCN 6×256, GAT 6×32, DAG
//!   Transformer 4 layers × dim 64 with 4 heads).
//! * [`mod@train`] — Adam + cosine decay + early stopping (§IV-B6/B8), MAE
//!   loss (§IV-B7), data-parallel mini-batches with a fixed-order
//!   gradient-reduction tree so trained weights are bit-identical at any
//!   `PREDTOP_THREADS`.
//! * [`metrics`] — the MRE of eqn. 5.

#![warn(missing_docs)]

pub mod dag_transformer;
pub mod dataset;
pub mod gat;
pub mod gcn;
pub mod metrics;
pub mod model;
pub mod train;

pub use dag_transformer::DagTransformer;
pub use dataset::{Dataset, GraphSample, Split, TargetScaler};
pub use gat::Gat;
pub use gcn::Gcn;
pub use metrics::mean_relative_error;
pub use model::{with_serve_tape, GnnModel, ModelKind, TrainedPredictor};
pub use train::{train, train_with_threads, TrainConfig, TrainReport};
