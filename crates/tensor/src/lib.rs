//! # predtop-tensor
//!
//! A minimal, dependency-free deep-learning substrate: dense f32
//! matrices, tape-based reverse-mode automatic differentiation, parameter
//! stores, Adam with cosine learning-rate decay, and the MAE/MSE losses —
//! everything `predtop-gnn` needs to train the paper's GCN / GAT /
//! DAG-Transformer predictors from scratch on a CPU.
//!
//! Scope is deliberately 2-D: graph neural networks over node-feature
//! matrices only ever need `N×d` matrices, `N×N` attention/adjacency
//! matrices, and row-wise reductions. Keeping rank fixed lets the
//! matmul family share one register-tiled, panel-packed GEMM driver
//! (see [`kernel`]): `B` panels are packed once into tile-major scratch
//! and reused across the whole output row sweep, full output tiles run
//! in a runtime-dispatched SIMD micro-kernel (AVX-512 / AVX2 / portable
//! scalar — see [`kernel::active_isa`]), parallel runs fan a
//! deterministic 2-D tile grid out over `predtop-runtime` workers, and
//! results stay *bit-identical* to the naive references at every ISA
//! tier and thread count (see [`matrix`]). Destinations come from
//! pool-recycled buffers (see [`pool`]) — so the whole Table V/VI grid
//! trains fast without a single reproducibility compromise.
//!
//! Numerical-gradient property tests in [`tape`] check every operator's
//! backward rule against central finite differences.

#![warn(missing_docs)]

pub mod attention;
pub mod init;
pub mod kernel;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod pool;
pub mod schedule;
pub mod tape;

pub use attention::AllowedColumns;
pub use init::xavier_uniform;
pub use kernel::{
    active_isa, available_isas, kernel_stats, reset_kernel_stats, KernelIsa, KernelStats,
};
pub use loss::Loss;
pub use matrix::Matrix;
pub use optim::{Adam, GradSet, GradSink, ParamStore};
pub use pool::{BufferPool, PoolStats};
pub use schedule::cosine_decay;
pub use tape::{Tape, Var};
