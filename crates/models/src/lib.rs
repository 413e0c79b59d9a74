//! # predtop-models
//!
//! From-scratch IR builders for the paper's two benchmarks (Table IV):
//!
//! * **GPT-3 1.3B** — 24 decoder layers, hidden 2048, 32 heads, sequence
//!   1024, vocabulary 51,200;
//! * **GShard MoE 2.6B** — 32 layers (every second one a 16-expert MoE
//!   FFN with expert capacity 2048 MLP width), hidden 768, 16 heads,
//!   sequence 1024, vocabulary 32,000.
//!
//! A *stage* is a contiguous layer range sliced out of a model, with the
//! embedding attached to the first slice and the LM head to the last —
//! exactly the stage candidates Alpa's inter-operator pass enumerates.
//! [`stage::enumerate_stages`] lists every candidate and
//! [`stage::sample_stages`] draws the randomly-sized training subset of
//! §IV-B1.
//!
//! Graphs are emitted at the tensor-operator level (the jaxpr view): a
//! GPT layer decomposes into ~55 primitive ops (layer-norm chains, fused
//! QKV matmul, masked softmax, dropout RNG, residuals), an MoE layer adds
//! the gating/top-2/dispatch/combine routing primitives on top. This is
//! what makes the graphs "very large ... and infeasible to process with
//! simple GNNs" at full-model scale, the motivation for DAG Transformers.

#![warn(missing_docs)]

pub mod layers;
pub mod spec;
pub mod stage;

pub use spec::{ModelKind, ModelSpec, MoeSpec};
pub use stage::{enumerate_stages, sample_stages, StagePart, StageSpec};
