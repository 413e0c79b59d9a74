//! The DAG Transformer (§IV-A/B, after Luo et al.\ (NeurIPS 2023)) — PredTOP's
//! stage-latency predictor.
//!
//! Architecture (Fig. 4, §IV-B6: 4 layers, embedding 64):
//!
//! 1. input projection of the Table I features to the embedding width,
//!    plus **DAGPE** — the sinusoidal encoding of each node's DAG depth;
//! 2. four transformer layers whose multi-head attention is masked by
//!    **DAGRA** (eqn. 1): node `u` attends to node `v` only if a directed
//!    path connects them (`k = ∞`, the paper's setting). Each head is one
//!    fused [`Tape::masked_attention`] that visits only the reachable
//!    entries of each row, bit-identical to adding a 0/−inf mask to the
//!    logits;
//! 3. residual connections around attention and the position-wise FFN;
//! 4. global add pool (eqn. 2) and the shared regression head.

use predtop_ir::features::FEATURE_DIM;
use predtop_tensor::{ParamStore, Tape, Var};
use rand::{rngs::StdRng, SeedableRng};

use crate::dataset::GraphSample;
use crate::model::{Dense, GnnModel, Head, LayerNorm, ModelKind};

struct Layer {
    ln1: LayerNorm,
    wq: Dense,
    wk: Dense,
    wv: Dense,
    wo: Dense,
    ln2: LayerNorm,
    ffn1: Dense,
    ffn2: Dense,
}

/// Configuration of a [`DagTransformer`].
#[derive(Debug, Clone, Copy)]
pub struct TransformerConfig {
    /// Number of transformer layers (paper: 4).
    pub num_layers: usize,
    /// Embedding width (paper: 64).
    pub dim: usize,
    /// Attention heads (must divide `dim`).
    pub heads: usize,
    /// Apply the DAGRA reachability mask (ablation switch; `false` =
    /// full attention).
    pub use_dagra: bool,
    /// Add the DAGPE depth positional encoding (ablation switch).
    pub use_dagpe: bool,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        TransformerConfig {
            num_layers: 4,
            dim: 64,
            heads: 4,
            use_dagra: true,
            use_dagpe: true,
        }
    }
}

/// DAG Transformer latency predictor.
pub struct DagTransformer {
    store: ParamStore,
    input: Dense,
    layers: Vec<Layer>,
    ln_final: LayerNorm,
    head: Head,
    config: TransformerConfig,
}

impl DagTransformer {
    /// Paper configuration: 4 layers × dim 64, 4 heads, DAGRA + DAGPE.
    pub fn paper(seed: u64) -> DagTransformer {
        DagTransformer::new(TransformerConfig::default(), seed)
    }

    /// Custom configuration.
    ///
    /// # Panics
    /// Panics if `heads` does not divide `dim`.
    pub fn new(config: TransformerConfig, seed: u64) -> DagTransformer {
        assert!(config.num_layers >= 1);
        assert!(
            config.dim.is_multiple_of(config.heads),
            "heads {} must divide dim {}",
            config.heads,
            config.dim
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let input = Dense::new(&mut store, FEATURE_DIM, config.dim, &mut rng);
        let layers = (0..config.num_layers)
            .map(|_| Layer {
                ln1: LayerNorm::new(&mut store, config.dim),
                wq: Dense::new(&mut store, config.dim, config.dim, &mut rng),
                wk: Dense::new(&mut store, config.dim, config.dim, &mut rng),
                wv: Dense::new(&mut store, config.dim, config.dim, &mut rng),
                wo: Dense::new(&mut store, config.dim, config.dim, &mut rng),
                ln2: LayerNorm::new(&mut store, config.dim),
                ffn1: Dense::new(&mut store, config.dim, 2 * config.dim, &mut rng),
                ffn2: Dense::new(&mut store, 2 * config.dim, config.dim, &mut rng),
            })
            .collect();
        let ln_final = LayerNorm::new(&mut store, config.dim);
        let head = Head::new(&mut store, config.dim, &mut rng);
        DagTransformer {
            store,
            input,
            layers,
            ln_final,
            head,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TransformerConfig {
        self.config
    }
}

impl GnnModel for DagTransformer {
    fn kind(&self) -> ModelKind {
        ModelKind::DagTransformer
    }

    fn forward(&self, tape: &mut Tape, sample: &GraphSample) -> Var {
        let n = sample.num_nodes();
        let dim = self.config.dim;
        let heads = self.config.heads;
        let dh = dim / heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let allowed = self.config.use_dagra.then_some(&sample.dag_allowed);

        // input projection + DAGPE
        let feats = tape.constant_ref(&sample.features);
        let mut h = self.input.forward(tape, &self.store, feats);
        if self.config.use_dagpe {
            assert_eq!(
                sample.dagpe.cols(),
                dim,
                "sample built with pe_dim != transformer dim"
            );
            let pe = tape.constant_ref(&sample.dagpe);
            h = tape.add(h, pe);
        }

        for layer in &self.layers {
            // pre-norm multi-head DAGRA attention (eqn. 1)
            let normed = layer.ln1.forward(tape, &self.store, h);
            let q = layer.wq.forward(tape, &self.store, normed);
            let k = layer.wk.forward(tape, &self.store, normed);
            let v = layer.wv.forward(tape, &self.store, normed);
            let mut ctxs = Vec::with_capacity(heads);
            for hd in 0..heads {
                let (c0, c1) = (hd * dh, (hd + 1) * dh);
                let qh = tape.col_slice(q, c0, c1);
                let kh = tape.col_slice(k, c0, c1);
                let vh = tape.col_slice(v, c0, c1);
                ctxs.push(tape.masked_attention(qh, kh, vh, allowed, scale));
            }
            let ctx = tape.concat_cols(&ctxs);
            let attn_out = layer.wo.forward(tape, &self.store, ctx);
            let h1 = tape.add(h, attn_out); // residual

            // pre-norm position-wise FFN with residual
            let normed2 = layer.ln2.forward(tape, &self.store, h1);
            let f = layer.ffn1.forward(tape, &self.store, normed2);
            let f = tape.relu(f);
            let f = layer.ffn2.forward(tape, &self.store, f);
            h = tape.add(h1, f);
        }

        let h = self.ln_final.forward(tape, &self.store, h);
        let pooled = tape.sum_rows(h);
        // normalize the pool by a soft constant so predictions do not
        // blow up on large graphs before the head sees them: eqn. 2 is a
        // raw sum, but the regression target is log-scaled, so we scale
        // by 1/sqrt(N) to keep the head's input magnitude stable
        let pooled = tape.scale(pooled, 1.0 / (n as f32).sqrt());
        self.head.forward(tape, &self.store, pooled)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_ir::{DType, Graph, GraphBuilder, OpKind};
    use predtop_tensor::Matrix;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input([4, 4], DType::F32);
        let e = b.unary(OpKind::Exp, x);
        let t = b.unary(OpKind::Tanh, x);
        let s = b.binary(OpKind::Add, e, t);
        b.finish(&[s]).unwrap()
    }

    fn sample_pe(pe: usize) -> GraphSample {
        GraphSample::new(&graph(), 0.03, pe)
    }

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig {
            num_layers: 2,
            dim: 16,
            heads: 2,
            use_dagra: true,
            use_dagpe: true,
        }
    }

    #[test]
    fn forward_scalar_and_finite() {
        let m = DagTransformer::new(tiny_cfg(), 1);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &sample_pe(16));
        let v = tape.value(out);
        assert_eq!((v.rows(), v.cols()), (1, 1));
        assert!(v.get(0, 0).is_finite());
    }

    #[test]
    fn serve_path_allocates_nothing_at_steady_state() {
        use crate::model::with_serve_tape;
        let m = DagTransformer::new(tiny_cfg(), 5);
        let s = sample_pe(16);
        let run = || {
            with_serve_tape(|tape| {
                let out = m.forward(tape, &s);
                tape.value(out).get(0, 0)
            })
        };
        // warm the tape's buffer pool, then every later forward must be
        // served entirely from recycled buffers — a rising miss count
        // means an op regressed to per-call allocation
        let baseline = run();
        run();
        let warm = with_serve_tape(|tape| tape.pool_stats());
        assert!(warm.hits > 0, "serve tape pool never hit during warmup");
        for _ in 0..10 {
            assert_eq!(run(), baseline, "serve path is not deterministic");
        }
        let steady = with_serve_tape(|tape| tape.pool_stats());
        assert_eq!(
            steady.misses, warm.misses,
            "steady-state forwards allocated fresh buffers"
        );
        assert!(steady.hit_rate() > 0.5, "hit rate {}", steady.hit_rate());
    }

    #[test]
    fn paper_config_structure() {
        let m = DagTransformer::paper(0);
        assert_eq!(m.layers.len(), 4);
        assert_eq!(m.config.dim, 64);
        // input (2) + 4 layers × (6 dense × 2 + 2 LN × 2) + final LN (2)
        // + head (4)
        assert_eq!(m.store.len(), 2 + 4 * (12 + 4) + 2 + 4);
        assert_eq!(m.kind().label(), "Tran");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_heads_rejected() {
        let mut c = tiny_cfg();
        c.heads = 3;
        let _ = DagTransformer::new(c, 0);
    }

    #[test]
    fn dagra_mask_changes_prediction() {
        let s = sample_pe(16);
        let masked = DagTransformer::new(tiny_cfg(), 7);
        let mut unmasked_cfg = tiny_cfg();
        unmasked_cfg.use_dagra = false;
        let unmasked = DagTransformer::new(unmasked_cfg, 7);
        let run = |m: &DagTransformer| {
            let mut tape = Tape::new();
            let out = m.forward(&mut tape, &s);
            tape.value(out).get(0, 0)
        };
        // same weights (same seed) but different masks → different output
        assert_ne!(run(&masked), run(&unmasked));
    }

    #[test]
    fn dagpe_changes_prediction() {
        let s = sample_pe(16);
        let with_pe = DagTransformer::new(tiny_cfg(), 9);
        let mut cfg = tiny_cfg();
        cfg.use_dagpe = false;
        let without = DagTransformer::new(cfg, 9);
        let run = |m: &DagTransformer| {
            let mut tape = Tape::new();
            let out = m.forward(&mut tape, &s);
            tape.value(out).get(0, 0)
        };
        assert_ne!(run(&with_pe), run(&without));
    }

    #[test]
    #[should_panic(expected = "pe_dim != transformer dim")]
    fn pe_dim_mismatch_caught() {
        let m = DagTransformer::new(tiny_cfg(), 1);
        let mut tape = Tape::new();
        let _ = m.forward(&mut tape, &sample_pe(8));
    }

    #[test]
    fn gradients_flow_through_all_layers() {
        let mut m = DagTransformer::new(tiny_cfg(), 2);
        let s = sample_pe(16);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &s);
        tape.backward(out, Matrix::full(1, 1, 1.0), m.store_mut());
        let nonzero = (0..m.store().len())
            .filter(|&p| m.store().grad(p).norm() > 0.0)
            .count();
        assert!(nonzero >= m.store().len() * 2 / 3, "only {nonzero} grads");
    }
}
