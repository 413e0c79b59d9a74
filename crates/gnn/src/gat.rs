//! Graph Attention Network baseline (Veličković et al.), §VII-D:
//! "hidden dimension of 32 and 6 layers".
//!
//! Dense single-head formulation per layer:
//!
//! ```text
//!   Z    = H W                              (node projections)
//!   e_ij = LeakyReLU( (Z aₗ)ᵢ + (Z aᵣ)ⱼ )   (pairwise logits)
//!   α    = softmax_j( e_ij + adj_mask )     (attention over neighbours)
//!   H'   = ReLU( α Z + b )
//! ```
//!
//! The `N × N` logit matrix is built as `left · 1ᵀ + 1 · rightᵀ`, two
//! rank-one matmuls — everything stays on the autodiff tape.

use predtop_ir::features::FEATURE_DIM;
use predtop_tensor::{xavier_uniform, Matrix, ParamStore, Tape, Var};
use rand::{rngs::StdRng, SeedableRng};

use crate::dataset::GraphSample;
use crate::model::{GnnModel, Head, ModelKind};

struct GatLayer {
    w: usize,
    a_left: usize,
    a_right: usize,
    bias: usize,
}

/// GAT latency predictor.
pub struct Gat {
    store: ParamStore,
    layers: Vec<GatLayer>,
    head: Head,
    leaky_slope: f32,
}

impl Gat {
    /// Paper configuration: 6 layers × 32.
    pub fn paper(seed: u64) -> Gat {
        Gat::new(6, 32, seed)
    }

    /// Custom configuration.
    pub fn new(num_layers: usize, hidden: usize, seed: u64) -> Gat {
        assert!(num_layers >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mut layers = Vec::with_capacity(num_layers);
        let mut in_dim = FEATURE_DIM;
        for _ in 0..num_layers {
            layers.push(GatLayer {
                w: store.add(xavier_uniform(in_dim, hidden, &mut rng)),
                a_left: store.add(xavier_uniform(hidden, 1, &mut rng)),
                a_right: store.add(xavier_uniform(hidden, 1, &mut rng)),
                bias: store.add(Matrix::zeros(1, hidden)),
            });
            in_dim = hidden;
        }
        let head = Head::new(&mut store, hidden, &mut rng);
        Gat {
            store,
            layers,
            head,
            leaky_slope: 0.2,
        }
    }
}

impl GnnModel for Gat {
    fn kind(&self) -> ModelKind {
        ModelKind::Gat
    }

    fn forward(&self, tape: &mut Tape, sample: &GraphSample) -> Var {
        let n = sample.num_nodes();
        let mask = tape.constant_ref(sample.adj_mask());
        let ones_row = tape.constant_full(1, n, 1.0);
        let ones_col = tape.constant_full(n, 1, 1.0);
        let mut h = tape.constant_ref(&sample.features);
        for layer in &self.layers {
            let w = tape.param(&self.store, layer.w);
            let z = tape.matmul(h, w); // N × d
            let al = tape.param(&self.store, layer.a_left);
            let ar = tape.param(&self.store, layer.a_right);
            let left = tape.matmul(z, al); // N × 1
            let right = tape.matmul(z, ar); // N × 1
            let e_left = tape.matmul(left, ones_row); // N × N (rows constant)
            let e_right = tape.matmul_nt(ones_col, right); // N × N (cols constant)
            let e = tape.add(e_left, e_right);
            let e = tape.leaky_relu(e, self.leaky_slope);
            let alpha = tape.masked_softmax_rows(e, mask);
            let agg = tape.matmul(alpha, z);
            let bias = tape.param(&self.store, layer.bias);
            let agg = tape.add_row(agg, bias);
            h = tape.relu(agg);
        }
        let pooled = tape.sum_rows(h);
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
    use predtop_ir::{DType, GraphBuilder, OpKind};

    fn sample() -> GraphSample {
        let mut b = GraphBuilder::new();
        let x = b.input([4, 4], DType::F32);
        let e = b.unary(OpKind::Exp, x);
        let t = b.unary(OpKind::Tanh, x);
        let s = b.binary(OpKind::Add, e, t);
        let g = b.finish(&[s]).unwrap();
        GraphSample::new(&g, 0.05, 16)
    }

    #[test]
    fn forward_scalar_and_finite() {
        let m = Gat::new(2, 8, 1);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &sample());
        let v = tape.value(out);
        assert_eq!((v.rows(), v.cols()), (1, 1));
        assert!(v.get(0, 0).is_finite());
    }

    #[test]
    fn paper_config_counts() {
        let m = Gat::paper(0);
        assert_eq!(m.layers.len(), 6);
        assert_eq!(m.store.len(), 6 * 4 + 4);
        assert_eq!(m.kind().label(), "GAT");
    }

    #[test]
    fn attention_is_restricted_to_neighbours() {
        // two disconnected components must not influence each other:
        // prediction over component A unchanged when B's features change
        // would need feature surgery; instead verify via the mask shape —
        // masked softmax rows renormalize within the adjacency support
        let s = sample();
        let m = Gat::new(1, 8, 3);
        let mut tape = Tape::new();
        let _ = m.forward(&mut tape, &s);
        // the sample's mask forbids (input -> add) direct attention
        assert_eq!(s.adj_mask().get(0, 3), f32::NEG_INFINITY);
    }

    #[test]
    fn gradients_flow() {
        let mut m = Gat::new(2, 8, 4);
        let s = sample();
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &s);
        tape.backward(out, Matrix::full(1, 1, 1.0), m.store_mut());
        let nonzero = (0..m.store().len())
            .filter(|&p| m.store().grad(p).norm() > 0.0)
            .count();
        assert!(nonzero >= m.store().len() / 2, "only {nonzero} grads");
    }
}
