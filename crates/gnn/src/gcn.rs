//! Graph Convolutional Network baseline (Kipf & Welling), §VII-D:
//! "6 GCN layers of size 256 each" over the Table I node features.
//!
//! Layer rule: `H⁽ˡ⁺¹⁾ = ReLU( Â H⁽ˡ⁾ W⁽ˡ⁾ + b⁽ˡ⁾ )` with
//! `Â = D^{-1/2}(A + Aᵀ + I)D^{-1/2}` precomputed per sample.

use predtop_ir::features::FEATURE_DIM;
use predtop_tensor::{ParamStore, Tape, Var};
use rand::{rngs::StdRng, SeedableRng};

use crate::dataset::GraphSample;
use crate::model::{Dense, GnnModel, Head, ModelKind};

/// GCN latency predictor.
pub struct Gcn {
    store: ParamStore,
    layers: Vec<Dense>,
    head: Head,
}

impl Gcn {
    /// Paper configuration: 6 layers × 256.
    pub fn paper(seed: u64) -> Gcn {
        Gcn::new(6, 256, seed)
    }

    /// Custom configuration (scaled-down default protocols, ablations).
    pub fn new(num_layers: usize, hidden: usize, seed: u64) -> Gcn {
        assert!(num_layers >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mut layers = Vec::with_capacity(num_layers);
        let mut in_dim = FEATURE_DIM;
        for _ in 0..num_layers {
            layers.push(Dense::new(&mut store, in_dim, hidden, &mut rng));
            in_dim = hidden;
        }
        let head = Head::new(&mut store, hidden, &mut rng);
        Gcn {
            store,
            layers,
            head,
        }
    }
}

impl GnnModel for Gcn {
    fn kind(&self) -> ModelKind {
        ModelKind::Gcn
    }

    fn forward(&self, tape: &mut Tape, sample: &GraphSample) -> Var {
        let adj = tape.constant_ref(sample.adj_norm());
        let mut h = tape.constant_ref(&sample.features);
        for layer in &self.layers {
            let agg = tape.matmul(adj, h);
            let lin = layer.forward(tape, &self.store, agg);
            h = tape.relu(lin);
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
        let t = b.unary(OpKind::Tanh, e);
        let g = b.finish(&[t]).unwrap();
        GraphSample::new(&g, 0.02, 16)
    }

    #[test]
    fn forward_scalar_and_finite() {
        let m = Gcn::new(2, 16, 1);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &sample());
        let v = tape.value(out);
        assert_eq!((v.rows(), v.cols()), (1, 1));
        assert!(v.get(0, 0).is_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let s = sample();
        let run = |seed| {
            let m = Gcn::new(2, 16, seed);
            let mut tape = Tape::new();
            let out = m.forward(&mut tape, &s);
            tape.value(out).get(0, 0)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn paper_config_dimensions() {
        let m = Gcn::paper(0);
        assert_eq!(m.layers.len(), 6);
        // first layer FEATURE_DIM×256 (+bias), 5 × 256×256, head
        assert_eq!(m.store.len(), 6 * 2 + 4);
        assert_eq!(m.kind().label(), "GCN");
    }

    #[test]
    fn gradients_flow_to_all_params() {
        use predtop_tensor::Matrix;
        let mut m = Gcn::new(2, 8, 2);
        let s = sample();
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &s);
        tape.backward(out, Matrix::full(1, 1, 1.0), m.store_mut());
        let nonzero = (0..m.store().len())
            .filter(|&p| m.store().grad(p).norm() > 0.0)
            .count();
        // all weights should receive gradient (biases may zero out under
        // dead ReLU, weights almost surely not)
        assert!(nonzero >= m.store().len() / 2, "only {nonzero} grads");
    }
}
