//! Training data preparation (§IV-B1–B4).
//!
//! Each profiled stage becomes one [`GraphSample`]: the *pruned* operator
//! graph's Table I feature matrix plus the derived structural matrices
//! the architectures read. All matrices are computed once and reused
//! across epochs — with 500-epoch training this preprocessing is free by
//! comparison. The two dense `N × N` matrices only the GCN and GAT
//! baselines read are built on first use, once per sample and its
//! clones, so the DAG Transformer never pays for them.

use std::sync::{Arc, OnceLock};

use predtop_ir::features::{graph_features, FEATURE_DIM};
use predtop_ir::prune::prune;
use predtop_ir::reach::{depths, Reachability};
use predtop_ir::{Graph, NodeId};
use predtop_tensor::{AllowedColumns, Matrix};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// One `(stage graph, latency)` training sample with every precomputed
/// structural matrix.
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// `N × FEATURE_DIM` Table I node features.
    pub features: Matrix,
    /// The pruned graph's edges and the dense matrices built from them
    /// on first use ([`Self::adj_norm`], [`Self::adj_mask`]); clones
    /// share one.
    adjacency: Arc<Adjacency>,
    /// DAGRA reachability (eqn. 1's `M`): row `u` lists the nodes `u`
    /// may attend to, ascending. Built once; clones share it. The DAG
    /// Transformer's attention visits only these entries.
    pub dag_allowed: AllowedColumns,
    /// `N × pe_dim` sinusoidal encoding of each node's DAG depth (DAGPE).
    pub dagpe: Matrix,
    /// Ground-truth stage latency in seconds.
    pub latency: f64,
}

impl GraphSample {
    /// Build a sample from an (un-pruned) stage graph and its profiled
    /// latency. Pruning (§IV-B4) runs here; `pe_dim` is the DAG
    /// Transformer's embedding width. The DAGRA mask uses the full
    /// reachability closure (the paper's `k = ∞`).
    pub fn new(graph: &Graph, latency: f64, pe_dim: usize) -> GraphSample {
        let (g, _) = prune(graph);
        Self::from_pruned(&g, latency, pe_dim)
    }

    /// Like [`GraphSample::new`] but with eqn. 1's neighbourhood range
    /// restricted to `k` hops (`N_k(v)`) — the ablation knob around the
    /// paper's `k = ∞` default. Computes only the `k`-bounded
    /// reachability, never the full closure.
    pub fn with_attention_range(graph: &Graph, latency: f64, pe_dim: usize, k: u32) -> GraphSample {
        let (g, _) = prune(graph);
        let reach = Reachability::compute_within(&g, k);
        Self::build(&g, latency, pe_dim, &reach)
    }

    /// Build a sample from an already-pruned graph (ablation use).
    pub fn from_pruned(g: &Graph, latency: f64, pe_dim: usize) -> GraphSample {
        let reach = Reachability::compute(g);
        Self::build(g, latency, pe_dim, &reach)
    }

    /// The single construction path shared by every public constructor:
    /// only the reachability relation (full closure vs `k`-bounded)
    /// differs between them.
    fn build(g: &Graph, latency: f64, pe_dim: usize, reach: &Reachability) -> GraphSample {
        let n = g.len();
        let features = Matrix::from_vec(n, FEATURE_DIM, graph_features(g));
        let adjacency = Arc::new(Adjacency {
            edges: g.edges().collect(),
            dense: OnceLock::new(),
        });
        let dag_allowed = AllowedColumns::from_bits(n, n, &reach.connected_bits());

        let d = depths(g);
        let dagpe = sinusoidal_pe(&d, pe_dim);

        GraphSample {
            features,
            adjacency,
            dag_allowed,
            dagpe,
            latency,
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// Symmetrically-normalized adjacency with self-loops
    /// `D^{-1/2}(A+Aᵀ+I)D^{-1/2}` (GCN propagation matrix).
    pub fn adj_norm(&self) -> &Matrix {
        &self.adjacency.dense(self.num_nodes()).0
    }

    /// `N × N` neighbourhood mask (0 allowed / −inf masked) over the
    /// undirected adjacency plus self-loops (GAT attention support).
    pub fn adj_mask(&self) -> &Matrix {
        &self.adjacency.dense(self.num_nodes()).1
    }
}

/// A pruned graph's edge list plus its dense `(adj_norm, adj_mask)`
/// pair, built from the edges the first time a GCN or GAT reads them.
#[derive(Debug)]
struct Adjacency {
    edges: Vec<(NodeId, NodeId)>,
    dense: OnceLock<(Matrix, Matrix)>,
}

impl Adjacency {
    fn dense(&self, n: usize) -> &(Matrix, Matrix) {
        self.dense.get_or_init(|| {
            // undirected adjacency with self-loops
            let mut adj = Matrix::zeros(n, n);
            for i in 0..n {
                adj.set(i, i, 1.0);
            }
            for &(s, d) in &self.edges {
                adj.set(s.index(), d.index(), 1.0);
                adj.set(d.index(), s.index(), 1.0);
            }
            // D^{-1/2} A D^{-1/2}
            let deg: Vec<f32> = (0..n).map(|i| adj.row(i).iter().sum::<f32>()).collect();
            let mut adj_norm = Matrix::zeros(n, n);
            for i in 0..n {
                let support = adj.row(i);
                let out = adj_norm.row_mut(i);
                for j in 0..n {
                    if support[j] != 0.0 {
                        out[j] = 1.0 / (deg[i] * deg[j]).sqrt();
                    }
                }
            }
            let adj_mask = attention_mask_matrix(n, |i, j| adj.get(i, j) != 0.0);
            (adj_norm, adj_mask)
        })
    }
}

/// `n × n` attention mask (0 allowed / −inf masked) built row-wise from
/// an `allowed(i, j)` predicate (the GAT neighbourhood mask).
fn attention_mask_matrix(n: usize, allowed: impl Fn(usize, usize) -> bool) -> Matrix {
    let mut mask = Matrix::zeros(n, n);
    for i in 0..n {
        for (j, slot) in mask.row_mut(i).iter_mut().enumerate() {
            *slot = if allowed(i, j) {
                0.0
            } else {
                f32::NEG_INFINITY
            };
        }
    }
    mask
}

/// Standard sinusoidal positional encoding evaluated at each node's DAG
/// depth (DAGPE): `PE(pos, 2i) = sin(pos / 10000^{2i/d})`,
/// `PE(pos, 2i+1) = cos(...)`.
pub fn sinusoidal_pe(depths: &[u32], dim: usize) -> Matrix {
    let mut pe = Matrix::zeros(depths.len(), dim);
    for (r, &pos) in depths.iter().enumerate() {
        let row = pe.row_mut(r);
        for i in 0..dim / 2 {
            let freq = (10_000f64).powf(-(2.0 * i as f64) / dim as f64);
            let angle = pos as f64 * freq;
            row[2 * i] = angle.sin() as f32;
            row[2 * i + 1] = angle.cos() as f32;
        }
    }
    pe
}

/// Log-standardizing target scaler: the model regresses
/// `z = (ln t − μ) / σ` with `μ, σ` fit on the *training* targets only.
/// Latencies span orders of magnitude across stage sizes; the log keeps
/// small stages from being ignored by the loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetScaler {
    /// Mean of `ln(latency)` over the fit set.
    pub mean: f64,
    /// Std-dev of `ln(latency)` (≥ a small floor).
    pub std: f64,
}

impl TargetScaler {
    /// Fit on a set of latencies (seconds).
    ///
    /// # Panics
    /// Panics on an empty slice or non-positive latencies.
    pub fn fit(latencies: &[f64]) -> TargetScaler {
        assert!(!latencies.is_empty(), "cannot fit scaler on empty set");
        assert!(
            latencies.iter().all(|&t| t > 0.0),
            "latencies must be positive"
        );
        let logs: Vec<f64> = latencies.iter().map(|t| t.ln()).collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / logs.len() as f64;
        TargetScaler {
            mean,
            std: var.sqrt().max(1e-6),
        }
    }

    /// Seconds → normalized target.
    pub fn transform(&self, latency: f64) -> f32 {
        ((latency.ln() - self.mean) / self.std) as f32
    }

    /// Normalized model output → seconds.
    pub fn inverse(&self, z: f32) -> f64 {
        (z as f64 * self.std + self.mean).exp()
    }
}

/// Index-based train/validation/test split of a sample set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training sample indices.
    pub train: Vec<usize>,
    /// Validation indices (early stopping).
    pub val: Vec<usize>,
    /// Held-out test indices (MRE reporting).
    pub test: Vec<usize>,
}

/// A collection of samples with split helpers.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<GraphSample>,
}

impl Dataset {
    /// Dataset from prebuilt samples.
    pub fn new(samples: Vec<GraphSample>) -> Dataset {
        Dataset { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The paper's split protocol (§VIII-A): shuffle once with `seed`,
    /// take `train_frac` of all samples for training, a fixed 10% for
    /// validation, and the remainder for testing.
    ///
    /// # Panics
    /// Panics unless `0 < train_frac ≤ 0.9` leaves at least one sample
    /// in each part.
    pub fn split(&self, train_frac: f64, seed: u64) -> Split {
        assert!(train_frac > 0.0 && train_frac <= 0.9);
        let n = self.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_train = ((n as f64 * train_frac).round() as usize).clamp(1, n.saturating_sub(2));
        let n_val = ((n as f64 * 0.1).round() as usize).max(1);
        let train = idx[..n_train].to_vec();
        let val = idx[n_train..n_train + n_val].to_vec();
        let test = idx[n_train + n_val..].to_vec();
        assert!(!test.is_empty(), "split leaves no test samples");
        Split { train, val, test }
    }

    /// Latencies of the given indices (scaler fitting / evaluation).
    pub fn latencies(&self, idx: &[usize]) -> Vec<f64> {
        idx.iter().map(|&i| self.samples[i].latency).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_ir::{DType, GraphBuilder, OpKind};
    use proptest::prelude::*;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input([8, 8], DType::F32);
        let r = b.op(OpKind::Reshape, &[x], [64], DType::F32);
        let e = b.unary(OpKind::Exp, r);
        let t = b.unary(OpKind::Tanh, r);
        let s = b.binary(OpKind::Add, e, t);
        b.finish(&[s]).unwrap()
    }

    #[test]
    fn sample_prunes_and_shapes() {
        let g = sample_graph();
        let s = GraphSample::new(&g, 0.01, 16);
        // reshape pruned: input, exp, tanh, add, output = 5 nodes
        assert_eq!(s.num_nodes(), 5);
        assert_eq!(s.features.cols(), FEATURE_DIM);
        assert_eq!(s.adj_norm().rows(), 5);
        assert_eq!(s.dag_allowed.cols(), 5);
        assert_eq!(s.dagpe.cols(), 16);
    }

    #[test]
    fn adjacency_is_symmetric_and_normalized() {
        let g = sample_graph();
        let s = GraphSample::new(&g, 0.01, 8);
        let n = s.num_nodes();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(s.adj_norm().get(i, j), s.adj_norm().get(j, i));
                // mask agrees with adjacency support
                assert_eq!(s.adj_mask().get(i, j) == 0.0, s.adj_norm().get(i, j) != 0.0);
            }
            assert!(s.adj_norm().get(i, i) > 0.0, "self-loop present");
        }
    }

    #[test]
    fn dag_mask_distinguishes_siblings() {
        let g = sample_graph();
        let s = GraphSample::new(&g, 0.01, 8);
        // after pruning: 0=input, 1=exp, 2=tanh, 3=add, 4=output
        assert!(!s.dag_allowed.contains(1, 2), "siblings masked");
        assert!(s.dag_allowed.contains(0, 3), "ancestors attend");
        // but GAT's adjacency mask allows only direct neighbours
        assert_eq!(s.adj_mask().get(0, 3), f32::NEG_INFINITY);
        assert_eq!(s.adj_mask().get(0, 1), 0.0);
    }

    #[test]
    fn pe_depth_zero_is_unit_pattern() {
        let pe = sinusoidal_pe(&[0, 1, 1], 8);
        // depth 0: sin(0)=0, cos(0)=1 alternating
        assert_eq!(pe.row(0), &[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        // equal depths share encodings
        assert_eq!(pe.row(1), pe.row(2));
    }

    #[test]
    fn scaler_roundtrips() {
        let lats = [0.001, 0.02, 0.5, 1.3];
        let sc = TargetScaler::fit(&lats);
        for &t in &lats {
            let z = sc.transform(t);
            assert!((sc.inverse(z) - t).abs() / t < 1e-4);
        }
        // standardization: mean of transformed ≈ 0
        let zsum: f32 = lats.iter().map(|&t| sc.transform(t)).sum();
        assert!(zsum.abs() < 1e-4);
    }

    #[test]
    fn split_fractions_respected() {
        let g = sample_graph();
        let samples: Vec<GraphSample> = (0..100)
            .map(|i| GraphSample::new(&g, 0.01 + i as f64 * 1e-4, 8))
            .collect();
        let ds = Dataset::new(samples);
        let sp = ds.split(0.3, 42);
        assert_eq!(sp.train.len(), 30);
        assert_eq!(sp.val.len(), 10);
        assert_eq!(sp.test.len(), 60);
        // disjoint and covering
        let mut all: Vec<usize> = sp
            .train
            .iter()
            .chain(&sp.val)
            .chain(&sp.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        // deterministic
        assert_eq!(ds.split(0.3, 42), sp);
        assert_ne!(ds.split(0.3, 43), sp);
    }

    #[test]
    fn attention_range_restricts_the_mask() {
        // chain of 6 ops: with k=1 only direct neighbours attend
        let mut b = GraphBuilder::new();
        let mut x = b.input([4], DType::F32);
        for _ in 0..5 {
            x = b.unary(OpKind::Exp, x);
        }
        let g = b.finish(&[x]).unwrap();
        let full = GraphSample::new(&g, 0.01, 8);
        let k1 = GraphSample::with_attention_range(&g, 0.01, 8, 1);
        assert!(k1.dag_allowed.count() < full.dag_allowed.count());
        // k=1: node 0 may attend to node 1 but not node 2
        assert!(k1.dag_allowed.contains(0, 1));
        assert!(!k1.dag_allowed.contains(0, 2));
        assert!(full.dag_allowed.contains(0, 2));
        // diagonal always allowed
        for i in 0..k1.num_nodes() {
            assert!(k1.dag_allowed.contains(i, i));
        }
        // a huge k equals the closure
        let k_big = GraphSample::with_attention_range(&g, 0.01, 8, 1000);
        assert_eq!(k_big.dag_allowed, full.dag_allowed);
    }

    #[test]
    fn zero_range_attends_only_to_itself() {
        let g = sample_graph();
        let k0 = GraphSample::with_attention_range(&g, 0.01, 8, 0);
        let n = k0.num_nodes();
        assert_eq!(k0.dag_allowed.count(), n);
        for i in 0..n {
            assert_eq!(k0.dag_allowed.row(i), &[i as u32], "row {i}");
        }
    }

    #[test]
    fn clones_share_the_allowed_index() {
        let s = GraphSample::new(&sample_graph(), 0.01, 8);
        let c = s.clone();
        assert_eq!(c.dag_allowed, s.dag_allowed);
        assert!(std::ptr::eq(c.dag_allowed.row(0), s.dag_allowed.row(0)));
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The index read off the reachability bit rows equals the
        /// `from_fn` oracle over `Reachability::connected` on random
        /// DAGs (up to three 64-bit words a row), at `k` = 0..4 hops and
        /// at the paper's `k = ∞` (`hops == 4`).
        #[test]
        fn prop_bit_row_index_matches_the_connected_predicate(
            nodes in 2usize..200,
            hops in 0u32..5,
            seed in any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let mut ids = vec![b.input([2], DType::F32)];
            for _ in 1..nodes {
                if rng.gen_bool(0.1) {
                    ids.push(b.input([2], DType::F32));
                } else {
                    let x = ids[rng.gen_range(0..ids.len())];
                    let y = ids[rng.gen_range(ids.len().saturating_sub(8)..ids.len())];
                    ids.push(b.binary(OpKind::Mul, x, y));
                }
            }
            let g = b.finish(&[*ids.last().unwrap()]).unwrap();
            let (pruned, _) = prune(&g);
            let (sample, reach) = if hops == 4 {
                (GraphSample::new(&g, 0.01, 8), Reachability::compute(&pruned))
            } else {
                (
                    GraphSample::with_attention_range(&g, 0.01, 8, hops),
                    Reachability::compute_within(&pruned, hops),
                )
            };
            let n = pruned.len();
            let oracle = AllowedColumns::from_fn(n, n, |i, j| {
                reach.connected(NodeId(i as u32), NodeId(j as u32))
            });
            prop_assert_eq!(&sample.dag_allowed, &oracle);
        }

        #[test]
        fn prop_scaler_inverse_is_monotone(a in 1e-5f64..10.0, b in 1e-5f64..10.0) {
            prop_assume!((a - b).abs() > 1e-9);
            let sc = TargetScaler::fit(&[0.001, 0.01, 0.1, 1.0]);
            let (za, zb) = (sc.transform(a), sc.transform(b));
            prop_assert_eq!(a < b, za < zb);
        }
    }
}
