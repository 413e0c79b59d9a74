//! Reachability closures (DAGRA) and node depths (DAGPE).
//!
//! The DAG Transformer (§IV-A, eqn. 1) restricts attention between nodes
//! `u` and `v` to pairs with a directed path `u ⇝ v` or `v ⇝ u`
//! ("reachability-based attention", DAGRA) and encodes each node's
//! longest-path depth as its positional encoding (DAGPE).
//!
//! Both quantities are computed here with a single forward pass over the
//! topologically-ordered nodes using word-packed bitsets, so a
//! 2,000-node stage graph costs ~2000² / 64 word-ORs.

use crate::graph::{Graph, NodeId};

/// A packed `n × n` boolean matrix of ancestor relations.
///
/// `ancestor(u, v)` is true iff there is a directed path `u ⇝ v`
/// (u strictly precedes v; the relation is irreflexive).
#[derive(Debug, Clone)]
pub struct Reachability {
    n: usize,
    words_per_row: usize,
    /// Row `v` holds the ancestor set of `v` (bit `u` set ⇔ `u ⇝ v`).
    bits: Vec<u64>,
}

impl Reachability {
    /// Compute the `k`-hop-bounded ancestor relation: bit `u` of row `v`
    /// is set iff a directed path `u ⇝ v` of length between 1 and `k`
    /// exists. This is eqn. 1's `N_k(v)` neighbourhood-range
    /// hyperparameter; the paper sets `k = ∞` ([`Reachability::compute`])
    /// but evaluates the knob. `k = 0` leaves the relation empty, so
    /// [`Reachability::connected`] holds only on the diagonal
    /// (`N_0(v) = {v}`).
    ///
    /// Cost: `k` propagation rounds of `O(E · N/64)`.
    pub fn compute_within(g: &Graph, k: u32) -> Reachability {
        let n = g.len();
        let words = n.div_ceil(64);
        // direct predecessors, the seed of every round
        let mut preds = vec![0u64; n * words];
        for v in 0..n {
            for &p in g.preds(NodeId(v as u32)) {
                preds[v * words + p.index() / 64] |= 1u64 << (p.index() % 64);
            }
        }
        // R_0 = ∅
        let mut cur = vec![0u64; n * words];
        for _ in 0..k {
            // R_{j+1}[v] = preds(v) ∪ ⋃_{p ∈ preds(v)} R_j[p]
            let mut next = preds.clone();
            for v in 0..n {
                for &p in g.preds(NodeId(v as u32)) {
                    let pi = p.index();
                    for w in 0..words {
                        next[v * words + w] |= cur[pi * words + w];
                    }
                }
            }
            if next == cur {
                break; // closure reached before k rounds
            }
            cur = next;
        }
        Reachability {
            n,
            words_per_row: words,
            bits: cur,
        }
    }

    /// Compute the ancestor closure of `g`.
    pub fn compute(g: &Graph) -> Reachability {
        let n = g.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        // Nodes are in topological order, so each node's ancestor set is
        // the union of its predecessors' sets plus the predecessors
        // themselves.
        for v in 0..n {
            // Split borrows: rows before v are finalized.
            let (done, rest) = bits.split_at_mut(v * words);
            let row_v = &mut rest[..words];
            for &p in g.preds(NodeId(v as u32)) {
                let pi = p.index();
                let row_p = &done[pi * words..(pi + 1) * words];
                for (dst, src) in row_v.iter_mut().zip(row_p) {
                    *dst |= src;
                }
                row_v[pi / 64] |= 1u64 << (pi % 64);
            }
        }
        Reachability {
            n,
            words_per_row: words,
            bits,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty graph.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Is there a directed path `u ⇝ v` (strictly; `ancestor(u, u)` is
    /// false)?
    #[inline]
    pub fn ancestor(&self, u: NodeId, v: NodeId) -> bool {
        let (u, v) = (u.index(), v.index());
        debug_assert!(u < self.n && v < self.n);
        self.bits[v * self.words_per_row + u / 64] >> (u % 64) & 1 == 1
    }

    /// DAGRA attention predicate: may `u` attend to `v`? True iff `u == v`
    /// or a path exists in either direction.
    #[inline]
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        u == v || self.ancestor(u, v) || self.ancestor(v, u)
    }

    /// The DAGRA attention rows as a packed `n × n` bit matrix, row `u`
    /// in words `u·w..(u+1)·w` with `w = n.div_ceil(64)`: bit `v % 64` of
    /// word `v / 64` is set iff [`Reachability::connected`]`(u, v)`, so
    /// row `u` is its ancestor row, OR its descendants (the transposed
    /// relation), OR the diagonal. Costs a copy of the words plus one
    /// step per related pair.
    pub fn connected_bits(&self) -> Vec<u64> {
        let words = self.words_per_row;
        let mut rows = self.bits.clone();
        for v in 0..self.n {
            rows[v * words + v / 64] |= 1u64 << (v % 64);
            for (w, &word) in self.bits[v * words..(v + 1) * words].iter().enumerate() {
                let mut left = word;
                while left != 0 {
                    // u ⇝ v: v is one of u's descendants
                    let u = w * 64 + left.trailing_zeros() as usize;
                    left &= left - 1;
                    rows[u * words + v / 64] |= 1u64 << (v % 64);
                }
            }
        }
        rows
    }

    /// Number of ancestors of `v`.
    pub fn ancestor_count(&self, v: NodeId) -> usize {
        let row = &self.bits[v.index() * self.words_per_row..(v.index() + 1) * self.words_per_row];
        row.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of allowed (unmasked) entries in the DAGRA mask,
    /// diagnostics for how much sparsity the DAG bias provides.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut allowed = self.n; // diagonal
        for v in 0..self.n {
            allowed += 2 * self.ancestor_count(NodeId(v as u32));
        }
        allowed as f64 / (self.n * self.n) as f64
    }
}

/// Longest-path depth of every node from the roots (DAGPE positional
/// encoding): roots have depth 0, every other node is `1 + max(depth of
/// predecessors)`.
pub fn depths(g: &Graph) -> Vec<u32> {
    let mut d = vec![0u32; g.len()];
    for v in 0..g.len() {
        let mut best = None;
        for &p in g.preds(NodeId(v as u32)) {
            best = Some(best.map_or(d[p.index()], |b: u32| b.max(d[p.index()])));
        }
        if let Some(b) = best {
            d[v] = b + 1;
        }
    }
    d
}

/// The maximum depth in the graph (length of its critical path in nodes).
pub fn critical_path_len(g: &Graph) -> u32 {
    depths(g).into_iter().max().map_or(0, |d| d + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::graph::GraphBuilder;
    use crate::op::OpKind;
    use proptest::prelude::*;

    /// Diamond: a -> b, a -> c, b -> d, c -> d, plus output on d.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.input([4], DType::F32);
        let x = b.unary(OpKind::Exp, a);
        let y = b.unary(OpKind::Tanh, a);
        let d = b.binary(OpKind::Add, x, y);
        b.finish(&[d]).unwrap()
    }

    #[test]
    fn diamond_reachability() {
        let g = diamond();
        let r = Reachability::compute(&g);
        let (a, x, y, d, out) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        assert!(r.ancestor(a, x));
        assert!(r.ancestor(a, d));
        assert!(r.ancestor(a, out));
        assert!(r.ancestor(x, d));
        assert!(!r.ancestor(x, y), "siblings are not reachable");
        assert!(!r.ancestor(y, x));
        assert!(!r.ancestor(d, a), "no backward reachability");
        // connected is symmetric + reflexive
        assert!(r.connected(x, x));
        assert!(r.connected(d, a));
        assert!(!r.connected(x, y));
    }

    #[test]
    fn diamond_depths() {
        let g = diamond();
        assert_eq!(depths(&g), vec![0, 1, 1, 2, 3]);
        assert_eq!(critical_path_len(&g), 4);
    }

    #[test]
    fn connected_bits_match_the_connected_predicate() {
        let g = diamond();
        for r in [
            Reachability::compute(&g),
            Reachability::compute_within(&g, 1),
            Reachability::compute_within(&g, 0),
        ] {
            let bits = r.connected_bits();
            let (n, words) = (g.len(), g.len().div_ceil(64));
            assert_eq!(bits.len(), n * words);
            for u in 0..n {
                for v in 0..n {
                    let set = bits[u * words + v / 64] >> (v % 64) & 1 == 1;
                    let want = r.connected(NodeId(u as u32), NodeId(v as u32));
                    assert_eq!(set, want, "({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn chain_is_fully_connected() {
        let mut b = GraphBuilder::new();
        let mut prev = b.input([4], DType::F32);
        for _ in 0..10 {
            prev = b.unary(OpKind::Exp, prev);
        }
        let g = b.finish(&[prev]).unwrap();
        let r = Reachability::compute(&g);
        assert!((r.density() - 1.0).abs() < 1e-9, "a chain's mask is dense");
        assert_eq!(critical_path_len(&g), g.len() as u32);
    }

    #[test]
    fn parallel_branches_are_sparse() {
        // k independent chains joined only at the output sum.
        let mut b = GraphBuilder::new();
        let mut heads = Vec::new();
        for _ in 0..8 {
            let x = b.input([4], DType::F32);
            heads.push(b.unary(OpKind::Exp, x));
        }
        let mut acc = heads[0];
        for &h in &heads[1..] {
            acc = b.binary(OpKind::Add, acc, h);
        }
        let g = b.finish(&[acc]).unwrap();
        let r = Reachability::compute(&g);
        assert!(r.density() < 0.9);
    }

    #[test]
    fn k_hop_bounds_reachability() {
        // chain a -> b -> c -> d
        let mut b = GraphBuilder::new();
        let mut prev = b.input([2], DType::F32);
        for _ in 0..3 {
            prev = b.unary(OpKind::Exp, prev);
        }
        let g = b.finish(&[prev]).unwrap();
        let r1 = Reachability::compute_within(&g, 1);
        let r2 = Reachability::compute_within(&g, 2);
        let (a, c, d) = (NodeId(0), NodeId(2), NodeId(3));
        assert!(!r1.ancestor(a, c), "distance 2 exceeds k=1");
        assert!(r2.ancestor(a, c));
        assert!(!r2.ancestor(a, d), "distance 3 exceeds k=2");
        // large k converges to the full closure
        let rk = Reachability::compute_within(&g, 100);
        let full = Reachability::compute(&g);
        for u in 0..g.len() {
            for v in 0..g.len() {
                assert_eq!(
                    rk.ancestor(NodeId(u as u32), NodeId(v as u32)),
                    full.ancestor(NodeId(u as u32), NodeId(v as u32))
                );
            }
        }
    }

    #[test]
    fn zero_hops_connect_each_node_only_to_itself() {
        let g = diamond();
        let r0 = Reachability::compute_within(&g, 0);
        for u in 0..g.len() {
            assert_eq!(r0.ancestor_count(NodeId(u as u32)), 0);
            for v in 0..g.len() {
                let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                assert_eq!(r0.connected(u, v), u == v, "({u:?}, {v:?})");
            }
        }
        assert!((r0.density() - 1.0 / g.len() as f64).abs() < 1e-12);
    }

    fn arb_dag() -> impl Strategy<Value = Graph> {
        (3usize..60, any::<u64>()).prop_map(|(n, seed)| {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let mut ids = vec![b.input([2], DType::F32)];
            for _ in 1..n {
                if rng.gen_bool(0.2) {
                    ids.push(b.input([2], DType::F32));
                } else {
                    let x = ids[rng.gen_range(0..ids.len())];
                    let y = ids[rng.gen_range(0..ids.len())];
                    ids.push(b.binary(OpKind::Mul, x, y));
                }
            }
            let last = *ids.last().unwrap();
            b.finish(&[last]).unwrap()
        })
    }

    /// Reference reachability by DFS, to check the bitset DP against.
    fn reach_dfs(g: &Graph, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let mut stack = vec![u];
        let mut seen = vec![false; g.len()];
        while let Some(x) = stack.pop() {
            for &s in g.succs(x) {
                if s == v {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_bitset_matches_dfs(g in arb_dag(), a in any::<u32>(), c in any::<u32>()) {
            let r = Reachability::compute(&g);
            let u = NodeId(a % g.len() as u32);
            let v = NodeId(c % g.len() as u32);
            prop_assert_eq!(r.ancestor(u, v), reach_dfs(&g, u, v));
        }

        #[test]
        fn prop_depth_increases_along_edges(g in arb_dag()) {
            let d = depths(&g);
            for (s, t) in g.edges() {
                prop_assert!(d[t.index()] > d[s.index()]);
            }
        }

        #[test]
        fn prop_k_hop_monotone_in_k(g in arb_dag(), k in 0u32..6) {
            let rk = Reachability::compute_within(&g, k);
            let rk1 = Reachability::compute_within(&g, k + 1);
            let full = Reachability::compute(&g);
            for u in 0..g.len() {
                for v in 0..g.len() {
                    let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                    // growing k only adds pairs, never beyond the closure
                    prop_assert!(!rk.ancestor(u, v) || rk1.ancestor(u, v));
                    prop_assert!(!rk1.ancestor(u, v) || full.ancestor(u, v));
                }
            }
        }

        #[test]
        fn prop_ancestor_transitive_through_edges(g in arb_dag()) {
            let r = Reachability::compute(&g);
            for (s, t) in g.edges() {
                prop_assert!(r.ancestor(s, t), "direct edge must be an ancestor pair");
            }
        }
    }
}
