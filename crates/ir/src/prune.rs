//! Graph pruning (§IV-B4).
//!
//! Stage graphs lifted from the jaxpr representation carry many
//! bookkeeping nodes — `reshape`, `convert_element_type`, `copy`,
//! `stop_gradient` — whose effect is fully recoverable from the
//! shape/dtype recorded on every node: "if the data type is different
//! between the two connected nodes, then this will inherently imply that
//! there was a data conversion between these nodes". Removing them keeps
//! the graphs small enough for efficient predictor training (the paper's
//! Fig. 5).
//!
//! The transform preserves the topological-id invariant: surviving nodes
//! keep their relative order and ids are re-densified.

use crate::graph::{Graph, Node, NodeId, NodeKind};

/// Statistics returned by [`prune`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Nodes in the input graph.
    pub nodes_before: usize,
    /// Nodes in the pruned graph.
    pub nodes_after: usize,
    /// Number of elided operator nodes.
    pub removed: usize,
}

impl PruneStats {
    /// Fraction of nodes removed.
    pub fn removal_ratio(&self) -> f64 {
        if self.nodes_before == 0 {
            0.0
        } else {
            self.removed as f64 / self.nodes_before as f64
        }
    }
}

/// Remove all prunable bookkeeping nodes, rewiring each consumer of a
/// removed node to the removed node's (transitively resolved) operand.
///
/// Prunable ops are unary relays (`reshape`, `convert_element_type`,
/// `copy`, `stop_gradient` — see [`crate::op::OpKind::is_prunable`]); each
/// has exactly one data operand, so rewiring is a single forwarding-
/// pointer resolution and edge multiplicity is preserved.
pub fn prune(g: &Graph) -> (Graph, PruneStats) {
    let n = g.len();
    // forward[i] = the surviving node that consumers of i should read
    // from. For surviving nodes, forward[i] = i. Because ids are
    // topological, operands resolve before their consumers.
    let mut forward: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut removed = 0usize;

    for node in g.nodes() {
        if let NodeKind::Operator(op) = node.kind {
            if op.is_prunable() {
                // jaxpr relays have one data operand; defensively fall
                // back to keeping the node if that assumption breaks.
                if let [src] = g.preds(node.id) {
                    forward[node.id.index()] = forward[src.index()];
                    removed += 1;
                }
            }
        }
    }

    // Re-densify surviving nodes, appending each one's forwarded
    // operands to the flat operand array.
    let mut new_id = vec![NodeId(u32::MAX); n];
    let mut survivors: Vec<Node> = Vec::with_capacity(n - removed);
    let mut operand_start = Vec::with_capacity(n - removed + 1);
    operand_start.push(0);
    let mut operands = Vec::with_capacity(g.num_edges());
    for node in g.nodes() {
        if forward[node.id.index()] != node.id {
            continue; // pruned
        }
        let id = NodeId(survivors.len() as u32);
        new_id[node.id.index()] = id;
        survivors.push(Node { id, ..*node });
        for input in g.preds(node.id) {
            let mapped = new_id[forward[input.index()].index()];
            debug_assert_ne!(mapped.0, u32::MAX, "operand resolved to a pruned node");
            operands.push(mapped);
        }
        operand_start.push(operands.len() as u32);
    }

    let pruned = Graph::from_parts(survivors, operand_start, operands);
    debug_assert!(pruned.validate().is_ok());
    let stats = PruneStats {
        nodes_before: n,
        nodes_after: pruned.len(),
        removed,
    };
    (pruned, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::graph::GraphBuilder;
    use crate::op::OpKind;
    use proptest::prelude::*;

    /// Fig. 5's pattern: input -> convert -> reshape -> dot -> output.
    fn fig5_like() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input([8, 16], DType::I32);
        let conv = b.op(OpKind::ConvertElementType, &[x], [8, 16], DType::F32);
        let resh = b.op(OpKind::Reshape, &[conv], [128], DType::F32);
        let w = b.input([128], DType::F32);
        let dot = b.dot(resh, w, Shape::SCALAR, DType::F32, 128);
        b.finish(&[dot]).unwrap()
    }

    use crate::shape::Shape;

    #[test]
    fn convert_and_reshape_removed() {
        let g = fig5_like();
        let (p, stats) = prune(&g);
        assert_eq!(stats.removed, 2);
        assert_eq!(p.len(), g.len() - 2);
        assert_eq!(p.count_ops(OpKind::ConvertElementType), 0);
        assert_eq!(p.count_ops(OpKind::Reshape), 0);
        // the dot now reads directly from the int32 input
        let dot_id = p
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Operator(OpKind::DotGeneral))
            .unwrap()
            .id;
        let preds = p.preds(dot_id);
        assert_eq!(p.node(preds[0]).kind, NodeKind::Input);
        assert_eq!(
            p.node(preds[0]).dtype,
            DType::I32,
            "dtype change still visible"
        );
        assert_eq!(p.node(dot_id).dtype, DType::F32);
    }

    #[test]
    fn chains_of_prunable_ops_collapse() {
        let mut b = GraphBuilder::new();
        let x = b.input([4, 4], DType::F32);
        let mut v = x;
        for _ in 0..5 {
            v = b.op(OpKind::Reshape, &[v], [16], DType::F32);
            v = b.op(OpKind::Copy, &[v], [16], DType::F32);
        }
        let y = b.unary(OpKind::Exp, v);
        let g = b.finish(&[y]).unwrap();
        let (p, stats) = prune(&g);
        assert_eq!(stats.removed, 10);
        // input -> exp -> output
        assert_eq!(p.len(), 3);
        let exp_id = NodeId(1);
        assert_eq!(p.node(exp_id).kind, NodeKind::Operator(OpKind::Exp));
        assert_eq!(p.preds(exp_id), &[NodeId(0)]);
    }

    #[test]
    fn non_prunable_graph_unchanged() {
        let mut b = GraphBuilder::new();
        let x = b.input([4], DType::F32);
        let y = b.unary(OpKind::Tanh, x);
        let z = b.unary(OpKind::Exp, y);
        let g = b.finish(&[z]).unwrap();
        let (p, stats) = prune(&g);
        assert_eq!(stats.removed, 0);
        assert_eq!(p, g);
    }

    #[test]
    fn stats_ratio() {
        let g = fig5_like();
        let (_, stats) = prune(&g);
        assert!((stats.removal_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    fn arb_prunable_graph() -> impl Strategy<Value = Graph> {
        (4usize..80, any::<u64>()).prop_map(|(n, seed)| {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let mut ids = vec![b.input([4, 4], DType::F32)];
            for _ in 1..n {
                let roll: f64 = rng.gen();
                let id = if roll < 0.15 {
                    b.input([4, 4], DType::F32)
                } else if roll < 0.45 {
                    let v = ids[rng.gen_range(0..ids.len())];
                    let kind = if rng.gen_bool(0.5) {
                        OpKind::Reshape
                    } else {
                        OpKind::ConvertElementType
                    };
                    let sh = b.nodes_shape(v);
                    b.op(kind, &[v], sh, DType::F32)
                } else {
                    let u = ids[rng.gen_range(0..ids.len())];
                    let v = ids[rng.gen_range(0..ids.len())];
                    b.binary(OpKind::Add, u, v)
                };
                ids.push(id);
            }
            let last = *ids.last().unwrap();
            b.finish(&[last]).unwrap()
        })
    }

    impl GraphBuilder {
        fn nodes_shape(&self, _v: NodeId) -> Shape {
            Shape::new(&[4, 4])
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_pruned_graph_valid_and_free_of_prunables(g in arb_prunable_graph()) {
            let (p, stats) = prune(&g);
            prop_assert!(p.validate().is_ok());
            for node in p.nodes() {
                if let NodeKind::Operator(op) = node.kind {
                    prop_assert!(!op.is_prunable(), "{op} survived pruning");
                }
            }
            prop_assert_eq!(p.len() + stats.removed, g.len());
        }

        #[test]
        fn prop_prune_idempotent(g in arb_prunable_graph()) {
            let (p1, _) = prune(&g);
            let (p2, stats2) = prune(&p1);
            prop_assert_eq!(stats2.removed, 0);
            prop_assert_eq!(p1, p2);
        }

        #[test]
        fn prop_outputs_preserved(g in arb_prunable_graph()) {
            let (p, _) = prune(&g);
            prop_assert_eq!(g.outputs().count(), p.outputs().count());
        }

        /// Each survivor keeps its node data and reads, slot by slot, its
        /// original operands with every relay chain walked back to the
        /// value it forwards.
        #[test]
        fn prop_survivors_read_the_forwarded_originals(g in arb_prunable_graph()) {
            let (p, _) = prune(&g);
            let relay = |v: NodeId| {
                matches!(g.node(v).kind, NodeKind::Operator(op) if op.is_prunable())
                    && g.preds(v).len() == 1
            };
            let originals: Vec<NodeId> =
                g.nodes().iter().map(|n| n.id).filter(|&v| !relay(v)).collect();
            prop_assert_eq!(originals.len(), p.len());
            let new_id = |mut v: NodeId| {
                while relay(v) {
                    v = g.preds(v)[0];
                }
                NodeId(originals.binary_search(&v).unwrap() as u32)
            };
            for (i, &o) in originals.iter().enumerate() {
                let id = NodeId(i as u32);
                prop_assert_eq!(*p.node(id), Node { id, ..*g.node(o) });
                let forwarded: Vec<NodeId> = g.preds(o).iter().map(|&v| new_id(v)).collect();
                prop_assert_eq!(p.preds(id), &forwarded[..]);
            }
        }
    }
}
