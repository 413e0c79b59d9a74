//! Buffer lifetime helpers for liveness-based memory analysis.
//!
//! The simulator's memory model (`predtop-sim::memory`) retains every
//! operator output for the backward pass — sound, but pessimistic for
//! the *transient* bookkeeping buffers (§IV-B4's prunable ops: reshape,
//! dtype conversion, copy, stop-gradient) whose outputs are dead the
//! moment their last consumer has run and which any real allocator
//! frees mid-forward. This module classifies each node's output buffer
//! and locates its last use, which is exactly the information a
//! backward liveness pass needs to compute a peak-resident-set bound
//! instead of a sum-of-everything bound.
//!
//! Definitions (all pure functions of the graph; node ids are dense and
//! topologically ordered, so "schedule order" *is* id order):
//!
//! * a node's buffer is **transient** iff it is the output of a
//!   prunable operator ([`crate::op::OpKind::is_prunable`]) — freeable
//!   after its last use because its contents are recoverable from
//!   neighbouring nodes during the backward pass;
//! * every other operator output, and the stage's incoming activation,
//!   is **retained**: live from its definition to the end of the
//!   forward pass (it feeds the backward pass).

use crate::graph::{Graph, NodeId, NodeKind};

/// Is `id`'s output buffer transient — freeable after its last use
/// rather than retained for the backward pass?
pub fn is_transient(graph: &Graph, id: NodeId) -> bool {
    match graph.node(id).kind {
        NodeKind::Operator(op) => op.is_prunable(),
        _ => false,
    }
}

/// The last schedule point that reads `id`'s buffer: the highest-id
/// successor, or `id` itself when nothing consumes it (the buffer dies
/// as soon as it is produced).
pub fn last_use(graph: &Graph, id: NodeId) -> NodeId {
    graph
        .succs(id)
        .iter()
        .copied()
        .max_by_key(|s| s.index())
        .unwrap_or(id)
}

/// Ids of every retained buffer: the complement of the transient set.
/// These are exactly the buffers live at the end of the forward pass —
/// the boundary condition of a backward liveness analysis.
pub fn retained_set(graph: &Graph) -> Vec<NodeId> {
    graph
        .nodes()
        .iter()
        .filter(|n| !is_transient(graph, n.id))
        .map(|n| n.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::graph::GraphBuilder;
    use crate::op::OpKind;
    use crate::shape::Shape;

    fn diamond() -> Graph {
        // 0: input → 1: reshape (transient) → {2: exp, 3: neg} → 4: add
        // (finish appends 5: output consuming 4)
        let mut b = GraphBuilder::new();
        let x = b.input(Shape::from([4, 8]), DType::F32);
        let r = b.op(OpKind::Reshape, &[x], Shape::from([8, 4]), DType::F32);
        let e = b.unary(OpKind::Exp, r);
        let n = b.unary(OpKind::Neg, r);
        let a = b.binary(OpKind::Add, e, n);
        b.finish(&[a]).unwrap()
    }

    #[test]
    fn transient_classification_follows_prunability() {
        let g = diamond();
        assert!(!is_transient(&g, NodeId(0)), "inputs are retained");
        assert!(is_transient(&g, NodeId(1)), "reshape output is transient");
        assert!(!is_transient(&g, NodeId(2)));
        assert!(!is_transient(&g, NodeId(4)));
    }

    #[test]
    fn last_use_is_highest_consumer() {
        let g = diamond();
        assert_eq!(last_use(&g, NodeId(1)), NodeId(3), "reshape feeds 2 and 3");
        assert_eq!(last_use(&g, NodeId(5)), NodeId(5), "sink has no consumer");
        let every: Vec<NodeId> = g.nodes().iter().map(|n| last_use(&g, n.id)).collect();
        assert_eq!(
            every,
            vec![
                NodeId(1),
                NodeId(3),
                NodeId(4),
                NodeId(4),
                NodeId(5),
                NodeId(5)
            ]
        );
    }

    #[test]
    fn retained_set_is_the_complement() {
        let g = diamond();
        let retained = retained_set(&g);
        assert_eq!(
            retained,
            vec![NodeId(0), NodeId(2), NodeId(3), NodeId(4), NodeId(5)]
        );
        for id in &retained {
            assert!(!is_transient(&g, *id));
        }
    }
}
