//! Cross-crate digest pin: `Graph::structural_hash` is implemented on
//! `predtop_store::hash::Fnv1a64` (with the historical truncated
//! prime), and its digests key both in-memory caches and on-disk store
//! objects. This test pins the exact value for a fixed graph so any
//! accidental change to the hash walk — or to the shared hasher —
//! invalidating persisted keys fails loudly.

use predtop_ir::dtype::DType;
use predtop_ir::graph::GraphBuilder;
use predtop_ir::op::OpKind;
use predtop_ir::shape::Shape;
use predtop_store::hash::{Fnv1a64, FNV64_PRIME_SHORT};

/// y = relu(x · w + b) — the same shape as graph.rs's `tiny_mlp`.
fn tiny_mlp() -> predtop_ir::graph::Graph {
    let mut b = GraphBuilder::new();
    let x = b.input([8, 16], DType::F32);
    let w = b.input([16, 32], DType::F32);
    let bias = b.literal([32], DType::F32);
    let mm = b.dot(x, w, [8, 32], DType::F32, 16);
    let biasb = b.op(OpKind::BroadcastInDim, &[bias], [8, 32], DType::F32);
    let add = b.binary(OpKind::Add, mm, biasb);
    let zero = b.literal(Shape::SCALAR, DType::F32);
    let zb = b.op(OpKind::BroadcastInDim, &[zero], [8, 32], DType::F32);
    let relu = b.binary(OpKind::Max, add, zb);
    b.finish(&[relu]).unwrap()
}

#[test]
fn structural_hash_digest_is_pinned() {
    // Captured before the hasher was deduplicated into predtop-store;
    // persisted structural keys depend on this exact value.
    assert_eq!(tiny_mlp().structural_hash(), 0x9dce_d236_1c4f_6600);
}

#[test]
fn structural_hash_uses_the_shared_truncated_prime_hasher() {
    // Re-walk the same graph with the shared hasher; equality proves
    // the graph method and predtop-store can never drift apart.
    let g = tiny_mlp();
    let mut h = Fnv1a64::with_prime(FNV64_PRIME_SHORT);
    for n in g.nodes() {
        let kind_tag = match n.kind {
            predtop_ir::graph::NodeKind::Input => 1u64,
            predtop_ir::graph::NodeKind::Literal => 2,
            predtop_ir::graph::NodeKind::Output => 3,
            predtop_ir::graph::NodeKind::Operator(op) => 16 + op.one_hot_index() as u64,
        };
        h.write_word(kind_tag);
        h.write_word(n.dtype.one_hot_index() as u64);
        h.write_word(n.shape.rank() as u64);
        for &d in n.shape.dims() {
            h.write_word(d as u64);
        }
        h.write_word(n.attrs.contracted);
        h.write_word(n.attrs.param);
        let preds = g.preds(n.id);
        h.write_word(preds.len() as u64);
        for &p in preds {
            h.write_word(p.0 as u64);
        }
    }
    assert_eq!(h.finish(), g.structural_hash());
}
