//! The operator DAG: nodes, edges, builder, and structural queries.
//!
//! Invariants maintained by every `Graph` in this crate:
//!
//! 1. **Topological ids** — node ids are dense `0..n` and every edge goes
//!    from a lower id to a higher id. Construction through
//!    [`GraphBuilder`] enforces this (an operand must already exist), and
//!    transforms like pruning preserve it.
//! 2. **Acyclicity** — immediate from (1).
//! 3. **Typed values** — every node carries the shape and dtype of its
//!    output tensor; Table I node features are derivable from a node alone
//!    plus its kind.
//!
//! Edges live in two flat arrays with per-node offsets, not in the
//! nodes: the operands in operand order, and the successors ascending
//! by consumer id with one entry per operand slot. A node owns no heap
//! memory, so building a graph is a handful of vector pushes and
//! dropping one is a few frees, whichever thread built it.

use crate::dtype::DType;
use crate::error::IrError;
use crate::op::OpKind;
use crate::shape::Shape;

/// Dense index of a node within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The four node categories of Table I ("Node Type" one-hot): graph
/// inputs, literals (compile-time constants), tensor operators, and graph
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A stage input (activation arriving from the previous stage, a
    /// parameter, or a data batch).
    Input,
    /// A literal constant embedded in the program.
    Literal,
    /// A tensor operator.
    Operator(OpKind),
    /// A stage output (activation leaving to the next stage or a loss /
    /// gradient value).
    Output,
}

/// Number of node-kind categories (width of the node-type one-hot block).
pub const NUM_NODE_KINDS: usize = 4;

impl NodeKind {
    /// Stable index inside the node-type one-hot block.
    #[inline]
    pub fn one_hot_index(self) -> usize {
        match self {
            NodeKind::Input => 0,
            NodeKind::Literal => 1,
            NodeKind::Operator(_) => 2,
            NodeKind::Output => 3,
        }
    }

    /// The operator kind, if this node is an operator.
    #[inline]
    pub fn op(self) -> Option<OpKind> {
        match self {
            NodeKind::Operator(k) => Some(k),
            _ => None,
        }
    }
}

/// Auxiliary operator attributes consumed by the cost model.
///
/// These are *not* part of the predictor's feature vector (Table I lists
/// only op type, output dims, dtype, and node type) — they exist so the
/// ground-truth simulator can compute FLOPs exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attrs {
    /// For `dot_general`: product of the contracted dimension sizes
    /// (the `k` in an `m×k · k×n` matmul). Zero for other ops.
    pub contracted: u64,
    /// Generic small integer parameter: reduce/concat axis, `top_k`'s k,
    /// pad amount, ... Purely informational.
    pub param: u64,
}

/// One node of the operator DAG. Its operands are [`Graph::preds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// This node's id (equal to its index in [`Graph::nodes`]).
    pub id: NodeId,
    /// Node category (input / literal / operator / output).
    pub kind: NodeKind,
    /// Element type of the output tensor.
    pub dtype: DType,
    /// Shape of the output tensor.
    pub shape: Shape,
    /// Cost-model attributes.
    pub attrs: Attrs,
}

impl Node {
    /// Output tensor size in bytes.
    #[inline]
    pub fn output_bytes(&self) -> u64 {
        self.shape.size_bytes(self.dtype)
    }
}

/// An immutable operator DAG with precomputed successor lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Node `i`'s operands are `operands[operand_start[i]..operand_start[i + 1]]`.
    operand_start: Vec<u32>,
    operands: Vec<NodeId>,
    /// Node `i`'s consumers are `succs[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succs: Vec<NodeId>,
}

/// Row `i` of a flat offset-indexed adjacency array.
#[inline]
fn row<'a>(start: &[u32], flat: &'a [NodeId], i: usize) -> &'a [NodeId] {
    &flat[start[i] as usize..start[i + 1] as usize]
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.operands.len()
    }

    /// All nodes in topological (= id) order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Predecessors (operands) of `id`, in operand order; an operand
    /// read twice appears twice.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        row(&self.operand_start, &self.operands, id.index())
    }

    /// Successors (consumers) of `id`, ascending, one entry per operand
    /// slot that reads `id`.
    #[inline]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        row(&self.succ_start, &self.succs, id.index())
    }

    /// Ids of all nodes with no predecessors (inputs and literals).
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| self.preds(n.id).is_empty())
            .map(|n| n.id)
    }

    /// Ids of all `Output` nodes.
    pub fn outputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Output)
            .map(|n| n.id)
    }

    /// Iterate over all edges as `(src, dst)` pairs, by consumer, then
    /// in operand order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes
            .iter()
            .flat_map(|n| self.preds(n.id).iter().map(move |&p| (p, n.id)))
    }

    /// Count of operator nodes of a given kind (diagnostics / tests).
    pub fn count_ops(&self, kind: OpKind) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Operator(kind))
            .count()
    }

    /// Total parameter-free FLOP count of the graph as seen by the cost
    /// model: `2 * contracted * output_elements` for contractions, one op
    /// per output element for other float compute.
    ///
    /// This is a *structural* quantity used for sanity checks and workload
    /// scaling; the simulator applies efficiency curves on top.
    pub fn total_flops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.kind {
                NodeKind::Operator(OpKind::DotGeneral) => {
                    2 * n.attrs.contracted * n.shape.num_elements()
                }
                NodeKind::Operator(k)
                    if matches!(
                        k.compute_class(),
                        crate::op::ComputeClass::Elementwise | crate::op::ComputeClass::Reduction
                    ) =>
                {
                    n.shape.num_elements()
                }
                _ => 0,
            })
            .sum()
    }

    /// Content hash over the graph's structure and types: two graphs
    /// with identical node kinds, dtypes, shapes, attributes, and edge
    /// lists (in id order) hash equal. Interior transformer stages of
    /// the same layer count are isomorphic by construction, so profilers
    /// can use this to recognize already-measured programs (real Alpa
    /// deduplicates compiled stages the same way).
    pub fn structural_hash(&self) -> u64 {
        // FNV-1a over a canonical byte walk; stable across runs (no
        // RandomState). The hasher — including its historical truncated
        // prime — lives in predtop-store so on-disk structural keys and
        // this method can never drift apart; the exact digest is pinned
        // by tests/hash_pins.rs.
        let mut h =
            predtop_store::hash::Fnv1a64::with_prime(predtop_store::hash::FNV64_PRIME_SHORT);
        let mut eat = |v: u64| h.write_word(v);
        for n in &self.nodes {
            let kind_tag = match n.kind {
                NodeKind::Input => 1u64,
                NodeKind::Literal => 2,
                NodeKind::Output => 3,
                NodeKind::Operator(op) => 16 + op.one_hot_index() as u64,
            };
            eat(kind_tag);
            eat(n.dtype.one_hot_index() as u64);
            eat(n.shape.rank() as u64);
            for &d in n.shape.dims() {
                eat(d as u64);
            }
            eat(n.attrs.contracted);
            eat(n.attrs.param);
            let preds = self.preds(n.id);
            eat(preds.len() as u64);
            for &p in preds {
                eat(p.0 as u64);
            }
        }
        h.finish()
    }

    /// Validate the structural invariants (edge direction, dense ids,
    /// successor-list consistency). Cheap; used by tests and after
    /// transforms in debug builds.
    pub fn validate(&self) -> Result<(), IrError> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(IrError::UnknownNode(n.id));
            }
            for &p in self.preds(n.id) {
                if p.index() >= i {
                    return Err(IrError::UnknownNode(p));
                }
            }
        }
        debug_assert_eq!(self.succs.len(), self.operands.len());
        Ok(())
    }

    /// Assemble a graph from its nodes and flat operand array, building
    /// the successor array with one counting pass.
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        operand_start: Vec<u32>,
        operands: Vec<NodeId>,
    ) -> Graph {
        let n = nodes.len();
        debug_assert_eq!(operand_start.len(), n + 1);
        // count each node's consumers, then turn the counts into run
        // ends; filling every run back to front (consumers descending)
        // leaves each start in place and each run ascending
        let mut succ_start = vec![0u32; n + 1];
        for p in &operands {
            succ_start[p.index()] += 1;
        }
        let mut end = 0;
        for s in &mut succ_start {
            end += *s;
            *s = end;
        }
        let mut succs = vec![NodeId(0); operands.len()];
        for c in (0..n).rev() {
            for &p in row(&operand_start, &operands, c) {
                let slot = &mut succ_start[p.index()];
                *slot -= 1;
                succs[*slot as usize] = NodeId(c as u32);
            }
        }
        Graph {
            nodes,
            operand_start,
            operands,
            succ_start,
            succs,
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// Every `add_*` method returns the new node's [`NodeId`]; operands must
/// be ids previously returned by this builder, which makes cycles
/// unrepresentable.
#[derive(Debug)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    /// As [`Graph`]'s: one offset per node plus the end.
    operand_start: Vec<u32>,
    operands: Vec<NodeId>,
}

impl Default for GraphBuilder {
    fn default() -> GraphBuilder {
        GraphBuilder {
            nodes: Vec::new(),
            operand_start: vec![0],
            operands: Vec::new(),
        }
    }
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(
        &mut self,
        kind: NodeKind,
        dtype: DType,
        shape: Shape,
        inputs: &[NodeId],
        attrs: Attrs,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for &p in inputs {
            assert!(
                p.index() < self.nodes.len(),
                "operand {p:?} does not exist yet (acyclicity violation)"
            );
        }
        self.nodes.push(Node {
            id,
            kind,
            dtype,
            shape,
            attrs,
        });
        self.operands.extend_from_slice(inputs);
        let end = u32::try_from(self.operands.len()).expect("more than u32::MAX edges");
        self.operand_start.push(end);
        id
    }

    /// Add a graph input of the given type.
    pub fn input(&mut self, shape: impl Into<Shape>, dtype: DType) -> NodeId {
        self.push(NodeKind::Input, dtype, shape.into(), &[], Attrs::default())
    }

    /// Add a literal constant of the given type.
    pub fn literal(&mut self, shape: impl Into<Shape>, dtype: DType) -> NodeId {
        self.push(
            NodeKind::Literal,
            dtype,
            shape.into(),
            &[],
            Attrs::default(),
        )
    }

    /// Add a generic operator node.
    pub fn op(
        &mut self,
        kind: OpKind,
        inputs: &[NodeId],
        shape: impl Into<Shape>,
        dtype: DType,
    ) -> NodeId {
        self.op_with(kind, inputs, shape, dtype, Attrs::default())
    }

    /// Add an operator node with explicit cost-model attributes.
    pub fn op_with(
        &mut self,
        kind: OpKind,
        inputs: &[NodeId],
        shape: impl Into<Shape>,
        dtype: DType,
        attrs: Attrs,
    ) -> NodeId {
        self.push(NodeKind::Operator(kind), dtype, shape.into(), inputs, attrs)
    }

    /// Convenience: a `dot_general` with contracted-dimension size `k`.
    ///
    /// `shape` is the output shape; FLOPs are `2 * k * |shape|`.
    pub fn dot(
        &mut self,
        lhs: NodeId,
        rhs: NodeId,
        shape: impl Into<Shape>,
        dtype: DType,
        contracted: u64,
    ) -> NodeId {
        assert!(contracted > 0, "dot_general must contract a non-empty axis");
        self.op_with(
            OpKind::DotGeneral,
            &[lhs, rhs],
            shape,
            dtype,
            Attrs {
                contracted,
                param: 0,
            },
        )
    }

    /// Convenience: an elementwise unary op preserving shape and dtype.
    pub fn unary(&mut self, kind: OpKind, x: NodeId) -> NodeId {
        let (shape, dtype) = {
            let n = &self.nodes[x.index()];
            (n.shape, n.dtype)
        };
        self.op(kind, &[x], shape, dtype)
    }

    /// Convenience: an elementwise binary op taking lhs's shape and dtype.
    pub fn binary(&mut self, kind: OpKind, lhs: NodeId, rhs: NodeId) -> NodeId {
        let (shape, dtype) = {
            let n = &self.nodes[lhs.index()];
            (n.shape, n.dtype)
        };
        self.op(kind, &[lhs, rhs], shape, dtype)
    }

    /// Mark `values` as graph outputs and finish. Each output gets its own
    /// `Output` node mirroring the value's shape and dtype (Table I's
    /// fourth node type).
    pub fn finish(mut self, values: &[NodeId]) -> Result<Graph, IrError> {
        if values.is_empty() {
            return Err(IrError::NoOutputs);
        }
        for &v in values {
            if v.index() >= self.nodes.len() {
                return Err(IrError::UnknownNode(v));
            }
            let (shape, dtype) = {
                let n = &self.nodes[v.index()];
                (n.shape, n.dtype)
            };
            self.push(NodeKind::Output, dtype, shape, &[v], Attrs::default());
        }
        let g = Graph::from_parts(self.nodes, self.operand_start, self.operands);
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// y = relu(x · w + b), the smallest realistic stage-like graph.
    fn tiny_mlp() -> Graph {
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
    fn builder_produces_valid_graph() {
        let g = tiny_mlp();
        g.validate().unwrap();
        assert_eq!(g.len(), 10); // 9 values + 1 output node
        assert_eq!(g.outputs().count(), 1);
        assert_eq!(g.roots().count(), 4); // x, w, bias, zero
    }

    #[test]
    fn edges_go_forward() {
        let g = tiny_mlp();
        for (s, d) in g.edges() {
            assert!(s < d, "edge {s:?}->{d:?} violates topological ids");
        }
    }

    #[test]
    fn dot_flops_counted() {
        let g = tiny_mlp();
        // dot: 2 * 16 * (8*32) = 8192 plus 2 elementwise ops (add, max) and
        // 2 broadcasts (data movement, zero flops)
        assert_eq!(g.total_flops(), 8192 + 2 * 8 * 32);
    }

    #[test]
    fn finish_without_outputs_errors() {
        let b = GraphBuilder::new();
        assert_eq!(b.finish(&[]).unwrap_err(), IrError::NoOutputs);
    }

    #[test]
    fn finish_with_unknown_value_errors() {
        let mut b = GraphBuilder::new();
        let _ = b.input([2], DType::F32);
        let err = b.finish(&[NodeId(99)]).unwrap_err();
        assert_eq!(err, IrError::UnknownNode(NodeId(99)));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut b = GraphBuilder::new();
        let x = b.input([2], DType::F32);
        // NodeId(5) hasn't been created
        let _ = b.op(OpKind::Add, &[x, NodeId(5)], [2], DType::F32);
    }

    /// Random DAG generation for property tests: each node picks one to
    /// three operands among earlier nodes, which is exactly what the
    /// builder enforces, and a third of the operators read one operand
    /// twice. Returns the graph and the operand list each node was built
    /// with.
    fn arb_graph() -> impl Strategy<Value = (Graph, Vec<Vec<NodeId>>)> {
        (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let first = b.input([4, 4], DType::F32);
            let mut ids = vec![first];
            let mut operands = vec![Vec::new()];
            for _ in 1..n {
                let args: Vec<NodeId> = if rng.gen_bool(0.15) {
                    Vec::new()
                } else {
                    let mut args: Vec<NodeId> = (0..rng.gen_range(1..=3))
                        .map(|_| ids[rng.gen_range(0..ids.len())])
                        .collect();
                    if rng.gen_bool(1.0 / 3.0) {
                        args.push(args[rng.gen_range(0..args.len())]);
                    }
                    args
                };
                let id = if args.is_empty() {
                    b.input([4, 4], DType::F32)
                } else {
                    b.op(OpKind::Add, &args, [4, 4], DType::F32)
                };
                ids.push(id);
                operands.push(args);
            }
            let last = *ids.last().unwrap();
            operands.push(vec![last]);
            (b.finish(&[last]).unwrap(), operands)
        })
    }

    proptest! {
        #[test]
        fn prop_random_graphs_validate((g, _) in arb_graph()) {
            prop_assert!(g.validate().is_ok());
            for (s, d) in g.edges() {
                prop_assert!(s < d);
            }
        }

        #[test]
        fn prop_edge_count_consistent((g, _) in arb_graph()) {
            prop_assert_eq!(g.edges().count(), g.num_edges());
        }

        /// The flat layout's contract: `preds` is the builder's operand
        /// slice, `succs` lists each consumer once per operand slot in
        /// ascending order, and `edges` runs consumer by consumer in
        /// operand order.
        #[test]
        fn succs_are_inverse_of_preds((g, operands) in arb_graph()) {
            prop_assert_eq!(operands.len(), g.len());
            let mut edges = Vec::new();
            // pushed consumer by consumer, so each list ascends
            let mut consumers = vec![Vec::new(); g.len()];
            for (i, ops) in operands.iter().enumerate() {
                let id = NodeId(i as u32);
                prop_assert_eq!(g.preds(id), &ops[..]);
                for &p in ops {
                    edges.push((p, id));
                    consumers[p.index()].push(id);
                }
            }
            prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges);
            for (i, c) in consumers.iter().enumerate() {
                prop_assert_eq!(g.succs(NodeId(i as u32)), &c[..]);
            }
            let ids = || (0..g.len() as u32).map(NodeId);
            prop_assert_eq!(g.num_edges(), ids().map(|id| g.preds(id).len()).sum::<usize>());
            prop_assert_eq!(g.num_edges(), ids().map(|id| g.succs(id).len()).sum::<usize>());
        }
    }
}
