//! Semantic lint over operator graphs — the rule engine behind
//! `predtop-analyze`'s semantics pass.
//!
//! The graph builder guarantees structural well-formedness (acyclic,
//! dense topological ids); this module checks the *semantic* conventions
//! the emitters and the cost model rely on:
//!
//! * elementwise ops preserve shape **per dimension** (and their
//!   operands match it exactly),
//! * `reshape`, `convert`, `copy`, `stop_gradient` preserve element
//!   counts; `transpose` outputs a permutation of its input's dims,
//! * `broadcast_in_dim` admits an order-preserving embedding of its
//!   input dims into the output dims (each input extent divides the
//!   output extent it maps to),
//! * contractions declare a positive contracted size and have ≥ 2
//!   operands,
//! * reductions do not grow element counts; `slice` shrinks or keeps
//!   every dimension,
//! * `output` nodes mirror their producer's type exactly.
//!
//! Emitter regressions (a wrong shape on one of GPT's ~60 ops per layer)
//! are invisible to the builder but poison both the simulator's costs
//! and the predictor's features — the benchmark-model tests run this
//! lint over every emitted stage graph.
//!
//! Every [`Violation`] carries the [`SemanticRule`] it breaks so that
//! higher layers (the `predtop-analyze` diagnostics framework) can map
//! rules onto stable diagnostic codes without parsing messages. This
//! module stays dependency-free; `predtop-analyze` wraps it.

use crate::graph::{Graph, NodeId, NodeKind};
use crate::op::OpKind;
use crate::shape::Shape;

/// The semantic rule a [`Violation`] breaks. Stable identifiers for the
/// diagnostics layer; the `verify` messages are for humans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticRule {
    /// Inputs and literals take no operands.
    SourceNoOperands,
    /// Output nodes have exactly one operand.
    OutputArity,
    /// Output nodes mirror their producer's shape and dtype.
    OutputTypeMirror,
    /// Operators (other than RNG sources) have at least one operand.
    MissingOperands,
    /// `dot_general` declares a positive contracted size.
    DotContraction,
    /// `dot_general` has at least two operands.
    DotArity,
    /// Elementwise operands carry exactly the output's shape.
    ElementwiseOperandShape,
    /// `reshape`/`convert`/`copy`/`stop_gradient` preserve element count.
    MovementElementCount,
    /// `transpose` outputs a permutation of the input dims.
    TransposePermutation,
    /// `broadcast_in_dim` embeds the input dims into the output dims.
    BroadcastEmbedding,
    /// Reductions do not grow the element count.
    ReductionGrowth,
    /// `slice`/`dynamic_slice` do not grow any dimension.
    SliceGrowth,
    /// `cumsum` preserves the shape.
    CumSumShape,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Node that breaks the rule.
    pub node: NodeId,
    /// The rule broken (stable identifier for the diagnostics layer).
    pub rule: SemanticRule,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {}: {}", self.node.0, self.message)
    }
}

/// Can `input` broadcast into `out`? True iff there is an
/// order-preserving injective mapping of the input's non-unit dims onto
/// output dims such that each input extent divides the extent it maps
/// to. This admits every emitter idiom — trailing-dim bias broadcasts,
/// leading-dim row broadcasts, rank-raising mask broadcasts, and
/// batch-folding broadcasts like `[seq,hidden] -> [batch*seq,hidden]` —
/// while rejecting transposed or shrunk embeddings the old
/// element-count-multiple heuristic let through.
pub fn broadcast_embeds(input: &Shape, out: &Shape) -> bool {
    // Greedy earliest-match is complete for subsequence embedding with a
    // per-pair predicate: matching the earliest feasible output dim
    // leaves the maximal suffix for the remaining input dims.
    let mut j = 0usize;
    for &d in input.dims() {
        if d == 1 {
            continue;
        }
        loop {
            if j == out.rank() {
                return false;
            }
            let od = out.dims()[j];
            j += 1;
            if d != 0 && od.is_multiple_of(d) {
                break;
            }
        }
    }
    true
}

/// Run all semantic checks; an empty vec means the graph is clean.
///
/// This is the compatibility entry point kept from the original lint:
/// existing callers get the same `Vec<Violation>` surface, while the
/// structured [`SemanticRule`] on each violation feeds the
/// `predtop-analyze` pass framework.
pub fn verify(g: &Graph) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut complain = |node: NodeId, rule: SemanticRule, message: String| {
        out.push(Violation {
            node,
            rule,
            message,
        })
    };

    for node in g.nodes() {
        let id = node.id;
        let operands = g.preds(id);
        match node.kind {
            NodeKind::Input | NodeKind::Literal => {
                if !operands.is_empty() {
                    complain(
                        id,
                        SemanticRule::SourceNoOperands,
                        "source node has operands".into(),
                    );
                }
            }
            NodeKind::Output => {
                if operands.len() != 1 {
                    complain(
                        id,
                        SemanticRule::OutputArity,
                        format!("output node has {} operands", operands.len()),
                    );
                    continue;
                }
                let src = g.node(operands[0]);
                if src.shape != node.shape || src.dtype != node.dtype {
                    complain(
                        id,
                        SemanticRule::OutputTypeMirror,
                        format!(
                            "output type {}{} differs from producer {}{}",
                            node.dtype, node.shape, src.dtype, src.shape
                        ),
                    );
                }
            }
            NodeKind::Operator(op) => {
                verify_operator(g, node, op, &mut complain);
            }
        }
    }
    out
}

fn verify_operator(
    g: &Graph,
    node: &crate::graph::Node,
    op: OpKind,
    complain: &mut impl FnMut(NodeId, SemanticRule, String),
) {
    use OpKind::*;
    let id = node.id;
    let operands = g.preds(id);
    let elems = node.shape.num_elements();
    let in_shape = |i: usize| &g.node(operands[i]).shape;
    let in_elems = |i: usize| g.node(operands[i]).shape.num_elements();

    if operands.is_empty() && !matches!(op, Iota | RngUniform | RngBitGenerator) {
        complain(
            id,
            SemanticRule::MissingOperands,
            format!("{op} has no operands"),
        );
        return;
    }

    match op {
        DotGeneral => {
            if node.attrs.contracted == 0 {
                complain(
                    id,
                    SemanticRule::DotContraction,
                    "dot_general without contracted size".into(),
                );
            }
            if operands.len() < 2 {
                complain(
                    id,
                    SemanticRule::DotArity,
                    "dot_general needs two operands".into(),
                );
            }
        }
        // shape-preserving elementwise: every operand must carry exactly
        // the output's shape, dimension by dimension (an equal element
        // count with permuted dims is a layout bug the old heuristic
        // could not see)
        Add | Sub | Mul | Div | Max | Min | Pow | Compare | Select | Neg | Exp | Log | Tanh
        | Erf | Logistic | Sqrt | Rsqrt => {
            for (i, &p) in operands.iter().enumerate() {
                let ps = &g.node(p).shape;
                if *ps != node.shape {
                    complain(
                        id,
                        SemanticRule::ElementwiseOperandShape,
                        format!(
                            "{op} operand {i} has shape {ps} ({} elements), output is {} ({elems})",
                            ps.num_elements(),
                            node.shape
                        ),
                    );
                }
            }
        }
        Reshape | ConvertElementType | Copy | StopGradient if in_elems(0) != elems => {
            complain(
                id,
                SemanticRule::MovementElementCount,
                format!("{op} changes element count {} -> {elems}", in_elems(0)),
            );
        }
        Transpose => {
            // A transpose's output dims are a permutation of the input's.
            // Pruning elides reshapes and rewires their consumers, so a
            // pruned graph's transpose can legitimately see an input of a
            // different rank — across ranks only the element count must
            // hold (the elided reshape's contract).
            if in_shape(0).rank() == node.shape.rank() {
                let mut a: Vec<u32> = in_shape(0).dims().to_vec();
                let mut b: Vec<u32> = node.shape.dims().to_vec();
                a.sort_unstable();
                b.sort_unstable();
                if a != b {
                    complain(
                        id,
                        SemanticRule::TransposePermutation,
                        format!(
                            "transpose output {} is not a permutation of input {}",
                            node.shape,
                            in_shape(0)
                        ),
                    );
                }
            } else if in_elems(0) != elems {
                complain(
                    id,
                    SemanticRule::TransposePermutation,
                    format!("transpose changes element count {} -> {elems}", in_elems(0)),
                );
            }
        }
        BroadcastInDim => {
            if !elems.is_multiple_of(in_elems(0)) {
                complain(
                    id,
                    SemanticRule::BroadcastEmbedding,
                    format!(
                        "broadcast output {elems} not a multiple of input {}",
                        in_elems(0)
                    ),
                );
            } else if !broadcast_embeds(in_shape(0), &node.shape) {
                complain(
                    id,
                    SemanticRule::BroadcastEmbedding,
                    format!(
                        "broadcast input {} does not embed into output {} \
                         (no order-preserving dim mapping)",
                        in_shape(0),
                        node.shape
                    ),
                );
            }
        }
        ReduceSum | ReduceMax | ArgMax if elems > in_elems(0) => {
            complain(
                id,
                SemanticRule::ReductionGrowth,
                format!("{op} grows elements {} -> {elems}", in_elems(0)),
            );
        }
        Slice | DynamicSlice => {
            let grows_count = elems > in_elems(0);
            let grows_dim = in_shape(0).rank() == node.shape.rank()
                && node
                    .shape
                    .dims()
                    .iter()
                    .zip(in_shape(0).dims())
                    .any(|(o, i)| o > i);
            if grows_count || grows_dim {
                complain(
                    id,
                    SemanticRule::SliceGrowth,
                    format!("{op} grows its input {} -> {}", in_shape(0), node.shape),
                );
            }
        }
        CumSum if *in_shape(0) != node.shape => {
            complain(
                id,
                SemanticRule::CumSumShape,
                "cumsum must preserve shape".into(),
            );
        }
        // irregular / rng / concat / pad / scatter / gather / one-hot /
        // top-k: output shapes are data- or attribute-dependent, so no
        // portable shape rule applies
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::graph::GraphBuilder;

    #[test]
    fn clean_graph_has_no_violations() {
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8], DType::F32);
        let w = b.input([8, 2], DType::F32);
        let y = b.dot(x, w, [4, 2], DType::F32, 8);
        let z = b.unary(OpKind::Tanh, y);
        let g = b.finish(&[z]).unwrap();
        assert_eq!(verify(&g), vec![]);
    }

    #[test]
    fn elementwise_shape_mismatch_flagged() {
        let mut b = GraphBuilder::new();
        let x = b.input([4], DType::F32);
        let y = b.input([8], DType::F32);
        // deliberately wrong: add of mismatched shapes
        let bad = b.op(OpKind::Add, &[x, y], [4], DType::F32);
        let g = b.finish(&[bad]).unwrap();
        let v = verify(&g);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("operand 1"), "{}", v[0]);
        assert_eq!(v[0].rule, SemanticRule::ElementwiseOperandShape);
    }

    #[test]
    fn elementwise_permuted_dims_flagged() {
        // same element count, permuted dims: invisible to the old
        // element-count rule, caught by the per-dimension check
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8], DType::F32);
        let y = b.input([8, 4], DType::F32);
        let bad = b.op(OpKind::Add, &[x, y], [4, 8], DType::F32);
        let g = b.finish(&[bad]).unwrap();
        let v = verify(&g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, SemanticRule::ElementwiseOperandShape);
        assert!(v[0].message.contains("operand 1"), "{}", v[0]);
    }

    #[test]
    fn reshape_element_change_flagged() {
        let mut b = GraphBuilder::new();
        let x = b.input([4, 4], DType::F32);
        let bad = b.op(OpKind::Reshape, &[x], [5], DType::F32);
        let g = b.finish(&[bad]).unwrap();
        let v = verify(&g);
        assert!(v
            .iter()
            .any(|v| v.message.contains("changes element count")));
    }

    #[test]
    fn transpose_must_permute_dims() {
        // [4,8] -> [2,16] preserves the count but is not a permutation
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8], DType::F32);
        let bad = b.op(OpKind::Transpose, &[x], [2, 16], DType::F32);
        let g = b.finish(&[bad]).unwrap();
        let v = verify(&g);
        assert!(
            v.iter()
                .any(|v| v.rule == SemanticRule::TransposePermutation),
            "{v:?}"
        );

        // a true permutation is clean
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8], DType::F32);
        let ok = b.op(OpKind::Transpose, &[x], [8, 4], DType::F32);
        let g = b.finish(&[ok]).unwrap();
        assert_eq!(verify(&g), vec![]);
    }

    #[test]
    fn dot_without_contraction_flagged() {
        let mut b = GraphBuilder::new();
        let x = b.input([2, 2], DType::F32);
        let y = b.input([2, 2], DType::F32);
        let bad = b.op(OpKind::DotGeneral, &[x, y], [2, 2], DType::F32);
        let g = b.finish(&[bad]).unwrap();
        assert!(verify(&g)
            .iter()
            .any(|v| v.message.contains("without contracted size")));
    }

    #[test]
    fn broadcast_multiple_rule() {
        let mut b = GraphBuilder::new();
        let x = b.input([3], DType::F32);
        let bad = b.op(OpKind::BroadcastInDim, &[x], [4], DType::F32);
        let used = b.unary(OpKind::Exp, bad);
        let g = b.finish(&[used]).unwrap();
        assert!(verify(&g)
            .iter()
            .any(|v| v.message.contains("not a multiple")));
    }

    #[test]
    fn broadcast_embedding_accepts_emitter_idioms() {
        for (input, out) in [
            // bias: trailing-dim broadcast
            (Shape::from([32]), Shape::from([128, 32])),
            // row stats: leading-dim broadcast
            (Shape::from([128]), Shape::from([128, 32])),
            // mask: rank-raising broadcast
            (Shape::from([16, 16]), Shape::from([2, 4, 16, 16])),
            // positional embedding: batch-folding broadcast
            (Shape::from([64, 32]), Shape::from([128, 32])),
            // gate: appended expert axis
            (Shape::from([128, 2]), Shape::from([128, 2, 16])),
        ] {
            assert!(
                broadcast_embeds(&input, &out),
                "{input} should embed into {out}"
            );
        }
    }

    #[test]
    fn broadcast_embedding_rejects_transposed_embedding() {
        // [8,3] -> [3,8] has a multiple element count (24 | 24) but no
        // order-preserving dim mapping — the old heuristic missed this
        let mut b = GraphBuilder::new();
        let x = b.input([8, 3], DType::F32);
        let bad = b.op(OpKind::BroadcastInDim, &[x], [3, 8], DType::F32);
        let used = b.unary(OpKind::Exp, bad);
        let g = b.finish(&[used]).unwrap();
        let v = verify(&g);
        assert!(
            v.iter().any(|v| v.rule == SemanticRule::BroadcastEmbedding
                && v.message.contains("does not embed")),
            "{v:?}"
        );
    }

    #[test]
    fn slice_growing_a_dim_flagged() {
        // count shrinks but one dimension grows: a real slice cannot do
        // this
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8], DType::F32);
        let bad = b.op(OpKind::Slice, &[x], [8, 1], DType::F32);
        let g = b.finish(&[bad]).unwrap();
        let v = verify(&g);
        assert!(
            v.iter().any(|v| v.rule == SemanticRule::SliceGrowth),
            "{v:?}"
        );
    }
}
