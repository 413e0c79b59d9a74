//! Graph-level passes: semantic shape rules, flow analysis (dead nodes),
//! dtype propagation, and constant-foldable subgraph detection.

use predtop_ir::op::ComputeClass;
use predtop_ir::reach::Reachability;
use predtop_ir::verify::{verify, SemanticRule};
use predtop_ir::{DType, Graph, NodeKind, OpKind};

use crate::diag::{Diagnostic, Severity, Span};
use crate::pass::GraphPass;

/// `semantics` — the `ir::verify` shape rules, one diagnostic per
/// violation, codes `P0101`–`P0113`.
pub struct SemanticsPass;

/// Stable code for one [`SemanticRule`] (the `P01xx` block).
pub fn semantic_rule_code(rule: SemanticRule) -> u16 {
    match rule {
        SemanticRule::SourceNoOperands => 101,
        SemanticRule::OutputArity => 102,
        SemanticRule::OutputTypeMirror => 103,
        SemanticRule::MissingOperands => 104,
        SemanticRule::DotContraction => 105,
        SemanticRule::DotArity => 106,
        SemanticRule::ElementwiseOperandShape => 107,
        SemanticRule::MovementElementCount => 108,
        SemanticRule::TransposePermutation => 109,
        SemanticRule::BroadcastEmbedding => 110,
        SemanticRule::ReductionGrowth => 111,
        SemanticRule::SliceGrowth => 112,
        SemanticRule::CumSumShape => 113,
    }
}

fn semantic_rule_suggestion(rule: SemanticRule) -> Option<&'static str> {
    match rule {
        SemanticRule::ElementwiseOperandShape => {
            Some("insert a broadcast_in_dim or fix the emitter's shape arithmetic")
        }
        SemanticRule::DotContraction => Some("set attrs.contracted to the contracted extent"),
        SemanticRule::BroadcastEmbedding => {
            Some("broadcast dims must embed in order into the output dims")
        }
        _ => None,
    }
}

impl GraphPass for SemanticsPass {
    fn name(&self) -> &'static str {
        "semantics"
    }

    fn description(&self) -> &'static str {
        "per-dimension shape rules for every operator (ir::verify)"
    }

    fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        verify(graph)
            .into_iter()
            .map(|v| {
                let d = Diagnostic::new(
                    semantic_rule_code(v.rule),
                    Severity::Error,
                    Span::Node(v.node),
                    v.message,
                );
                match semantic_rule_suggestion(v.rule) {
                    Some(s) => d.with_suggestion(s),
                    None => d,
                }
            })
            .collect()
    }
}

/// `dead-code` — nodes with no path to any graph output, found through
/// `ir::reach`'s ancestor closure. A dead operator (`P0201`, warning)
/// wastes simulated compute and poisons feature statistics; a dead input
/// or literal (`P0202`, info) is usually emitter leftovers.
pub struct DeadCodePass;

impl GraphPass for DeadCodePass {
    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn description(&self) -> &'static str {
        "nodes unreachable from every graph output (ir::reach)"
    }

    fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        if graph.is_empty() {
            return Vec::new();
        }
        let outputs: Vec<_> = graph.outputs().collect();
        if outputs.is_empty() {
            // a graph without outputs is entirely dead; one graph-level
            // finding beats one per node
            return vec![Diagnostic::new(
                201,
                Severity::Warn,
                Span::Graph,
                "graph has no output nodes; every node is dead".to_string(),
            )];
        }
        let reach = Reachability::compute(graph);
        let mut out = Vec::new();
        for node in graph.nodes() {
            if node.kind == NodeKind::Output {
                continue;
            }
            let live = outputs.iter().any(|&o| reach.ancestor(node.id, o));
            if live {
                continue;
            }
            match node.kind {
                NodeKind::Operator(op) => out.push(
                    Diagnostic::new(
                        201,
                        Severity::Warn,
                        Span::Node(node.id),
                        format!("{op} result never reaches an output"),
                    )
                    .with_suggestion("prune the node or wire its value to an output"),
                ),
                NodeKind::Input | NodeKind::Literal => out.push(Diagnostic::new(
                    202,
                    Severity::Info,
                    Span::Node(node.id),
                    "unused source node".to_string(),
                )),
                NodeKind::Output => unreachable!("outputs skipped above"),
            }
        }
        out
    }
}

/// `dtype` — dtype-propagation consistency, codes `P0301`–`P0307`.
///
/// Arithmetic elementwise operators must agree with their operands;
/// `compare` produces `bool`; `select`'s predicate is `bool`; pure data
/// movement preserves dtype; `arg_max` produces an integer. Irregular
/// operators (`gather`, `scatter`, `top_k`, ...) are data-dependent and
/// exempt. A `convert_element_type` that does not change the dtype is
/// reported as an info-level no-op.
pub struct DTypePass;

impl GraphPass for DTypePass {
    fn name(&self) -> &'static str {
        "dtype"
    }

    fn description(&self) -> &'static str {
        "dtype propagation rules per operator class"
    }

    fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        use OpKind::*;
        let mut out = Vec::new();
        for node in graph.nodes() {
            let NodeKind::Operator(op) = node.kind else {
                continue;
            };
            let operands = graph.preds(node.id);
            if operands.is_empty() {
                continue; // arity is the semantics pass's problem
            }
            let in_dtype = |i: usize| graph.node(operands[i]).dtype;
            match op {
                Add | Sub | Mul | Div | Max | Min | Pow | Neg | Exp | Log | Tanh | Erf
                | Logistic | Sqrt | Rsqrt => {
                    for (i, &p) in operands.iter().enumerate() {
                        let pd = graph.node(p).dtype;
                        if pd != node.dtype {
                            out.push(Diagnostic::new(
                                301,
                                Severity::Error,
                                Span::Node(node.id),
                                format!("{op} operand {i} is {pd}, output is {}", node.dtype),
                            ));
                        }
                    }
                }
                Compare => {
                    if node.dtype != DType::Bool {
                        out.push(Diagnostic::new(
                            302,
                            Severity::Error,
                            Span::Node(node.id),
                            format!("compare must produce bool, found {}", node.dtype),
                        ));
                    }
                    for (i, &p) in operands.iter().enumerate().skip(1) {
                        let pd = graph.node(p).dtype;
                        if pd != in_dtype(0) {
                            out.push(Diagnostic::new(
                                302,
                                Severity::Error,
                                Span::Node(node.id),
                                format!(
                                    "compare operand {i} is {pd}, operand 0 is {}",
                                    in_dtype(0)
                                ),
                            ));
                        }
                    }
                }
                Select => {
                    if in_dtype(0) != DType::Bool {
                        out.push(Diagnostic::new(
                            303,
                            Severity::Error,
                            Span::Node(node.id),
                            format!("select predicate is {}, must be bool", in_dtype(0)),
                        ));
                    }
                    for (i, &p) in operands.iter().enumerate().skip(1) {
                        let pd = graph.node(p).dtype;
                        if pd != node.dtype {
                            out.push(Diagnostic::new(
                                301,
                                Severity::Error,
                                Span::Node(node.id),
                                format!("select operand {i} is {pd}, output is {}", node.dtype),
                            ));
                        }
                    }
                }
                Reshape | Transpose | Copy | StopGradient | BroadcastInDim | Slice
                | DynamicSlice | CumSum | ReduceSum | ReduceMax
                    if in_dtype(0) != node.dtype =>
                {
                    out.push(Diagnostic::new(
                        304,
                        Severity::Error,
                        Span::Node(node.id),
                        format!(
                            "{op} changes dtype {} -> {} (use convert_element_type)",
                            in_dtype(0),
                            node.dtype
                        ),
                    ));
                }
                ArgMax if node.dtype.is_float() => {
                    out.push(Diagnostic::new(
                        305,
                        Severity::Error,
                        Span::Node(node.id),
                        format!(
                            "arg_max must produce an integer index, found {}",
                            node.dtype
                        ),
                    ));
                }
                ConvertElementType if in_dtype(0) == node.dtype => {
                    out.push(Diagnostic::new(
                        306,
                        Severity::Info,
                        Span::Node(node.id),
                        format!("convert_element_type to the same dtype {}", node.dtype),
                    ));
                }
                DotGeneral => {
                    for (i, &p) in operands.iter().enumerate() {
                        let pd = graph.node(p).dtype;
                        if pd != node.dtype {
                            out.push(Diagnostic::new(
                                307,
                                Severity::Warn,
                                Span::Node(node.id),
                                format!(
                                    "dot_general operand {i} is {pd}, output is {} \
                                     (mixed-precision accumulate?)",
                                    node.dtype
                                ),
                            ));
                        }
                    }
                }
                // gather/scatter/top_k/one_hot/concat/pad/...: dtype
                // depends on attributes we do not model
                _ => {}
            }
        }
        out
    }
}

/// `const-fold` — maximal literal-only subgraphs that could be folded at
/// build time (`P0203`, info). Only subgraphs that contain at least one
/// *compute* operator (contraction, elementwise, reduction) are
/// reported: a literal feeding a lone broadcast is the emitters' scalar
/// idiom, not a missed optimization.
pub struct ConstFoldPass;

impl GraphPass for ConstFoldPass {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn description(&self) -> &'static str {
        "literal-only subgraphs evaluable at build time"
    }

    fn run(&self, graph: &Graph) -> Vec<Diagnostic> {
        let n = graph.len();
        let mut foldable = vec![false; n];
        let mut has_compute = vec![false; n];
        for node in graph.nodes() {
            let i = node.id.index();
            match node.kind {
                NodeKind::Literal => foldable[i] = true,
                NodeKind::Operator(op) => {
                    if matches!(op, OpKind::RngUniform | OpKind::RngBitGenerator) {
                        continue; // random data is not a constant
                    }
                    let operands = graph.preds(node.id);
                    if operands.is_empty() {
                        // iota: deterministic source, foldable on its own
                        foldable[i] = op == OpKind::Iota;
                        continue;
                    }
                    foldable[i] = operands.iter().all(|p| foldable[p.index()]);
                    if foldable[i] {
                        let own_compute = matches!(
                            op.compute_class(),
                            ComputeClass::Contraction
                                | ComputeClass::Elementwise
                                | ComputeClass::Reduction
                        );
                        has_compute[i] =
                            own_compute || operands.iter().any(|p| has_compute[p.index()]);
                    }
                }
                NodeKind::Input | NodeKind::Output => {}
            }
        }
        let mut out = Vec::new();
        for node in graph.nodes() {
            let i = node.id.index();
            if !foldable[i] || !has_compute[i] {
                continue;
            }
            // report maximal foldable nodes only: every successor either
            // leaves the foldable region or is an output
            let maximal = graph
                .succs(node.id)
                .iter()
                .all(|s| !foldable[s.index()] || graph.node(*s).kind == NodeKind::Output);
            if maximal {
                let op = match node.kind {
                    NodeKind::Operator(op) => op,
                    _ => continue,
                };
                out.push(
                    Diagnostic::new(
                        203,
                        Severity::Info,
                        Span::Node(node.id),
                        format!(
                            "{op} depends only on literals; its value is a compile-time constant"
                        ),
                    )
                    .with_suggestion("fold the subgraph into a single literal"),
                );
            }
        }
        out
    }
}
