//! Human-readable renderings of operator graphs: a jaxpr-style text
//! listing (the notation of Fig. 5, e.g. `int32[n]` for an
//! `n`-element tensor) and Graphviz DOT export for visual inspection.

use std::fmt::Write as _;

use crate::graph::{Graph, NodeKind};

/// Render `g` as a jaxpr-like listing, one value binding per line:
///
/// ```text
/// %3: bf16[256,128] = dot_general(%0, %1)
/// ```
pub fn to_jaxpr_text(g: &Graph) -> String {
    let mut out = String::new();
    for node in g.nodes() {
        let _ = write!(out, "%{}: {}{} = ", node.id.0, node.dtype, node.shape);
        match node.kind {
            NodeKind::Input => out.push_str("input()"),
            NodeKind::Literal => out.push_str("literal()"),
            NodeKind::Output => {
                let _ = write!(out, "output(%{})", g.preds(node.id)[0].0);
            }
            NodeKind::Operator(op) => {
                let args: Vec<String> = g
                    .preds(node.id)
                    .iter()
                    .map(|p| format!("%{}", p.0))
                    .collect();
                let _ = write!(out, "{}({})", op.name(), args.join(", "));
                if node.attrs.contracted > 0 {
                    let _ = write!(out, " {{contract={}}}", node.attrs.contracted);
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Render `g` as a Graphviz `digraph` (nodes labelled with op, dtype and
/// shape; inputs/literals/outputs colour-coded).
pub fn to_dot(g: &Graph) -> String {
    let mut out =
        String::from("digraph stage {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    for node in g.nodes() {
        let (label, color) = match node.kind {
            NodeKind::Input => ("input".to_string(), "lightblue"),
            NodeKind::Literal => ("literal".to_string(), "lightgrey"),
            NodeKind::Output => ("output".to_string(), "lightgreen"),
            NodeKind::Operator(op) => (op.name().to_string(), "white"),
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\n{}{}\", style=filled, fillcolor={}];",
            node.id.0, label, node.dtype, node.shape, color
        );
    }
    for (s, d) in g.edges() {
        let _ = writeln!(out, "  n{} -> n{};", s.0, d.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::graph::GraphBuilder;
    use crate::op::OpKind;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input([8, 16], DType::I32);
        let conv = b.op(OpKind::ConvertElementType, &[x], [8, 16], DType::F32);
        let w = b.input([16, 4], DType::F32);
        let y = b.dot(conv, w, [8, 4], DType::F32, 16);
        b.finish(&[y]).unwrap()
    }

    #[test]
    fn jaxpr_text_lists_every_node() {
        let g = sample();
        let text = to_jaxpr_text(&g);
        assert_eq!(text.lines().count(), g.len());
        assert!(text.contains("%0: i32[8,16] = input()"));
        assert!(text.contains("convert_element_type(%0)"));
        assert!(text.contains("dot_general(%1, %2) {contract=16}"));
        assert!(text.contains("= output(%3)"));
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = sample();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph stage {"));
        for node in g.nodes() {
            assert!(dot.contains(&format!("n{} [", node.id.0)));
        }
        assert_eq!(
            dot.matches(" -> ").count(),
            g.num_edges(),
            "every edge rendered once"
        );
        assert!(dot.contains("fillcolor=lightblue"));
        assert!(dot.contains("fillcolor=lightgreen"));
    }
}
