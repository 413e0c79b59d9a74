//! Diagnostic renderers: rustc-style text and a stable JSON schema.
//!
//! The JSON renderer is hand-rolled rather than derived so the schema is
//! an explicit, stable contract (golden-file tested) and the output is
//! byte-identical regardless of the serialization backend.

use crate::diag::{Diagnostic, FixEdit, Span};

/// Render diagnostics in rustc style, one finding per line plus
/// optional `= help:` / `= fix:` continuations:
///
/// ```text
/// error[P0107]: node 12: add operand 1 has shape [8, 4] ...
///   = help: insert a broadcast_in_dim or fix the emitter's shape arithmetic
/// ```
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}]: {}: {}\n",
            d.severity.label(),
            d.code,
            d.span,
            d.message
        ));
        if let Some(s) = &d.suggestion {
            out.push_str(&format!("  = help: {s}\n"));
        }
        if let Some(f) = &d.fix {
            out.push_str(&format!("  = fix: {}\n", f.description));
        }
    }
    out
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_span(span: Span) -> String {
    match span {
        Span::Graph => r#"{"kind":"graph"}"#.to_string(),
        Span::Node(id) => format!(r#"{{"kind":"node","id":{}}}"#, id.0),
        Span::Stage(i) => format!(r#"{{"kind":"stage","index":{i}}}"#),
        Span::Plan => r#"{"kind":"plan"}"#.to_string(),
    }
}

fn json_edit(edit: FixEdit) -> String {
    match edit {
        FixEdit::SetMicrobatches { value } => {
            format!(r#"{{"kind":"set_microbatches","value":{value}}}"#)
        }
        FixEdit::SetStageConfig { stage, dp, mp } => {
            format!(r#"{{"kind":"set_stage_config","stage":{stage},"dp":{dp},"mp":{mp}}}"#)
        }
        FixEdit::SetStageMesh {
            stage,
            nodes,
            gpus_per_node,
            dp,
            mp,
        } => format!(
            r#"{{"kind":"set_stage_mesh","stage":{stage},"nodes":{nodes},"gpus_per_node":{gpus_per_node},"dp":{dp},"mp":{mp}}}"#
        ),
    }
}

/// Render diagnostics as a JSON array, one object per finding:
///
/// ```json
/// [
///   {"code":"P0107","severity":"error","span":{"kind":"node","id":12},
///    "message":"...","suggestion":null,"fix":null}
/// ]
/// ```
///
/// A machine-applicable fix renders as
/// `{"description":"...","edit":{"kind":"set_stage_config",...}}`.
/// The array is pretty-printed one finding per line; an empty report is
/// `[]`. Field order and formatting are stable (golden-file tested).
pub fn render_json(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]\n".to_string();
    }
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        let suggestion = match &d.suggestion {
            Some(s) => format!("\"{}\"", json_escape(s)),
            None => "null".to_string(),
        };
        let fix = match &d.fix {
            Some(f) => format!(
                "{{\"description\":\"{}\",\"edit\":{}}}",
                json_escape(&f.description),
                json_edit(f.edit)
            ),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "  {{\"code\":\"{}\",\"severity\":\"{}\",\"span\":{},\"message\":\"{}\",\"suggestion\":{},\"fix\":{}}}{}\n",
            d.code,
            d.severity.label(),
            json_span(d.span),
            json_escape(&d.message),
            suggestion,
            fix,
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use predtop_ir::NodeId;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new(107, Severity::Error, Span::Node(NodeId(3)), "bad \"shape\"")
                .with_suggestion("fix it"),
            Diagnostic::new(1301, Severity::Error, Span::Plan, "batch\tissue").with_fix(
                "set microbatches to 4",
                FixEdit::SetMicrobatches { value: 4 },
            ),
            Diagnostic::new(203, Severity::Info, Span::Graph, "fold me"),
        ]
    }

    #[test]
    fn text_renders_severity_code_span_and_help() {
        let t = render_text(&sample());
        assert!(t.contains("error[P0107]: node 3: bad \"shape\""));
        assert!(t.contains("  = help: fix it"));
        assert!(t.contains("info[P0203]: graph: fold me"));
        assert!(t.contains("  = fix: set microbatches to 4"));
    }

    #[test]
    fn json_escapes_and_terminates() {
        let j = render_json(&sample());
        assert!(j.starts_with("[\n"));
        assert!(j.ends_with("]\n"));
        assert!(j.contains(r#""message":"bad \"shape\"""#));
        assert!(j.contains(r#""message":"batch\tissue""#));
        assert!(j.contains(r#""span":{"kind":"node","id":3}"#));
        assert!(j.contains(r#""suggestion":null"#));
        assert!(j.contains(r#""fix":null"#));
        assert!(j.contains(
            r#""fix":{"description":"set microbatches to 4","edit":{"kind":"set_microbatches","value":4}}"#
        ));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
