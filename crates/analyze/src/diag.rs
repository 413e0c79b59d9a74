//! Structured diagnostics: codes, severities, spans, and deterministic
//! ordering.
//!
//! Every finding any pass produces is a [`Diagnostic`] — a stable
//! machine-readable code (`P0107`), a [`Severity`], a [`Span`] locating
//! the finding in a graph or plan, a human-readable message, and an
//! optional suggestion. The code numbering scheme (documented in
//! DESIGN.md §7) reserves the `P01xx` block for graph semantics, `P02xx`
//! for graph flow, `P03xx` for dtype propagation, `P11xx` for plan
//! structure, `P12xx` for device accounting, `P13xx` for sharding
//! divisibility, and `P14xx` for memory fit.

use predtop_ir::NodeId;

/// A stable diagnostic code, rendered as `P` + four digits (`P0107`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{:04}", self.0)
    }
}

/// How serious a finding is. `Error` findings gate CI and the checked
/// plan search; `Warn` marks probable-but-not-certain defects; `Info`
/// marks opportunities (e.g. constant-foldable subgraphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational finding; never gates anything.
    Info,
    /// Probable defect or inefficiency; does not gate CI.
    Warn,
    /// Definite rule violation; non-zero lint exit, rejected candidates.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers (`error`, `warning`,
    /// `info`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// The whole graph (no finer location applies).
    Graph,
    /// One node of a graph.
    Node(NodeId),
    /// One stage of a pipeline plan (by stage index).
    Stage(usize),
    /// The whole pipeline plan.
    Plan,
}

impl Span {
    /// Total-order key: graph-level first, then nodes by id, then stages
    /// by index, then plan-level. Part of the deterministic-ordering
    /// contract of [`sort_diagnostics`].
    fn order_key(self) -> (u8, u64) {
        match self {
            Span::Graph => (0, 0),
            Span::Node(id) => (1, id.0 as u64),
            Span::Stage(i) => (2, i as u64),
            Span::Plan => (3, 0),
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Span::Graph => f.write_str("graph"),
            Span::Node(id) => write!(f, "node {}", id.0),
            Span::Stage(i) => write!(f, "stage {i}"),
            Span::Plan => f.write_str("plan"),
        }
    }
}

/// A machine-applicable structured edit to a `PipelinePlan`, in the
/// spirit of rustc's `MachineApplicable` suggestions: precise enough
/// that `predtop-lint --fix` can apply it without human judgement.
/// Every variant sets fields to explicit values (rather than deltas),
/// so re-applying an edit is a no-op — the root of the fix loop's
/// idempotence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixEdit {
    /// Set the plan's micro-batch count.
    SetMicrobatches {
        /// The new count.
        value: usize,
    },
    /// Set one stage's `(dp, mp)` parallel configuration.
    SetStageConfig {
        /// Stage index.
        stage: usize,
        /// New data-parallel degree.
        dp: usize,
        /// New model-parallel degree.
        mp: usize,
    },
    /// Set one stage's sub-mesh shape and matching configuration.
    SetStageMesh {
        /// Stage index.
        stage: usize,
        /// New node count.
        nodes: usize,
        /// New GPUs per node.
        gpus_per_node: usize,
        /// New data-parallel degree (must fill the mesh with `mp`).
        dp: usize,
        /// New model-parallel degree.
        mp: usize,
    },
}

/// A machine-applicable fix attached to a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// What applying the edit does, in imperative mood.
    pub description: String,
    /// The structured edit itself.
    pub edit: FixEdit,
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code.
    pub code: Code,
    /// Severity class.
    pub severity: Severity,
    /// Location of the finding.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Optional remediation hint, rendered as a `help:` line.
    pub suggestion: Option<String>,
    /// Optional machine-applicable fix, applied by `predtop-lint --fix`.
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// Construct a diagnostic without a suggestion.
    pub fn new(
        code: u16,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: Code(code),
            severity,
            span,
            message: message.into(),
            suggestion: None,
            fix: None,
        }
    }

    /// Attach a remediation hint.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Attach a machine-applicable fix.
    pub fn with_fix(mut self, description: impl Into<String>, edit: FixEdit) -> Diagnostic {
        self.fix = Some(Fix {
            description: description.into(),
            edit,
        });
        self
    }
}

/// Sort diagnostics into the canonical order: span (graph, nodes by id,
/// stages by index, plan), then code, then message. Passes fan out
/// across worker threads, so the registry always applies this sort —
/// the rendered output is bit-identical at any thread count.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.span
            .order_key()
            .cmp(&b.span.order_key())
            .then(a.code.cmp(&b.code))
            .then(a.message.cmp(&b.message))
    });
}

/// The highest severity present, or `None` for a clean report.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Does the report contain any `Error`-severity finding?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_renders_with_leading_zeros() {
        assert_eq!(Code(107).to_string(), "P0107");
        assert_eq!(Code(1401).to_string(), "P1401");
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Warn.label(), "warning");
    }

    #[test]
    fn sort_is_span_then_code_then_message() {
        let mut diags = vec![
            Diagnostic::new(1301, Severity::Error, Span::Plan, "z"),
            Diagnostic::new(201, Severity::Warn, Span::Node(NodeId(7)), "dead"),
            Diagnostic::new(107, Severity::Error, Span::Node(NodeId(3)), "b"),
            Diagnostic::new(107, Severity::Error, Span::Node(NodeId(3)), "a"),
            Diagnostic::new(1101, Severity::Error, Span::Stage(0), "s"),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<Span> = diags.iter().map(|d| d.span).collect();
        assert_eq!(
            order,
            vec![
                Span::Node(NodeId(3)),
                Span::Node(NodeId(3)),
                Span::Node(NodeId(7)),
                Span::Stage(0),
                Span::Plan,
            ]
        );
        assert_eq!(diags[0].message, "a");
        assert!(has_errors(&diags));
        assert_eq!(max_severity(&diags), Some(Severity::Error));
        assert_eq!(max_severity(&[]), None);
    }
}
