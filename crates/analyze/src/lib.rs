//! Pass-based static analysis for PredTOP graphs and parallel plans.
//!
//! `predtop-analyze` turns the semantic rules scattered through the
//! workspace (`ir::verify`'s shape rules, `PipelinePlan`'s structural
//! checks, `sim::memory`'s capacity model) into a uniform pass
//! framework with structured [`Diagnostic`]s:
//!
//! - a stable machine-readable [`Code`] per rule (`P0107`, `P1401`, ...),
//! - a [`Severity`] policy (`Error` gates CI and the checked plan
//!   search; `Warn`/`Info` inform),
//! - a [`Span`] locating each finding in a graph or plan,
//! - deterministic ordering at any thread count.
//!
//! The two driver entry points are [`analyze_graph`] (semantics,
//! dead-code, dtype, const-fold passes) and [`analyze_plan`]
//! (structure, device-budget, divisibility, memory-fit passes); both
//! fan passes out via `predtop-runtime`. [`StaticLegality`] exposes the
//! plan rules as the candidate filter `predtop-core`'s checked search
//! plugs into, and the `predtop-lint` binary runs everything over the
//! benchmark models from CI. Code numbering is documented in
//! DESIGN.md §7.

#![warn(missing_docs)]

pub mod dataflow;
pub mod diag;
pub mod fix;
pub mod graph_passes;
pub mod legality;
pub mod pass;
pub mod plan_passes;
pub mod registry;
pub mod render;

pub use dataflow::{resident_sets, LivenessPass};
pub use diag::{
    has_errors, max_severity, sort_diagnostics, Code, Diagnostic, Fix, FixEdit, Severity, Span,
};
pub use fix::{apply_edit, collect_edits, fix_plan, FixOutcome};
pub use legality::StaticLegality;
pub use pass::{GraphPass, PlanCheckOptions, PlanContext, PlanPass};
pub use registry::{
    analyze_graph, analyze_graph_with_threads, analyze_plan, analyze_plan_with_threads,
    default_graph_passes, default_plan_passes,
};
pub use render::{render_json, render_text};
