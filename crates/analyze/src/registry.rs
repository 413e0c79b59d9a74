//! The pass registry: default pass sets and the parallel driver.
//!
//! Passes are independent, so the driver fans them out across
//! `predtop-runtime`'s worker pool (`par_map_with`) and re-sorts the
//! merged findings into the canonical span/code/message order — the
//! report is bit-identical at any thread count.

use predtop_ir::Graph;
use predtop_models::ModelSpec;
use predtop_parallel::PipelinePlan;
use predtop_runtime::{configured_threads, par_map_with};

use crate::dataflow::LivenessPass;
use crate::diag::{sort_diagnostics, Diagnostic};
use crate::graph_passes::{ConstFoldPass, DTypePass, DeadCodePass, SemanticsPass};
use crate::pass::{GraphPass, PlanCheckOptions, PlanContext, PlanPass};
use crate::plan_passes::{DeviceBudgetPass, DivisibilityPass, MemoryFitPass, PlanStructurePass};

/// Every graph pass, in registry order: `semantics`, `dead-code`,
/// `dtype`, `const-fold`, `liveness`.
pub fn default_graph_passes() -> Vec<Box<dyn GraphPass>> {
    vec![
        Box::new(SemanticsPass),
        Box::new(DeadCodePass),
        Box::new(DTypePass),
        Box::new(ConstFoldPass),
        Box::new(LivenessPass),
    ]
}

/// Every plan pass, in registry order: `plan-structure`,
/// `device-budget`, `divisibility`, `memory-fit`.
pub fn default_plan_passes() -> Vec<Box<dyn PlanPass>> {
    vec![
        Box::new(PlanStructurePass),
        Box::new(DeviceBudgetPass),
        Box::new(DivisibilityPass),
        Box::new(MemoryFitPass),
    ]
}

/// Run every default graph pass over `graph` on `threads` workers and
/// return the merged findings in canonical order.
pub fn analyze_graph_with_threads(graph: &Graph, threads: usize) -> Vec<Diagnostic> {
    let passes = default_graph_passes();
    let mut diags: Vec<Diagnostic> = par_map_with(passes, threads, |p| p.run(graph))
        .into_iter()
        .flatten()
        .collect();
    sort_diagnostics(&mut diags);
    diags
}

/// [`analyze_graph_with_threads`] on the pool size `predtop-runtime`
/// derives from `PREDTOP_THREADS`.
pub fn analyze_graph(graph: &Graph) -> Vec<Diagnostic> {
    analyze_graph_with_threads(graph, configured_threads())
}

/// Run every default plan pass over `plan` on `threads` workers and
/// return the merged findings in canonical order.
pub fn analyze_plan_with_threads(
    plan: &PipelinePlan,
    model: &ModelSpec,
    options: &PlanCheckOptions,
    threads: usize,
) -> Vec<Diagnostic> {
    let passes = default_plan_passes();
    let ctx = PlanContext {
        plan,
        model,
        options,
    };
    let mut diags: Vec<Diagnostic> = par_map_with(passes, threads, |p| p.run(&ctx))
        .into_iter()
        .flatten()
        .collect();
    sort_diagnostics(&mut diags);
    diags
}

/// [`analyze_plan_with_threads`] on the pool size `predtop-runtime`
/// derives from `PREDTOP_THREADS`.
pub fn analyze_plan(
    plan: &PipelinePlan,
    model: &ModelSpec,
    options: &PlanCheckOptions,
) -> Vec<Diagnostic> {
    analyze_plan_with_threads(plan, model, options, configured_threads())
}
