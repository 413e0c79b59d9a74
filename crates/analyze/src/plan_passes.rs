//! Plan-level passes: structural legality, device accounting, sharding
//! divisibility, and memory fit.

use predtop_cluster::GpuSpec;
use predtop_ir::Graph;
use predtop_models::ModelSpec;
use predtop_parallel::intra::IntraPlan;
use predtop_parallel::sharding::Sharding;
use predtop_parallel::{table3_configs, MeshShape, ParallelConfig, PlanRule};
use predtop_sim::memory::{estimate_stage_memory, fits_on, MemoryEstimate, MemorySummary};

use crate::diag::{Diagnostic, FixEdit, Severity, Span};
use crate::pass::{PlanContext, PlanPass};

/// Stable code for one [`PlanRule`] (the `P11xx` block).
pub fn plan_rule_code(rule: PlanRule) -> u16 {
    match rule {
        PlanRule::NonEmpty => 1101,
        PlanRule::ModelMatch => 1102,
        PlanRule::Contiguous => 1103,
        PlanRule::ConfigFillsMesh => 1104,
        PlanRule::FullCoverage => 1105,
    }
}

/// `plan-structure` — `PipelinePlan::check`'s contiguity/coverage rules
/// lifted onto diagnostics, codes `P1101`–`P1105`.
pub struct PlanStructurePass;

impl PlanPass for PlanStructurePass {
    fn name(&self) -> &'static str {
        "plan-structure"
    }

    fn description(&self) -> &'static str {
        "stages tile the model contiguously and fill their meshes"
    }

    fn run(&self, ctx: &PlanContext<'_>) -> Vec<Diagnostic> {
        ctx.plan
            .check(ctx.model)
            .into_iter()
            .map(|v| {
                let span = match v.stage {
                    Some(i) => Span::Stage(i),
                    None => Span::Plan,
                };
                Diagnostic::new(plan_rule_code(v.rule), Severity::Error, span, v.message)
            })
            .collect()
    }
}

/// `device-budget` — the plan's stages must fit inside the cluster
/// (`P1201` total budget, `P1202` per-stage sub-mesh shape). Skipped
/// when [`crate::PlanCheckOptions::cluster`] is `None`.
pub struct DeviceBudgetPass;

impl PlanPass for DeviceBudgetPass {
    fn name(&self) -> &'static str {
        "device-budget"
    }

    fn description(&self) -> &'static str {
        "device accounting against the cluster's shape and budget"
    }

    fn run(&self, ctx: &PlanContext<'_>) -> Vec<Diagnostic> {
        let Some(cluster) = ctx.options.cluster else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let used = ctx.plan.devices_used();
        if used > cluster.num_devices() {
            out.push(
                Diagnostic::new(
                    1201,
                    Severity::Error,
                    Span::Plan,
                    format!(
                        "plan occupies {used} devices, cluster {} has {}",
                        cluster.label(),
                        cluster.num_devices()
                    ),
                )
                .with_suggestion("merge stages or shrink per-stage meshes"),
            );
        }
        for (i, ps) in ctx.plan.stages.iter().enumerate() {
            if ps.mesh.nodes > cluster.nodes || ps.mesh.gpus_per_node > cluster.gpus_per_node {
                let mut d = Diagnostic::new(
                    1202,
                    Severity::Error,
                    Span::Stage(i),
                    format!(
                        "stage sub-mesh {} does not fit cluster {}",
                        ps.mesh.label(),
                        cluster.label()
                    ),
                );
                // machine-applicable: clamp the sub-mesh to the cluster
                // and re-fill it with the nearest legal configuration
                let clamped = MeshShape::new(
                    ps.mesh.nodes.min(cluster.nodes),
                    ps.mesh.gpus_per_node.min(cluster.gpus_per_node),
                );
                if let Some(c) =
                    nearest_legal_config(ctx.model, ctx.plan.microbatches, clamped, ps.config)
                {
                    d = d.with_fix(
                        format!(
                            "clamp stage {i} to sub-mesh {} with dp={}, mp={}",
                            clamped.label(),
                            c.dp,
                            c.mp
                        ),
                        FixEdit::SetStageMesh {
                            stage: i,
                            nodes: clamped.nodes,
                            gpus_per_node: clamped.gpus_per_node,
                            dp: c.dp,
                            mp: c.mp,
                        },
                    );
                }
                out.push(d);
            }
        }
        out
    }
}

/// The mesh-filling configuration closest to `current` that passes
/// every divisibility rule, or `None` when no Table III configuration
/// of `mesh` is legal (or the micro-batch split itself is broken).
/// Distance is `|dp−dp'| + |mp−mp'|` with a deterministic `(mp, dp)`
/// tie-break, so fix-its are reproducible.
pub fn nearest_legal_config(
    model: &ModelSpec,
    microbatches: usize,
    mesh: MeshShape,
    current: ParallelConfig,
) -> Option<ParallelConfig> {
    table3_configs(mesh)
        .into_iter()
        .filter(|&c| divisible(model, microbatches, c))
        .min_by_key(|c| {
            (
                c.dp.abs_diff(current.dp) + c.mp.abs_diff(current.mp),
                c.mp,
                c.dp,
            )
        })
}

/// Whether `config` passes every divisibility rule: exactly when
/// [`divisibility_diags`] finds nothing, without building a diagnostic.
pub fn divisible(model: &ModelSpec, microbatches: usize, config: ParallelConfig) -> bool {
    if microbatches == 0 || !model.batch.is_multiple_of(microbatches) {
        return false;
    }
    let per_mb = model.batch / microbatches;
    (config.dp <= 1 || per_mb.is_multiple_of(config.dp))
        && (config.mp <= 1
            || (model.hidden.is_multiple_of(config.mp)
                && model.num_heads.is_multiple_of(config.mp)))
}

/// The sharding/microbatch divisibility rules for one candidate
/// configuration, codes `P1301`–`P1304`. Shared by the
/// [`DivisibilityPass`] (per planned stage) and the checked search's
/// [`crate::StaticLegality`] filter (per enumerated candidate).
///
/// When `mesh` is known and the span names a stage, each degree
/// violation carries a machine-applicable fix: replace the stage's
/// configuration with the [`nearest_legal_config`] of its mesh (the
/// "round down to the nearest legal divisor" edit, kept mesh-filling so
/// the fix never trades a `P13xx` for a `P1104`).
pub fn divisibility_diags(
    model: &ModelSpec,
    microbatches: usize,
    config: ParallelConfig,
    span: Span,
    mesh: Option<MeshShape>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if microbatches == 0 || !model.batch.is_multiple_of(microbatches) {
        // machine-applicable: the largest dividing count not above the
        // requested one (explicit value => idempotent)
        let value = (1..=microbatches.max(1))
            .rev()
            .find(|v| *v <= model.batch && model.batch.is_multiple_of(*v))
            .unwrap_or(1);
        out.push(
            Diagnostic::new(
                1301,
                Severity::Error,
                span,
                format!(
                    "batch {} does not divide into {microbatches} micro-batches",
                    model.batch
                ),
            )
            .with_suggestion("pick a micro-batch count dividing the global batch")
            .with_fix(
                format!("set micro-batch count to {value}"),
                FixEdit::SetMicrobatches { value },
            ),
        );
        return out; // per-microbatch rules are meaningless without a split
    }
    let config_fix = match (mesh, span) {
        (Some(mesh), Span::Stage(i)) => nearest_legal_config(model, microbatches, mesh, config)
            .map(|c| {
                (
                    format!("set stage {i} config to dp={}, mp={}", c.dp, c.mp),
                    FixEdit::SetStageConfig {
                        stage: i,
                        dp: c.dp,
                        mp: c.mp,
                    },
                )
            }),
        _ => None,
    };
    let with_config_fix = |d: Diagnostic| match &config_fix {
        Some((desc, edit)) => d.with_fix(desc.clone(), *edit),
        None => d,
    };
    let per_mb = model.batch / microbatches;
    if config.dp > 1 && !per_mb.is_multiple_of(config.dp) {
        out.push(with_config_fix(
            Diagnostic::new(
                1302,
                Severity::Error,
                span,
                format!(
                    "micro-batch of {per_mb} does not shard {}-way data parallel",
                    config.dp
                ),
            )
            .with_suggestion("lower dp or the micro-batch count"),
        ));
    }
    if config.mp > 1 {
        if !model.hidden.is_multiple_of(config.mp) {
            out.push(with_config_fix(Diagnostic::new(
                1303,
                Severity::Error,
                span,
                format!(
                    "hidden size {} does not shard {}-way model parallel",
                    model.hidden, config.mp
                ),
            )));
        }
        if !model.num_heads.is_multiple_of(config.mp) {
            out.push(with_config_fix(Diagnostic::new(
                1304,
                Severity::Error,
                span,
                format!(
                    "{} attention heads do not shard {}-way model parallel",
                    model.num_heads, config.mp
                ),
            )));
        }
    }
    out
}

/// `divisibility` — every planned stage's configuration must divide the
/// batch, hidden size, and head count it shards.
pub struct DivisibilityPass;

impl PlanPass for DivisibilityPass {
    fn name(&self) -> &'static str {
        "divisibility"
    }

    fn description(&self) -> &'static str {
        "sharded dims and micro-batches divide by the mesh axes"
    }

    fn run(&self, ctx: &PlanContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // the plan-wide micro-batch rule once, on the plan span
        if ctx.plan.microbatches == 0 || !ctx.model.batch.is_multiple_of(ctx.plan.microbatches) {
            out.extend(divisibility_diags(
                ctx.model,
                ctx.plan.microbatches,
                ParallelConfig::SERIAL,
                Span::Plan,
                None,
            ));
            return out;
        }
        for (i, ps) in ctx.plan.stages.iter().enumerate() {
            out.extend(divisibility_diags(
                ctx.model,
                ctx.plan.microbatches,
                ps.config,
                Span::Stage(i),
                Some(ps.mesh),
            ));
        }
        out
    }
}

/// The least per-device memory any intra-stage sharding assignment can
/// reach for `graph` under `config`: every operator column-sharded
/// (activations stored `1/(mp·dp)`) and every contraction's weights
/// sharded `1/mp`. An assignment chosen by the real optimizer can only
/// use **more** memory, so rejecting on this bound never rejects a
/// feasible candidate. `P1401` charges the liveness-tight refinement
/// below; this retain-everything form, built through the plan-general
/// `sim::memory::estimate_stage_memory`, is the reference it is tested
/// against.
pub fn stage_memory_lower_bound(graph: &Graph, config: ParallelConfig) -> MemoryEstimate {
    estimate_stage_memory(graph, &all_sharded_plan(graph, config))
}

fn all_sharded_plan(graph: &Graph, config: ParallelConfig) -> IntraPlan {
    IntraPlan {
        config,
        sharding: vec![Sharding::ColSharded; graph.len()],
        compute_time: 0.0,
        comm_time: 0.0,
        grad_sync_time: 0.0,
        total: 0.0,
    }
}

/// The liveness-tight refinement of [`stage_memory_lower_bound`]: same
/// parameter/gradient/optimizer terms, but activations are the **peak
/// resident set** over the execution schedule instead of the
/// retain-everything sum ([`MemorySummary::estimate`]). Transient
/// buffers (prunable-op outputs) only count while live, so this bound
/// is provably ≤ the legacy bound — every resident set is a subset of
/// all buffers and the weights are the same addends — while retained
/// buffers keep it sound w.r.t. `sim::memory`'s backward-pass model.
pub fn stage_memory_liveness_bound(graph: &Graph, config: ParallelConfig) -> MemoryEstimate {
    MemorySummary::of(graph).estimate(config)
}

/// One memory-fit diagnostic (`P1401`) if even the liveness-tight
/// lower bound of `summary`'s graph under `config` overflows `gpu`,
/// else `None`. Shared by the [`MemoryFitPass`] and the checked
/// search's [`crate::StaticLegality`] filter.
///
/// The summary's retain-everything ceiling is never below the exact
/// bound, so when the ceiling fits, the verdict is "fits" and the
/// exact sweep never runs. The checked search's filter reads the same
/// ceiling from the stage's part sums first, and summarizes the graph
/// only when it overflows.
pub fn memory_fit_diag(
    summary: &MemorySummary,
    config: ParallelConfig,
    gpu: &GpuSpec,
    headroom_frac: f64,
    span: Span,
) -> Option<Diagnostic> {
    if summary.sums().ceiling_fits(config, gpu, headroom_frac) {
        return None;
    }
    let est = summary.estimate(config);
    if fits_on(gpu, &est, headroom_frac) {
        return None;
    }
    Some(
        Diagnostic::new(
            1401,
            Severity::Error,
            span,
            format!(
                "stage needs at least {:.1} GiB per device (liveness peak), \
                 {} has {:.1} GiB ({:.0}% headroom)",
                est.total() as f64 / (1u64 << 30) as f64,
                gpu.name,
                gpu.memory_gib,
                headroom_frac * 100.0
            ),
        )
        .with_suggestion("shard wider (more mp/dp), split the stage, or use larger devices"),
    )
}

/// `memory-fit` — each stage's liveness-tight memory lower bound must
/// fit the target device. Skipped when [`crate::PlanCheckOptions::gpu`]
/// is `None`.
pub struct MemoryFitPass;

impl PlanPass for MemoryFitPass {
    fn name(&self) -> &'static str {
        "memory-fit"
    }

    fn description(&self) -> &'static str {
        "per-stage memory lower bound vs device capacity (sim::memory)"
    }

    fn run(&self, ctx: &PlanContext<'_>) -> Vec<Diagnostic> {
        let Some(gpu) = &ctx.options.gpu else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, ps) in ctx.plan.stages.iter().enumerate() {
            let summary = MemorySummary::of(&ps.stage.build_graph());
            if let Some(d) = memory_fit_diag(
                &summary,
                ps.config,
                gpu,
                ctx.options.headroom_frac,
                Span::Stage(i),
            ) {
                out.push(d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_models::{ModelSpec, StageSpec};

    /// The liveness bound never exceeds the legacy retain-everything
    /// bound, and on real transformer stages (which contain transient
    /// reshape/convert buffers) it is strictly tighter — the property
    /// the checked search's extra pruning rides on.
    #[test]
    fn liveness_bound_is_tighter_on_benchmark_stages() {
        for (model, name) in [
            (ModelSpec::gpt3_1p3b(8), "gpt3"),
            (ModelSpec::moe_2p6b(8), "moe"),
        ] {
            let g = StageSpec::new(model, 0, 2.min(model.num_layers)).build_graph();
            for config in [ParallelConfig::SERIAL, ParallelConfig::new(2, 1)] {
                let legacy = stage_memory_lower_bound(&g, config);
                let live = stage_memory_liveness_bound(&g, config);
                assert_eq!(live.params, legacy.params, "{name}");
                assert_eq!(live.grads, legacy.grads, "{name}");
                assert_eq!(live.optimizer, legacy.optimizer, "{name}");
                assert!(
                    live.activations < legacy.activations,
                    "{name}: expected strict tightening, got {} vs {}",
                    live.activations,
                    legacy.activations
                );
            }
        }
    }

    /// `P1401` flips at the exact byte: at 0% headroom a device of the
    /// bound's total holds the stage and one byte less does not, each
    /// verdict after one sweep; a device of exactly the summary's
    /// ceiling `U` holds it with no sweep at all.
    #[test]
    fn memory_fit_flips_at_the_exact_byte() {
        // exact in f64: every byte count here is far below 2^53
        let device = |bytes: u64| GpuSpec {
            name: "edge-test-gpu",
            memory_gib: bytes as f64 / (1u64 << 30) as f64,
            ..GpuSpec::a40()
        };
        for model in [ModelSpec::gpt3_1p3b(8), ModelSpec::moe_2p6b(8)] {
            let summary = MemorySummary::of(&StageSpec::new(model, 1, 3).build_graph());
            for (dp, mp) in [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)] {
                let config = ParallelConfig::new(dp, mp);
                let fit =
                    |bytes| memory_fit_diag(&summary, config, &device(bytes), 0.0, Span::Plan);
                let total = summary.estimate(config).total();
                let upper = summary.sums().upper_estimate(config).total();
                assert!(total < upper, "{config:?}: transient buffers leave slack");

                let sweeps = summary.sweeps();
                assert_eq!(fit(upper), None, "{config:?}");
                assert_eq!(summary.sweeps(), sweeps, "{config:?}: U fits, no sweep");
                assert_eq!(fit(total), None, "{config:?}");
                assert_eq!(summary.sweeps(), sweeps + 1, "{config:?}");
                let d = fit(total - 1).expect("one byte short of the bound");
                assert_eq!(d.code.0, 1401, "{config:?}");
                assert_eq!(summary.sweeps(), sweeps + 2, "{config:?}");
            }
        }
    }
}
