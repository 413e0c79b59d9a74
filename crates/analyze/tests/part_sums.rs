//! The memory rule's ceiling from part sums: any stage's four byte sums
//! are the sums of its parts, and the checked filter, which reads its
//! ceilings from them, reaches every `P1401` verdict the stage graph
//! gives, as does the `memory-fit` plan pass.

use std::sync::Arc;

use proptest::prelude::*;

use predtop_analyze::plan_passes::{memory_fit_diag, MemoryFitPass};
use predtop_analyze::{PlanCheckOptions, PlanContext, PlanPass, Span, StaticLegality};
use predtop_cluster::GpuSpec;
use predtop_models::{enumerate_stages, ModelSpec};
use predtop_parallel::{MeshShape, ParallelConfig, PipelinePlan, PlannedStage, StageGraphs};
use predtop_sim::memory::{MemorySummary, PartSums};

/// Random GPT-3 and MoE models of small dimensions: 1–12 layers, so
/// some windows carry both the embedding and the head, and for MoE an
/// expert layer every 1–3 layers. Batch 4 and an even head count let
/// every configuration [`arb_config`] draws pass the divisibility rules
/// at one micro-batch.
fn arb_model() -> impl Strategy<Value = ModelSpec> {
    (
        1usize..=12, // layers
        0usize..=3,  // 0: GPT-3, else the MoE interleave
        0usize..=1,  // heads selector
        0usize..=1,  // head width selector
        0usize..=1,  // sequence and vocabulary selector
        0usize..=1,  // experts selector
    )
        .prop_map(|(layers, every, heads, width, seq, experts)| {
            let mut m = if every == 0 {
                ModelSpec::gpt3_1p3b(4)
            } else {
                ModelSpec::moe_2p6b(4)
            };
            m.num_heads = [2, 4][heads];
            m.hidden = m.num_heads * [4, 8][width];
            m.seq_len = [8, 16][seq];
            m.vocab = [32, 48][seq];
            m.num_layers = layers;
            if let Some(moe) = m.moe.as_mut() {
                moe.num_experts = [2, 4][experts];
                moe.expert_hidden = 2 * m.hidden;
                moe.every = every;
            }
            m
        })
}

fn arb_config() -> impl Strategy<Value = ParallelConfig> {
    (0usize..3, 0usize..2).prop_map(|(d, m)| ParallelConfig::new([1, 2, 4][d], [1, 2][m]))
}

/// A device of exactly `bytes` (exact in f64: every count here is far
/// below 2^53).
fn device(bytes: u64) -> GpuSpec {
    GpuSpec {
        name: "ceiling-test-gpu",
        memory_gib: bytes as f64 / (1u64 << 30) as f64,
        ..GpuSpec::a40()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every window of the model: the part table's sums equal the
    /// stage graph's field for field, and on a device of exactly the
    /// window's ceiling, and on one a byte smaller, the filter's verdict
    /// and the `memory-fit` pass's finding on a one-stage plan are the
    /// graph path's. The first device settles "fits" with no graph
    /// built; the second overflows the ceiling, so the filter builds the
    /// one graph and lets the exact bound decide.
    #[test]
    fn prop_part_sums_add_up_to_the_stage_graph(
        model in arb_model(),
        config in arb_config(),
    ) {
        let parts = PartSums::of(model);
        let mesh = MeshShape::new(1, config.num_devices());
        for stage in enumerate_stages(model) {
            let summary = MemorySummary::of(&stage.build_graph());
            prop_assert_eq!(&parts.sums(&stage), summary.sums(), "{}", stage.label());

            let ceiling = summary.sums().upper_estimate(config).total();
            for (bytes, built) in [(ceiling, 0), (ceiling - 1, 1)] {
                let gpu = device(bytes);
                let graphs = Arc::new(StageGraphs::new());
                let legality = StaticLegality::new(model, 1).with_memory_check(
                    gpu.clone(),
                    0.0,
                    Arc::clone(&graphs),
                );
                let want: Vec<_> = memory_fit_diag(&summary, config, &gpu, 0.0, Span::Plan)
                    .into_iter()
                    .collect();
                prop_assert_eq!(
                    legality.candidate_diagnostics(&stage, mesh, config),
                    want,
                    "{} on {} bytes",
                    stage.label(),
                    bytes
                );
                prop_assert_eq!(graphs.len(), built, "{} on {} bytes", stage.label(), bytes);

                let plan = PipelinePlan {
                    stages: vec![PlannedStage { stage, mesh, config }],
                    microbatches: 1,
                };
                let options = PlanCheckOptions {
                    cluster: None,
                    gpu: Some(gpu.clone()),
                    headroom_frac: 0.0,
                };
                let ctx = PlanContext { plan: &plan, model: &model, options: &options };
                let want: Vec<_> = memory_fit_diag(&summary, config, &gpu, 0.0, Span::Stage(0))
                    .into_iter()
                    .collect();
                prop_assert_eq!(
                    MemoryFitPass.run(&ctx),
                    want,
                    "{} on {} bytes",
                    stage.label(),
                    bytes
                );
            }
        }
    }
}
