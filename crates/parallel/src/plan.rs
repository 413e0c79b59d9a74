//! End-to-end pipeline plans and the Eqn. 4 white-box latency formula.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use predtop_models::{ModelSpec, StageSpec};

use crate::config::{table3_configs, MeshShape, ParallelConfig};
use crate::StageLatencyProvider;

/// Eqn. 4: end-to-end 1F1B pipeline latency from per-stage latencies.
///
/// `T = Σᵢ tᵢ + (B − 1) · maxⱼ tⱼ` — one micro-batch fills the pipeline
/// (the sum), then the bottleneck stage gates every additional
/// micro-batch. Inter-stage communication is neglected, the paper's
/// stated assumption for high-bandwidth systems.
///
/// # Panics
/// Panics if `stage_latencies` is empty or `microbatches == 0`.
pub fn pipeline_latency(stage_latencies: &[f64], microbatches: usize) -> f64 {
    assert!(!stage_latencies.is_empty(), "pipeline needs stages");
    assert!(microbatches >= 1, "pipeline needs at least one micro-batch");
    let sum: f64 = stage_latencies.iter().sum();
    let max = stage_latencies.iter().copied().fold(f64::MIN, f64::max);
    sum + (microbatches as f64 - 1.0) * max
}

/// One stage of a pipeline plan: which layers, on what sub-mesh, under
/// which intra-stage configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedStage {
    /// Layer range of the stage.
    pub stage: StageSpec,
    /// Sub-mesh the stage executes on.
    pub mesh: MeshShape,
    /// Intra-stage parallelism configuration.
    pub config: ParallelConfig,
}

/// A complete parallelization plan: an ordered partition of the model's
/// layers into stages with device assignments, plus the micro-batch
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePlan {
    /// Stages in pipeline order.
    pub stages: Vec<PlannedStage>,
    /// Number of micro-batches `B` fed through the pipeline.
    pub microbatches: usize,
}

/// The structural rule a [`PlanViolation`] breaks. Stable identifiers
/// for the `predtop-analyze` diagnostics layer; messages are for humans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanRule {
    /// The plan has at least one stage.
    NonEmpty,
    /// Every stage was built for the plan's model.
    ModelMatch,
    /// Stages tile the model's layers contiguously from layer 0.
    Contiguous,
    /// Each stage's configuration exactly fills its sub-mesh.
    ConfigFillsMesh,
    /// The last stage ends at the model's final layer.
    FullCoverage,
}

/// One structural violation found by [`PipelinePlan::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanViolation {
    /// The rule broken.
    pub rule: PlanRule,
    /// Index of the offending stage, when the rule is per-stage.
    pub stage: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Error adapter over a non-empty violation list, so call sites written
/// against the old `Result<(), String>` surface keep a `Display`-able
/// error (`{e}` renders every violation, `;`-joined).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The violations, in stage order.
    pub violations: Vec<PlanViolation>,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

impl PipelinePlan {
    /// Total devices occupied by all stages.
    pub fn devices_used(&self) -> usize {
        self.stages.iter().map(|s| s.mesh.num_devices()).sum()
    }

    /// Check that stages tile the model's layers contiguously and agree
    /// on the model, returning *every* violation found (empty = clean).
    ///
    /// This is the structured rule engine behind [`PipelinePlan::validate`]
    /// and the `predtop-analyze` plan-structure pass; the legality rules
    /// beyond structure (divisibility, memory fit, device budgets) live
    /// in `predtop-analyze`, which layers them on top with diagnostic
    /// codes and severities.
    pub fn check(&self, model: &ModelSpec) -> Vec<PlanViolation> {
        let mut out = Vec::new();
        if self.stages.is_empty() {
            out.push(PlanViolation {
                rule: PlanRule::NonEmpty,
                stage: None,
                message: "plan has no stages".into(),
            });
            return out;
        }
        let mut cursor = 0;
        for (i, ps) in self.stages.iter().enumerate() {
            if ps.stage.model != *model {
                out.push(PlanViolation {
                    rule: PlanRule::ModelMatch,
                    stage: Some(i),
                    message: format!("stage {i} built for a different model"),
                });
            }
            if ps.stage.start != cursor {
                out.push(PlanViolation {
                    rule: PlanRule::Contiguous,
                    stage: Some(i),
                    message: format!(
                        "stage {i} starts at layer {} but layer {cursor} is next",
                        ps.stage.start
                    ),
                });
            }
            if ps.config.num_devices() != ps.mesh.num_devices() {
                out.push(PlanViolation {
                    rule: PlanRule::ConfigFillsMesh,
                    stage: Some(i),
                    message: format!(
                        "stage {i}: config {:?} does not fill mesh {:?}",
                        ps.config, ps.mesh
                    ),
                });
            }
            cursor = ps.stage.end;
        }
        if cursor != model.num_layers {
            out.push(PlanViolation {
                rule: PlanRule::FullCoverage,
                stage: None,
                message: format!(
                    "plan covers layers up to {cursor}, model has {}",
                    model.num_layers
                ),
            });
        }
        out
    }

    /// Validate that stages tile the model's layers contiguously and
    /// agree on the model.
    ///
    /// Compatibility adapter over [`PipelinePlan::check`]: the error's
    /// `Display` renders the violations, so call sites that formatted the
    /// old `String` error keep working.
    pub fn validate(&self, model: &ModelSpec) -> Result<(), PlanError> {
        let violations = self.check(model);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(PlanError { violations })
        }
    }

    /// Evaluate the plan's end-to-end iteration latency by querying
    /// `provider` for each stage and applying Eqn. 4.
    pub fn latency<P: StageLatencyProvider>(&self, provider: &P) -> f64 {
        let stage_lats: Vec<f64> = self
            .stages
            .iter()
            .map(|s| provider.stage_latency(&s.stage, s.mesh, s.config))
            .collect();
        pipeline_latency(&stage_lats, self.microbatches)
    }
}

/// Draw a random valid plan for `model` on a cluster of `cluster` shape:
/// a random contiguous layer partition into 1, 2, or 4 stages, equal
/// device split, and a random Table III configuration per stage. Used by
/// the Fig. 2 plan-variation experiment.
pub fn random_plan(
    model: ModelSpec,
    cluster: MeshShape,
    microbatches: usize,
    seed: u64,
) -> PipelinePlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let total_dev = cluster.num_devices();
    // candidate stage counts: powers of two that divide the device count
    // and do not exceed the layer count
    let counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&s| s <= total_dev && total_dev.is_multiple_of(s) && s <= model.num_layers)
        .collect();
    let num_stages = *counts.choose(&mut rng).expect("at least one stage count");
    let dev_per_stage = total_dev / num_stages;
    // sub-mesh shape for the per-stage device count, preferring to stay
    // within a node
    let submesh = |d: usize| -> MeshShape {
        if d <= cluster.gpus_per_node {
            MeshShape::new(1, d)
        } else {
            MeshShape::new(d / cluster.gpus_per_node, cluster.gpus_per_node)
        }
    };

    // random contiguous partition: choose num_stages-1 distinct cut
    // points among layers 1..num_layers
    let mut cuts: Vec<usize> = (1..model.num_layers).collect();
    cuts.shuffle(&mut rng);
    let mut cuts: Vec<usize> = cuts.into_iter().take(num_stages - 1).collect();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(model.num_layers);

    let stages = cuts
        .windows(2)
        .map(|w| {
            let mesh = submesh(dev_per_stage);
            let configs = table3_configs(mesh);
            let config = configs[rng.gen_range(0..configs.len())];
            PlannedStage {
                stage: StageSpec::new(model, w[0], w[1]),
                mesh,
                config,
            }
        })
        .collect();

    PipelinePlan {
        stages,
        microbatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.num_layers = 8;
        s
    }

    struct ConstLat(f64);
    impl StageLatencyProvider for ConstLat {
        fn stage_latency(&self, stage: &StageSpec, _m: MeshShape, _c: ParallelConfig) -> f64 {
            self.0 * stage.num_layers() as f64
        }
    }

    #[test]
    fn eqn4_matches_fig6_example() {
        // Fig. 6: four stages, three micro-batches; stage 2 is the
        // bottleneck.
        let t = [1.0, 3.0, 1.0, 1.0];
        let total = pipeline_latency(&t, 3);
        assert_eq!(total, 6.0 + 2.0 * 3.0);
    }

    #[test]
    fn eqn4_single_stage_single_batch() {
        assert_eq!(pipeline_latency(&[2.5], 1), 2.5);
        // B micro-batches through one stage serialize fully
        assert_eq!(pipeline_latency(&[2.0], 4), 2.0 + 3.0 * 2.0);
    }

    #[test]
    fn random_plans_validate() {
        let m = tiny_model();
        let cluster = MeshShape::new(2, 2);
        for seed in 0..50 {
            let p = random_plan(m, cluster, 4, seed);
            p.validate(&m)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(p.devices_used() <= cluster.num_devices() * p.stages.len());
        }
    }

    #[test]
    fn random_plans_vary() {
        let m = tiny_model();
        let cluster = MeshShape::new(2, 2);
        let lats: Vec<f64> = (0..20)
            .map(|s| random_plan(m, cluster, 4, s).latency(&ConstLat(0.01)))
            .collect();
        let min = lats.iter().cloned().fold(f64::MAX, f64::min);
        let max = lats.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "plans must differ in latency: {lats:?}");
    }

    #[test]
    fn plan_validation_catches_gaps() {
        let m = tiny_model();
        let plan = PipelinePlan {
            stages: vec![PlannedStage {
                stage: StageSpec::new(m, 0, 4),
                mesh: MeshShape::new(1, 1),
                config: ParallelConfig::SERIAL,
            }],
            microbatches: 2,
        };
        let err = plan.validate(&m).unwrap_err();
        assert!(err.to_string().contains("covers layers up to 4"), "{err}");
        assert_eq!(err.violations.len(), 1);
        assert_eq!(err.violations[0].rule, PlanRule::FullCoverage);
    }

    #[test]
    fn plan_validation_catches_config_mesh_mismatch() {
        let m = tiny_model();
        let plan = PipelinePlan {
            stages: vec![PlannedStage {
                stage: StageSpec::new(m, 0, 8),
                mesh: MeshShape::new(1, 2),
                config: ParallelConfig::SERIAL,
            }],
            microbatches: 2,
        };
        let err = plan.validate(&m).unwrap_err();
        assert!(err.to_string().contains("does not fill"), "{err}");
        assert_eq!(err.violations[0].rule, PlanRule::ConfigFillsMesh);
        assert_eq!(err.violations[0].stage, Some(0));
    }

    proptest! {
        #[test]
        fn prop_eqn4_bounds(lats in proptest::collection::vec(0.001f64..10.0, 1..8), b in 1usize..16) {
            let t = pipeline_latency(&lats, b);
            let sum: f64 = lats.iter().sum();
            let max = lats.iter().cloned().fold(f64::MIN, f64::max);
            // lower bound: perfect overlap of B-1 extra batches on max
            prop_assert!(t >= sum - 1e-12);
            prop_assert!(t >= b as f64 * max - 1e-12);
            // upper bound: full serialization
            prop_assert!(t <= b as f64 * sum + 1e-9);
        }

        #[test]
        fn prop_eqn4_monotone_in_microbatches(lats in proptest::collection::vec(0.001f64..10.0, 1..8), b in 1usize..16) {
            prop_assert!(pipeline_latency(&lats, b + 1) > pipeline_latency(&lats, b));
        }
    }
}
