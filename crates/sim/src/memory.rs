//! Per-device memory estimation for a stage under an intra-stage plan.
//!
//! The paper notes that "Alpa's inter-operator optimizer requires
//! substantial memory for large models like MoE" (§VIII-B) and that
//! memory pressure is what forces multi-device training in the first
//! place (§II-A). This module estimates the per-device bytes a stage
//! occupies under a chosen sharding assignment, using standard
//! mixed-precision accounting:
//!
//! * **parameters** — bf16 weights, sharded by the consuming
//!   contraction's strategy (column-/row-parallel weights live `1/mp`
//!   per device; data parallelism replicates them);
//! * **gradients** — same layout as the parameters;
//! * **optimizer state** — fp32 master copy + Adam's two moments
//!   (12 bytes per 2-byte parameter = 6× the parameter bytes);
//! * **activations** — every operator output retained for the backward
//!   pass, scaled by its layout's storage fraction and the data-parallel
//!   batch split.
//!
//! The estimate feeds [`fits_on`] so plan search can reject
//! out-of-memory configurations.

use predtop_cluster::GpuSpec;
use predtop_ir::{Graph, NodeKind, OpKind};
use predtop_parallel::intra::IntraPlan;
use predtop_parallel::sharding::Sharding;

/// Byte breakdown of one device's memory for a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimate {
    /// Parameter bytes resident per device.
    pub params: u64,
    /// Gradient bytes (same layout as parameters).
    pub grads: u64,
    /// Optimizer-state bytes (fp32 master + Adam moments).
    pub optimizer: u64,
    /// Retained activation bytes for one micro-batch.
    pub activations: u64,
}

impl MemoryEstimate {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.params + self.grads + self.optimizer + self.activations
    }
}

/// Ratio of optimizer-state bytes to parameter bytes under
/// mixed-precision Adam (fp32 master + m + v over bf16 storage).
pub const OPTIMIZER_FACTOR: u64 = 6;

/// Per-node activation bytes of `graph` under `plan`, indexed by
/// `NodeId`: the exact per-buffer terms whose sum is
/// [`estimate_stage_memory`]'s `activations` field. Parameter inputs
/// (and non-float bookkeeping nodes) contribute `0` — their bytes are
/// accounted in the `params`/`grads`/`optimizer` fields instead.
///
/// Exposing the addends (rather than only their sum) lets a liveness
/// analysis weigh *subsets* of buffers — the peak resident set — with
/// byte-exact agreement against this module's retain-everything model,
/// which is what keeps a peak-over-live-sets bound provably ≤ the sum
/// bound.
pub fn activation_profile(graph: &Graph, plan: &IntraPlan) -> Vec<u64> {
    let mp = plan.config.mp as u64;
    let dp = plan.config.dp as u64;
    graph
        .nodes()
        .iter()
        .map(|node| match node.kind {
            // the incoming activation of a non-embedding stage (mirrors
            // `param_bytes`); weight inputs are not activations
            NodeKind::Input
                if node.dtype.is_float() && node.id.index() == 0 && node.shape.rank() == 2 =>
            {
                node.output_bytes() / dp
            }
            NodeKind::Operator(_) => {
                let frac_num = match plan.sharding[node.id.index()] {
                    Sharding::Replicated | Sharding::PartialSum => mp,
                    Sharding::BatchSharded | Sharding::ColSharded => 1,
                };
                // storage_fraction = frac_num / mp; batch axis / dp
                node.output_bytes() * frac_num / mp / dp
            }
            _ => 0,
        })
        .collect()
}

/// Estimate the per-device memory of `graph` under `plan`.
pub fn estimate_stage_memory(graph: &Graph, plan: &IntraPlan) -> MemoryEstimate {
    let mp = plan.config.mp as u64;

    let mut params = 0u64;
    for node in graph.nodes() {
        match node.kind {
            NodeKind::Input if node.dtype.is_float() => {
                // the stage's incoming activation is not a parameter
                if node.id.index() == 0 && node.shape.rank() == 2 {
                    continue;
                }
                // a weight is sharded iff some consuming contraction runs
                // column- or row-parallel
                let sharded = graph.succs(node.id).iter().any(|&s| {
                    let consumer = graph.node(s);
                    consumer.kind == NodeKind::Operator(OpKind::DotGeneral)
                        && matches!(
                            plan.sharding[s.index()],
                            Sharding::ColSharded | Sharding::PartialSum
                        )
                });
                params += if sharded {
                    node.output_bytes() / mp
                } else {
                    node.output_bytes()
                };
            }
            _ => {}
        }
    }
    let activations = activation_profile(graph, plan).iter().sum();

    MemoryEstimate {
        params,
        grads: params,
        optimizer: OPTIMIZER_FACTOR * params,
        activations,
    }
}

/// Does the estimate fit in one `gpu`, leaving `headroom_frac` of the
/// capacity for workspace/fragmentation (0.1 = keep 10% free)?
pub fn fits_on(gpu: &GpuSpec, est: &MemoryEstimate, headroom_frac: f64) -> bool {
    assert!((0.0..1.0).contains(&headroom_frac));
    let budget = (gpu.memory_bytes() as f64 * (1.0 - headroom_frac)) as u64;
    est.total() <= budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcost::DeviceCostModel;
    use predtop_cluster::Platform;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{intra, MeshShape, ParallelConfig};

    fn stage_graph(layers: usize) -> Graph {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.seq_len = 64;
        m.hidden = 128;
        m.num_heads = 8;
        m.vocab = 512;
        m.num_layers = 8;
        StageSpec::new(m, 1, 1 + layers).build_graph()
    }

    fn plan_for(graph: &Graph, mesh: MeshShape, config: ParallelConfig) -> IntraPlan {
        let platform = Platform::platform1();
        let cost = DeviceCostModel::new(&platform.mesh(mesh.nodes, mesh.gpus_per_node), 1);
        intra::optimize(graph, mesh, config, &cost)
    }

    #[test]
    fn serial_memory_accounts_everything() {
        let g = stage_graph(2);
        let plan = plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let est = estimate_stage_memory(&g, &plan);
        assert!(est.params > 0);
        assert_eq!(est.grads, est.params);
        assert_eq!(est.optimizer, 6 * est.params);
        assert!(est.activations > 0);
        // serial params = raw param bytes
        assert_eq!(est.params, predtop_parallel::intra::param_bytes(&g));
    }

    #[test]
    fn dp_shrinks_activations_not_params() {
        let g = stage_graph(2);
        let serial = estimate_stage_memory(
            &g,
            &plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL),
        );
        let dp2 = estimate_stage_memory(
            &g,
            &plan_for(&g, MeshShape::new(1, 2), ParallelConfig::new(2, 1)),
        );
        assert_eq!(dp2.params, serial.params, "DP replicates weights");
        assert!(dp2.activations < serial.activations, "DP splits the batch");
    }

    #[test]
    fn mp_shrinks_params_when_dots_shard() {
        let g = stage_graph(2);
        let serial = estimate_stage_memory(
            &g,
            &plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL),
        );
        let mp2_plan = plan_for(&g, MeshShape::new(1, 2), ParallelConfig::new(1, 2));
        let sharded_dots = g
            .nodes()
            .iter()
            .filter(|n| {
                n.kind == NodeKind::Operator(OpKind::DotGeneral)
                    && matches!(
                        mp2_plan.sharding[n.id.index()],
                        Sharding::ColSharded | Sharding::PartialSum
                    )
            })
            .count();
        let mp2 = estimate_stage_memory(&g, &mp2_plan);
        if sharded_dots > 0 {
            assert!(mp2.params < serial.params, "TP shards weights");
        } else {
            assert_eq!(mp2.params, serial.params);
        }
    }

    #[test]
    fn fits_on_respects_headroom() {
        let gpu = GpuSpec::a5500(); // 24 GiB
        let small = MemoryEstimate {
            params: 1 << 30,
            grads: 1 << 30,
            optimizer: 6 << 30,
            activations: 1 << 30,
        };
        assert!(fits_on(&gpu, &small, 0.1)); // 9 GiB in 21.6 GiB budget
        let big = MemoryEstimate {
            params: 4 << 30,
            grads: 4 << 30,
            optimizer: 24 << 30,
            activations: 4 << 30,
        };
        assert!(!fits_on(&gpu, &big, 0.1)); // 36 GiB > 24 GiB
    }

    #[test]
    fn activation_profile_sums_to_the_estimate() {
        let g = stage_graph(3);
        for (mesh, config) in [
            (MeshShape::new(1, 1), ParallelConfig::SERIAL),
            (MeshShape::new(1, 2), ParallelConfig::new(2, 1)),
            (MeshShape::new(1, 2), ParallelConfig::new(1, 2)),
        ] {
            let plan = plan_for(&g, mesh, config);
            let profile = activation_profile(&g, &plan);
            assert_eq!(profile.len(), g.len());
            let est = estimate_stage_memory(&g, &plan);
            assert_eq!(profile.iter().sum::<u64>(), est.activations);
            // weight inputs never contribute activation bytes
            for n in g.nodes() {
                if n.kind == NodeKind::Input && n.id.index() != 0 {
                    assert_eq!(profile[n.id.index()], 0, "weight {:?}", n.id);
                }
            }
        }
    }

    #[test]
    fn table4_gpt3_needs_multiple_devices() {
        // the actual 1.3B-parameter model: one layer's slice fits, but
        // the full 24-layer model with optimizer state exceeds one A5500
        let model = ModelSpec::gpt3_1p3b(1);
        let g = StageSpec::new(model, 0, 24).build_graph();
        let plan = plan_for(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let est = estimate_stage_memory(&g, &plan);
        // 1.3B params × 2 bytes × 8 (w+g+opt) ≈ 21 GB + activations
        assert!(
            !fits_on(&GpuSpec::a5500(), &est, 0.1),
            "full GPT-3 1.3B should not fit one 24 GiB GPU: {} GiB",
            est.total() >> 30
        );
    }
}
