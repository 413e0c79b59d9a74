//! A white-box analytical baseline predictor (the Related-Work §IX-A
//! "operator-based, white-box" family: Paleo, Habitat's scaling model).
//!
//! It estimates a stage's latency from first principles only — published
//! peak FLOP/s, memory bandwidth, textbook utilization constants, and
//! ideal collectives — with *no* access to profiled data. Comparing its
//! MRE against the trained predictors (`bench/baseline_analytic`)
//! demonstrates the paper's premise that "metrics such as FLOPS ... are
//! unreliable in modern DNN models": the real (simulated) hardware has
//! size-dependent efficiency curves, wave quantization, and kernel
//! effects that a flat-constant model cannot see, while a learned
//! black-box absorbs them from data.

use predtop_cluster::collective::{Collective, CollectiveCost};
use predtop_cluster::Platform;
use predtop_ir::op::ComputeClass;
use predtop_ir::NodeKind;
use predtop_models::StageSpec;
use predtop_parallel::intra::param_bytes;
use predtop_parallel::{MeshShape, ParallelConfig, StageLatencyProvider};
use predtop_service::{LatencyQuery, LatencyReply, LatencyService, ServiceError};
use predtop_sim::opcost::{node_bytes, node_flops};

/// Flat-constant analytical latency model.
///
/// It keeps no cache of its own: the one caller that asks a stage twice
/// (the daemon's `Predict` path) sits behind a `Memoize` layer.
pub struct AnalyticBaseline {
    platform: Platform,
    /// Assumed model-FLOPs utilization for contractions (textbook ~0.5).
    pub mfu: f64,
    /// Assumed memory-bandwidth efficiency for non-contractions.
    pub mem_eff: f64,
    /// Assumed per-operator launch overhead in seconds.
    pub launch_s: f64,
    /// Forward → full-iteration multiplier.
    pub train_factor: f64,
}

impl AnalyticBaseline {
    /// Baseline with textbook constants for `platform`.
    pub fn new(platform: Platform) -> AnalyticBaseline {
        AnalyticBaseline {
            platform,
            mfu: 0.5,
            mem_eff: 0.8,
            launch_s: 4e-6,
            train_factor: 3.0,
        }
    }
}

impl StageLatencyProvider for AnalyticBaseline {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        let graph = stage.build_graph();
        let gpu = &self.platform.gpu;
        let devices = config.num_devices() as f64;

        // compute: flat-constant roofline per node, work ideally divided
        // over all devices
        let mut compute = 0.0;
        for node in graph.nodes() {
            let NodeKind::Operator(op) = node.kind else {
                continue;
            };
            let half = node.dtype.size_bytes() <= 2 && node.dtype.is_float();
            let t = match op.compute_class() {
                ComputeClass::Contraction => node_flops(node) / (gpu.peak_flops(half) * self.mfu),
                _ => {
                    node_bytes(node, graph.preds(node.id).len())
                        / (gpu.mem_bandwidth_bps() * self.mem_eff)
                }
            };
            compute += t / devices + self.launch_s;
        }

        // communication: one gradient all-reduce for dp, one activation
        // all-reduce per model-parallel contraction
        let mesh_full = self.platform.mesh(mesh.nodes, mesh.gpus_per_node);
        let mut comm = 0.0;
        if config.dp > 1 {
            comm += CollectiveCost::on_mesh(&mesh_full, config.num_devices())
                .time_s(Collective::AllReduce, param_bytes(&graph));
        }
        if config.mp > 1 {
            let act_bytes: u64 = graph
                .nodes()
                .iter()
                .filter(|n| {
                    matches!(n.kind, NodeKind::Operator(op) if op.compute_class() == ComputeClass::Contraction)
                })
                .map(|n| n.output_bytes())
                .sum();
            comm += CollectiveCost::on_mesh(&mesh_full, config.mp)
                .time_s(Collective::AllReduce, act_bytes);
        }

        (compute + comm) * self.train_factor
    }
}

impl LatencyService for AnalyticBaseline {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        // first-principles arithmetic needs no profiled data, so the
        // white-box model can serve any query — a reliable middle rung
        // of the predictor → analytic → simulator fallback chain
        Ok(LatencyReply {
            seconds: self.stage_latency(&q.stage, q.mesh, q.config),
            source: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_gnn::mean_relative_error;
    use predtop_models::{sample_stages, ModelSpec};
    use predtop_sim::SimProfiler;

    fn tiny_model() -> ModelSpec {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.seq_len = 64;
        m.hidden = 64;
        m.num_heads = 4;
        m.vocab = 256;
        m.num_layers = 6;
        m
    }

    #[test]
    fn produces_positive_deterministic_estimates() {
        let a = AnalyticBaseline::new(Platform::platform1());
        let stage = StageSpec::new(tiny_model(), 1, 4);
        let t1 = a.stage_latency(&stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        assert!(t1 > 0.0 && t1.is_finite());
        let t2 = a.stage_latency(&stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        assert_eq!(t1, t2);
    }

    #[test]
    fn scales_with_stage_size_and_parallelism() {
        let a = AnalyticBaseline::new(Platform::platform2());
        let m = tiny_model();
        let mesh1 = MeshShape::new(1, 1);
        let short = a.stage_latency(&StageSpec::new(m, 1, 2), mesh1, ParallelConfig::SERIAL);
        let long = a.stage_latency(&StageSpec::new(m, 1, 6), mesh1, ParallelConfig::SERIAL);
        assert!(long > short);
        // dp adds gradient-sync cost relative to its ideal halving
        let mesh2 = MeshShape::new(1, 2);
        let dp = a.stage_latency(&StageSpec::new(m, 1, 6), mesh2, ParallelConfig::new(2, 1));
        assert!(dp < long, "dp still speeds things up at this size");
    }

    #[test]
    fn analytic_is_correlated_but_biased_against_ground_truth() {
        // the whole point: right order of magnitude and direction, yet
        // a systematic error a learned model would remove
        let m = tiny_model();
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let analytic = AnalyticBaseline::new(Platform::platform1());
        let mesh = MeshShape::new(1, 1);
        let stages = sample_stages(m, 12, 4, 3);
        let (mut est, mut truth) = (Vec::new(), Vec::new());
        for s in &stages {
            est.push(analytic.stage_latency(s, mesh, ParallelConfig::SERIAL));
            truth.push(profiler.stage_latency(s, mesh, ParallelConfig::SERIAL));
        }
        let mre = mean_relative_error(&est, &truth);
        assert!(
            mre > 5.0,
            "an uncalibrated white-box cannot be this good: {mre:.1}%"
        );
        assert!(
            mre < 300.0,
            "but it must be in the right ballpark: {mre:.1}%"
        );
        // monotone agreement: bigger true latency -> bigger estimate
        let mut order_ok = 0;
        let mut total = 0;
        for i in 0..stages.len() {
            for j in i + 1..stages.len() {
                total += 1;
                if (truth[i] < truth[j]) == (est[i] < est[j]) {
                    order_ok += 1;
                }
            }
        }
        assert!(
            order_ok * 10 >= total * 7,
            "rank agreement too low: {order_ok}/{total}"
        );
    }
}
