//! The simulated profiler: ground-truth stage latencies with cost
//! metering.
//!
//! [`SimProfiler`] plays the role of "compile the stage with Alpa's
//! intra-operator pass and time it on the mesh": each query takes the
//! stage's operator graph (built once per stage structure, see
//! [`SimProfiler::graphs`]), runs the intra-stage sharding optimizer
//! under the device cost model, and returns the optimal
//! training-iteration latency. Queries are memoized (a stage is only
//! ever profiled once per (mesh, configuration)), and every *fresh*
//! profile is charged to the [`CostLedger`] so experiments can compare
//! profiling bills.
//!
//! As a `LatencyService` the profiler is **infallible**: it can answer
//! any (stage, mesh, config) scenario, so a stack rooted at a
//! `SimProfiler` only ever errors through the fault-tolerance layers
//! wrapped around it (`FaultInject`, `Deadline` — see `DESIGN.md`
//! §10). That makes it the canonical base service for chaos
//! tests: every failure is injected, so recovery can be asserted to
//! reproduce the profiler's bit-exact ground truth. Its memoization is
//! also what makes re-asking safe — a retried query replays the cached
//! latency rather than re-rolling any simulator state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use predtop_cluster::Platform;
use predtop_models::StageSpec;
use predtop_parallel::{
    intra::{self, param_bytes},
    MeshShape, ParallelConfig, StageGraphs, StageLatencyProvider,
};

use predtop_service::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

use crate::costing::{CostLedger, CostingModel};
use crate::memory::{estimate_stage_memory, fits_on};
use crate::opcost::DeviceCostModel;

type Key = (StageSpec, MeshShape, ParallelConfig);

/// Ground-truth latency provider backed by the cluster simulator.
pub struct SimProfiler {
    platform: Platform,
    seed: u64,
    costing: CostingModel,
    ledger: CostLedger,
    latency_cache: Mutex<HashMap<Key, f64>>,
    graphs: Arc<StageGraphs>,
    memory_headroom: Option<f64>,
    queries: AtomicUsize,
}

impl SimProfiler {
    /// New profiler for `platform` with perturbation `seed`.
    pub fn new(platform: Platform, seed: u64) -> SimProfiler {
        SimProfiler {
            platform,
            seed,
            costing: CostingModel::default(),
            ledger: CostLedger::new(),
            latency_cache: Mutex::new(HashMap::new()),
            graphs: Arc::new(StageGraphs::new()),
            memory_headroom: None,
            queries: AtomicUsize::new(0),
        }
    }

    /// Enable per-device memory feasibility checking: a (stage, mesh,
    /// configuration) whose estimated footprint exceeds the GPU's
    /// capacity (minus `headroom_frac` slack) profiles as
    /// `f64::INFINITY`, which the inter-stage DP naturally excludes.
    ///
    /// Leave disabled when generating predictor *training* data — the
    /// log-scaling target transform cannot represent infinite latencies.
    pub fn with_memory_check(mut self, headroom_frac: f64) -> SimProfiler {
        assert!((0.0..1.0).contains(&headroom_frac));
        self.memory_headroom = Some(headroom_frac);
        self
    }

    /// The platform this profiler simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The cost ledger accumulating the profiling bill.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The stage's graph from [`graphs`](Self::graphs), built on first
    /// use of its structure: structurally equal stages (`[1, 3)` and
    /// `[2, 4)` of a dense decoder) share one graph. Ground truth always
    /// uses the *un-pruned* graph — pruning is a predictor-side
    /// preprocessing step, not a change to the program that runs.
    pub fn stage_graph(&self, stage: &StageSpec) -> Arc<predtop_ir::Graph> {
        self.graphs.get(stage)
    }

    /// The profiler's stage-graph store, for analyses that need the
    /// same graphs (the checked search's legality filter borrows it).
    pub fn graphs(&self) -> Arc<StageGraphs> {
        Arc::clone(&self.graphs)
    }

    /// Number of distinct (stage, mesh, config) combinations profiled.
    pub fn profiles_taken(&self) -> usize {
        self.latency_cache.lock().len()
    }

    /// Total `stage_latency` calls served (memoized hits included) since
    /// construction or the last [`reset`](SimProfiler::reset). An atomic
    /// counter, so the parallel search engine's worker threads can query
    /// concurrently; compare with [`profiles_taken`](Self::profiles_taken)
    /// to see how much the built-in memoization saved.
    pub fn queries_issued(&self) -> usize {
        self.queries.load(Ordering::Relaxed)
    }

    /// Clear the memoization, query counter, and ledger (fresh campaign).
    pub fn reset(&self) {
        self.latency_cache.lock().clear();
        self.queries.store(0, Ordering::Relaxed);
        self.ledger.reset();
    }
}

impl StageLatencyProvider for SimProfiler {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        let key = (*stage, mesh, config);
        self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(&t) = self.latency_cache.lock().get(&key) {
            return t;
        }
        let graph = self.stage_graph(stage);
        let cluster_mesh = self.platform.mesh(mesh.nodes, mesh.gpus_per_node);
        let cost_model = DeviceCostModel::new(&cluster_mesh, self.seed);
        let plan = intra::optimize(&graph, mesh, config, &cost_model);
        let mut latency = plan.total;
        if let Some(headroom) = self.memory_headroom {
            let est = estimate_stage_memory(&graph, &plan);
            if !fits_on(&cluster_mesh.gpu, &est, headroom) {
                latency = f64::INFINITY;
            }
        }

        self.ledger.add_profile(self.costing.profile_stage_s(
            graph.len(),
            param_bytes(&graph),
            latency,
        ));
        self.latency_cache.lock().insert(key, latency);
        latency
    }
}

impl LatencyService for SimProfiler {
    fn name(&self) -> &'static str {
        "simulator"
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        // the simulator can cost any (stage, mesh, config) triple, so it
        // is the infallible base of every fallback chain
        Ok(LatencyReply {
            seconds: self.stage_latency(&q.stage, q.mesh, q.config),
            source: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_models::ModelSpec;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 64;
        s.hidden = 64;
        s.num_heads = 4;
        s.vocab = 256;
        s.num_layers = 4;
        s
    }

    #[test]
    fn latency_positive_and_deterministic() {
        let p = SimProfiler::new(Platform::platform1(), 7);
        let stage = StageSpec::new(tiny_model(), 1, 3);
        let mesh = MeshShape::new(1, 1);
        let t1 = p.stage_latency(&stage, mesh, ParallelConfig::SERIAL);
        assert!(t1 > 0.0);
        let p2 = SimProfiler::new(Platform::platform1(), 7);
        let t2 = p2.stage_latency(&stage, mesh, ParallelConfig::SERIAL);
        assert_eq!(t1, t2, "same platform+seed must reproduce");
        let p3 = SimProfiler::new(Platform::platform1(), 8);
        let t3 = p3.stage_latency(&stage, mesh, ParallelConfig::SERIAL);
        assert_ne!(t1, t3, "seed changes ground truth");
    }

    #[test]
    fn more_layers_cost_more() {
        let p = SimProfiler::new(Platform::platform1(), 7);
        let m = tiny_model();
        let mesh = MeshShape::new(1, 1);
        let t_short = p.stage_latency(&StageSpec::new(m, 1, 2), mesh, ParallelConfig::SERIAL);
        let t_long = p.stage_latency(&StageSpec::new(m, 1, 4), mesh, ParallelConfig::SERIAL);
        assert!(t_long > t_short);
    }

    #[test]
    fn parallelism_configs_change_latency() {
        let p = SimProfiler::new(Platform::platform2(), 7);
        let stage = StageSpec::new(tiny_model(), 0, 4);
        let mesh = MeshShape::new(1, 2);
        let dp = p.stage_latency(&stage, mesh, ParallelConfig::new(2, 1));
        let mp = p.stage_latency(&stage, mesh, ParallelConfig::new(1, 2));
        assert_ne!(dp, mp, "Fig. 2's premise: configs matter");
    }

    #[test]
    fn caching_profiles_once() {
        let p = SimProfiler::new(Platform::platform1(), 7);
        let stage = StageSpec::new(tiny_model(), 0, 2);
        let mesh = MeshShape::new(1, 1);
        let _ = p.stage_latency(&stage, mesh, ParallelConfig::SERIAL);
        let bill1 = p.ledger().totals();
        let _ = p.stage_latency(&stage, mesh, ParallelConfig::SERIAL);
        let bill2 = p.ledger().totals();
        assert_eq!(bill1, bill2, "cache hit must not re-bill");
        assert_eq!(p.profiles_taken(), 1);
        // both calls count as queries even though only one profiled
        assert_eq!(p.queries_issued(), 2);
        p.reset();
        assert_eq!(p.queries_issued(), 0);
        assert_eq!(p.profiles_taken(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_scenario() -> impl Strategy<Value = (StageSpec, MeshShape, ParallelConfig)> {
            (0usize..4, 1usize..=4, 0usize..3usize, any::<u8>()).prop_map(
                |(start, len, mesh_i, cfg_roll)| {
                    let m = tiny_model();
                    let end = (start + len).min(m.num_layers);
                    let start = start.min(end - 1);
                    let mesh = [
                        MeshShape::new(1, 1),
                        MeshShape::new(1, 2),
                        MeshShape::new(2, 2),
                    ][mesh_i];
                    let configs = predtop_parallel::table3_configs(mesh);
                    let config = configs[cfg_roll as usize % configs.len()];
                    (StageSpec::new(m, start, end), mesh, config)
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn prop_any_scenario_profiles_sanely((stage, mesh, config) in arb_scenario()) {
                let p = SimProfiler::new(Platform::platform2(), 11);
                let t = p.stage_latency(&stage, mesh, config);
                prop_assert!(t.is_finite() && t > 0.0, "{t}");
                // and deterministically
                let p2 = SimProfiler::new(Platform::platform2(), 11);
                prop_assert_eq!(t, p2.stage_latency(&stage, mesh, config));
            }

            #[test]
            fn prop_supersets_cost_more((stage, mesh, config) in arb_scenario()) {
                let m = tiny_model();
                prop_assume!(stage.end < m.num_layers);
                let bigger = StageSpec::new(m, stage.start, stage.end + 1);
                let p = SimProfiler::new(Platform::platform2(), 11);
                let t_small = p.stage_latency(&stage, mesh, config);
                let t_big = p.stage_latency(&bigger, mesh, config);
                // adding a layer adds its compute minus at most the ±10%
                // perturbation band
                prop_assert!(t_big > t_small * 0.85, "{t_big} vs {t_small}");
            }
        }
    }

    #[test]
    fn memory_check_rejects_oversized_stages() {
        // the full Table IV GPT-3 (1.3B params + Adam state ≈ 21 GB)
        // cannot train on one 24 GiB A5500 but fits one 48 GiB A40
        let model = ModelSpec::gpt3_1p3b(1);
        let stage = StageSpec::new(model, 0, 24);
        let mesh = MeshShape::new(1, 1);

        let p2 = SimProfiler::new(Platform::platform2(), 7).with_memory_check(0.1);
        assert_eq!(
            p2.stage_latency(&stage, mesh, ParallelConfig::SERIAL),
            f64::INFINITY,
            "1.3B + optimizer state must OOM a 24 GiB GPU"
        );

        let p1 = SimProfiler::new(Platform::platform1(), 7).with_memory_check(0.1);
        let half = StageSpec::new(model, 6, 18);
        let t = p1.stage_latency(&half, mesh, ParallelConfig::SERIAL);
        assert!(t.is_finite(), "half the model fits a 48 GiB A40: {t}");

        // without the check the same query is finite everywhere
        let unchecked = SimProfiler::new(Platform::platform2(), 7);
        assert!(unchecked
            .stage_latency(&stage, mesh, ParallelConfig::SERIAL)
            .is_finite());
    }

    #[test]
    fn ledger_charges_fresh_profiles() {
        let p = SimProfiler::new(Platform::platform1(), 7);
        let m = tiny_model();
        let mesh = MeshShape::new(1, 2);
        for cfg in [ParallelConfig::new(2, 1), ParallelConfig::new(1, 2)] {
            let _ = p.stage_latency(&StageSpec::new(m, 0, 2), mesh, cfg);
        }
        let t = p.ledger().totals();
        assert_eq!(t.stages_profiled, 2);
        assert!(t.profiling_s > 2.0 * CostingModel::default().compile_base_s);
    }
}
