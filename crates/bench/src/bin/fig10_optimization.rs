//! Fig. 10 — the use case: parallelization-plan search cost and quality.
//!
//! Five methods per benchmark on Platform 2's full cluster:
//!
//! * **Alpa full profiling** — the inter-stage DP with every candidate
//!   profiled (ground truth as provider).
//! * **Alpa partial profiling** — vanilla Alpa's stage-device imbalance
//!   heuristic restricting the profiled candidates.
//! * **PredTOP (GCN / GAT / Tran)** — profile only the sampled training
//!   stages, train predictors, and drive the DP with predictions.
//!
//! Fig. 10a = total optimization cost (simulated profiling seconds plus
//! measured training/inference wall seconds); Fig. 10b = the true
//! iteration latency of each chosen plan, relative to full profiling.

use predtop_bench::{Protocol, TableWriter};
use predtop_cluster::Platform;
use predtop_core::{run_search, search_plan_service, GrayBoxConfig, PredTop, SearchRequest};
use predtop_gnn::ModelKind;
use predtop_parallel::{InterStageOptions, MeshShape};
use predtop_runtime::configured_threads;
use predtop_service::ServiceBuilder;
use predtop_sim::SimProfiler;

fn main() {
    let proto = Protocol::from_args();
    let platform = Platform::platform2();
    let cluster = MeshShape::new(2, 2);
    let opts = InterStageOptions {
        microbatches: 8,
        imbalance_tolerance: None,
    };
    let partial_opts = InterStageOptions {
        microbatches: 8,
        imbalance_tolerance: Some(0.25),
    };

    let mut cost_table = TableWriter::new(
        "Fig. 10a — optimization cost (seconds: simulated profiling + wall training/inference)",
        &[
            "benchmark",
            "method",
            "stages profiled",
            "profiling (s)",
            "train (s)",
            "infer (s)",
            "total (s)",
            "vs partial",
        ],
    );
    let mut latency_table = TableWriter::new(
        "Fig. 10b — iteration latency of the optimized plan (relative to full profiling)",
        &[
            "benchmark",
            "method",
            "plan latency (s)",
            "degradation (%)",
            "stages",
        ],
    );

    for mut model in [proto.gpt3(), proto.moe()] {
        if !proto.paper {
            // the use-case experiment predicts *every* stage candidate,
            // including near-full-model ones whose N² attention dominates
            // the default single-core budget; halve the pipeline depth
            // (the --paper protocol keeps Table IV's full depth)
            model.num_layers /= 2;
        }
        let bench_name = model.kind.name();

        // ---- full profiling -------------------------------------------
        // Alpa profiles every candidate it enumerates, so no memo layer
        // sits in front of the simulator: structural sharing would
        // shrink the baseline's bill below what Alpa pays
        let profiler = SimProfiler::new(platform.clone(), proto.seed);
        let full_stack = ServiceBuilder::new(&profiler)
            .batched(configured_threads())
            .finish();
        let full = search_plan_service(model, cluster, &full_stack, &profiler, opts, None)
            .expect("the simulator stack serves every scenario");
        let full_cost = profiler.ledger().totals();
        eprintln!(
            "[fig10/{bench_name}] full profiling: {} queries ({} worker threads, \
             {:.2}s wall), {:.0} sim-s, plan {:.4}s",
            full.num_queries,
            configured_threads(),
            full.search_seconds,
            full_cost.profiling_s,
            full.true_latency
        );

        // ---- partial profiling ----------------------------------------
        let profiler_partial = SimProfiler::new(platform.clone(), proto.seed);
        let partial = run_search(
            &SearchRequest::new(model, cluster, partial_opts),
            &profiler_partial,
            &profiler_partial,
        )
        .expect("the simulator serves every scenario");
        let partial_cost = profiler_partial.ledger().totals();
        eprintln!(
            "[fig10/{bench_name}] partial profiling: {} queries, {:.0} sim-s, plan {:.4}s",
            partial.num_queries, partial_cost.profiling_s, partial.true_latency
        );

        let mut add_rows = |method: &str,
                            stages: usize,
                            prof_s: f64,
                            train_s: f64,
                            infer_s: f64,
                            plan_latency: f64| {
            let total = prof_s + train_s + infer_s;
            let vs_partial = 100.0 * (total - partial_cost.profiling_s) / partial_cost.profiling_s;
            cost_table.add_row(vec![
                bench_name.to_string(),
                method.to_string(),
                stages.to_string(),
                format!("{prof_s:.0}"),
                format!("{train_s:.1}"),
                format!("{infer_s:.1}"),
                format!("{total:.0}"),
                format!("{vs_partial:+.1}%"),
            ]);
            let degradation = 100.0 * (plan_latency - full.true_latency) / full.true_latency;
            latency_table.add_row(vec![
                bench_name.to_string(),
                method.to_string(),
                format!("{plan_latency:.4}"),
                format!("{degradation:+.2}"),
                stages.to_string(),
            ]);
        };

        add_rows(
            "Alpa full profiling",
            full_cost.stages_profiled,
            full_cost.profiling_s,
            0.0,
            0.0,
            full.true_latency,
        );
        add_rows(
            "Alpa partial profiling",
            partial_cost.stages_profiled,
            partial_cost.profiling_s,
            0.0,
            0.0,
            partial.true_latency,
        );

        // ---- PredTOP with each architecture ---------------------------
        for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::DagTransformer] {
            let profiler_pt = SimProfiler::new(platform.clone(), proto.seed);
            // §IV-B1: the training sample must span "stages of different
            // sizes" — the DP evaluates near-full-model candidates, and a
            // predictor trained only on short stages would extrapolate
            // disastrously there. No length cap here, fewer stages.
            let cfg = GrayBoxConfig {
                num_profile_stages: (proto.stage_budget(&model) / 2).max(20),
                max_stage_layers: model.num_layers,
                arch: proto.arch(kind),
                train: proto.train,
                seed: proto.seed,
            };
            let pt = PredTop::fit(model, cluster, &profiler_pt, &cfg);
            let sampled_cost = profiler_pt.ledger().totals();
            // ground truth for evaluating the chosen plan must not bill
            // the PredTOP ledger: use a fresh profiler
            let truth = SimProfiler::new(platform.clone(), proto.seed);
            let outcome = run_search(&SearchRequest::new(model, cluster, opts), &pt, &truth)
                .expect("the predictor serves every fitted scenario");
            eprintln!(
                "[fig10/{bench_name}] PredTOP-{}: {} stages profiled, plan {:.4}s",
                kind.label(),
                pt.profiled_stage_count,
                outcome.true_latency
            );
            add_rows(
                &format!("PredTOP ({})", kind.label()),
                sampled_cost.stages_profiled,
                sampled_cost.profiling_s,
                pt.training_seconds,
                pt.inference_seconds(),
                outcome.true_latency,
            );
        }
    }

    cost_table.print();
    latency_table.print();
    let p1 = cost_table.save_json("fig10a_optimization_cost");
    let p2 = latency_table.save_json("fig10b_plan_latency");
    println!("saved {} and {}", p1.display(), p2.display());
}
