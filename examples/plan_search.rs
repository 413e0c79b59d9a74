//! Automatic parallelization-plan search (§VIII-B): full profiling vs
//! partial profiling vs PredTOP on the simulated Platform 2 cluster.
//!
//! ```sh
//! cargo run --release --example plan_search
//! ```
//!
//! Prints the plan each method chooses, its true iteration latency, and
//! the profiling bill each method ran up — the Fig. 10 story in one run.

use predtop::prelude::*;
use predtop::sim::costing::CostTotals;

fn describe(plan: &PipelinePlan) -> String {
    plan.stages
        .iter()
        .map(|s| {
            format!(
                "{}@{}[{}]",
                s.stage.label(),
                s.mesh.label(),
                s.config.remark()
            )
        })
        .collect::<Vec<_>>()
        .join("  |  ")
}

fn main() {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;

    let platform = Platform::platform2();
    let cluster = MeshShape::new(2, 2);
    let opts = InterStageOptions {
        microbatches: 8,
        imbalance_tolerance: None,
    };

    // --- Alpa-style full profiling -------------------------------------
    let profiler = SimProfiler::new(platform.clone(), 7);
    let full = run_search(
        &SearchRequest::new(model, cluster, opts),
        &profiler,
        &profiler,
    )
    .expect("the simulator serves every scenario");
    let full_bill: CostTotals = profiler.ledger().totals();
    println!(
        "search engine: {} worker thread(s) (set PREDTOP_THREADS to change), {:.2}s wall\n",
        configured_threads(),
        full.search_seconds
    );
    println!(
        "full profiling ({} stage profiles, {:.0} simulated s):",
        full_bill.stages_profiled, full_bill.profiling_s
    );
    println!("  plan: {}", describe(&full.plan));
    println!("  true iteration latency: {:.5} s\n", full.true_latency);

    // --- partial profiling (vanilla Alpa heuristic) ---------------------
    let profiler_p = SimProfiler::new(platform.clone(), 7);
    let partial_opts = InterStageOptions {
        microbatches: 8,
        imbalance_tolerance: Some(0.25),
    };
    let partial = run_search(
        &SearchRequest::new(model, cluster, partial_opts),
        &profiler_p,
        &profiler_p,
    )
    .expect("the simulator serves every scenario");
    let partial_bill = profiler_p.ledger().totals();
    println!(
        "partial profiling ({} stage profiles, {:.0} simulated s):",
        partial_bill.stages_profiled, partial_bill.profiling_s
    );
    println!("  plan: {}", describe(&partial.plan));
    println!("  true iteration latency: {:.5} s\n", partial.true_latency);

    // --- PredTOP ---------------------------------------------------------
    let profiler_pt = SimProfiler::new(platform.clone(), 7);
    let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
    arch.hidden = 32;
    arch.layers = 2;
    let cfg = GrayBoxConfig {
        num_profile_stages: 20,
        max_stage_layers: 4,
        arch,
        train: TrainConfig::quick(60),
        seed: 7,
    };
    println!(
        "PredTOP: profiling a {}-stage sample + training...",
        cfg.num_profile_stages
    );
    let predtop = PredTop::fit(model, cluster, &profiler_pt, &cfg);
    let pt_bill = profiler_pt.ledger().totals();
    let truth = SimProfiler::new(platform.clone(), 7);
    let predicted = run_search(&SearchRequest::new(model, cluster, opts), &predtop, &truth)
        .expect("the predictor serves every fitted scenario");
    println!(
        "PredTOP ({} stage profiles, {:.0} simulated s + {:.1}s training + {:.1}s inference):",
        pt_bill.stages_profiled,
        pt_bill.profiling_s,
        predtop.training_seconds,
        predtop.inference_seconds()
    );
    println!("  plan: {}", describe(&predicted.plan));
    println!("  true iteration latency: {:.5} s", predicted.true_latency);

    let degradation = 100.0 * (predicted.true_latency - full.true_latency) / full.true_latency;
    let saving = 100.0 * (1.0 - pt_bill.profiling_s / partial_bill.profiling_s);
    println!(
        "\nsummary: PredTOP cut the profiling bill by {saving:.1}% vs partial profiling \
         at {degradation:+.2}% plan-latency degradation"
    );
}
