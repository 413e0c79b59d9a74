//! End-to-end integration: the full gray-box workflow through the
//! public facade — profile, train, predict, search — on a miniature
//! benchmark.

use predtop::prelude::*;

fn tiny_gpt() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    m
}

fn tiny_arch() -> ArchConfig {
    let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
    arch.layers = 1;
    arch.hidden = 16;
    arch.heads = 2;
    arch
}

#[test]
fn graybox_workflow_produces_usable_predictions() {
    let model = tiny_gpt();
    let profiler = SimProfiler::new(Platform::platform1(), 3);
    let cluster = MeshShape::new(1, 2);
    let cfg = GrayBoxConfig {
        num_profile_stages: 14,
        max_stage_layers: 3,
        arch: tiny_arch(),
        train: TrainConfig::quick(20),
        seed: 3,
    };
    let pt = PredTop::fit(model, cluster, &profiler, &cfg);

    // predictions exist for every scenario and are positive & finite
    for &(mesh, config) in pt.scenarios().collect::<Vec<_>>() {
        let stage = StageSpec::new(model, 2, 4);
        let t = pt.stage_latency(&stage, mesh, config);
        assert!(t.is_finite() && t > 0.0, "({mesh:?},{config:?}): {t}");
    }

    // profiling bill was recorded
    let bill = profiler.ledger().totals();
    assert_eq!(bill.stages_profiled, 14 * 3); // 14 stages × 3 scenarios
    assert!(bill.profiling_s > 0.0);
    assert!(bill.training_s > 0.0);
}

#[test]
fn predictor_search_vs_full_profiling_search() {
    let model = tiny_gpt();
    let cluster = MeshShape::new(1, 2);
    let opts = InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    };

    let profiler = SimProfiler::new(Platform::platform1(), 3);
    let full = run_search(
        &SearchRequest::new(model, cluster, opts),
        &profiler,
        &profiler,
    )
    .expect("simulator search is infallible");
    full.plan.validate(&model).unwrap();

    let profiler2 = SimProfiler::new(Platform::platform1(), 3);
    let cfg = GrayBoxConfig {
        num_profile_stages: 10,
        max_stage_layers: 3,
        arch: tiny_arch(),
        train: TrainConfig::quick(25),
        seed: 3,
    };
    let pt = PredTop::fit(model, cluster, &profiler2, &cfg);
    let truth = SimProfiler::new(Platform::platform1(), 3);
    let pred = run_search(&SearchRequest::new(model, cluster, opts), &pt, &truth)
        .expect("the predictor serves every fitted scenario");
    pred.plan.validate(&model).unwrap();

    // optimality of the full search is a hard invariant
    assert!(pred.true_latency >= full.true_latency - 1e-12);
    // the predictor search must profile far fewer stages than full search
    let full_bill = profiler.ledger().totals();
    let pt_bill = profiler2.ledger().totals();
    assert!(
        pt_bill.stages_profiled * 2 < full_bill.stages_profiled,
        "PredTOP profiled {} vs full {}",
        pt_bill.stages_profiled,
        full_bill.stages_profiled
    );
    assert!(pt_bill.profiling_s < full_bill.profiling_s);
}

#[test]
fn partial_profiling_cuts_queries_not_validity() {
    let model = tiny_gpt();
    let cluster = MeshShape::new(1, 2);
    let profiler = SimProfiler::new(Platform::platform1(), 9);
    let search = |imbalance_tolerance| {
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance,
        };
        run_search(
            &SearchRequest::new(model, cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible")
    };
    let full = search(None);
    let partial = search(Some(0.3));
    partial.plan.validate(&model).unwrap();
    assert!(partial.num_queries < full.num_queries);
    assert!(partial.estimated_latency >= full.estimated_latency - 1e-12);
}

#[test]
fn memory_aware_search_avoids_oom_plans() {
    use predtop::sim::{estimate_stage_memory, fits_on, DeviceCostModel};

    // a wide model with a big micro-batch: activations alone overflow one
    // 24 GiB A5500 if the whole model runs as a single serial stage
    let mut model = ModelSpec::gpt3_1p3b(4);
    model.num_layers = 8;

    let platform = Platform::platform2();
    let full_stage = StageSpec::new(model, 0, 8);
    let g = full_stage.build_graph();
    let cost = DeviceCostModel::new(&platform.mesh(1, 1), 7);
    let serial_plan =
        predtop::parallel::intra::optimize(&g, MeshShape::new(1, 1), ParallelConfig::SERIAL, &cost);
    let est = estimate_stage_memory(&g, &serial_plan);
    assert!(
        !fits_on(&platform.gpu, &est, 0.1),
        "precondition: the whole model must OOM one device ({} GiB)",
        est.total() >> 30
    );

    let profiler = SimProfiler::new(platform.clone(), 7).with_memory_check(0.1);
    let opts = InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    };
    let out = run_search(
        &SearchRequest::new(model, MeshShape::new(2, 2), opts),
        &profiler,
        &profiler,
    )
    .expect("simulator search is infallible");
    out.plan.validate(&model).unwrap();
    assert!(
        out.true_latency.is_finite(),
        "search must find a memory-feasible plan"
    );
    // the chosen plan cannot be the single-device single stage
    let single_device_single_stage =
        out.plan.stages.len() == 1 && out.plan.stages[0].mesh.num_devices() == 1;
    assert!(
        !single_device_single_stage,
        "OOM plan chosen: {:?}",
        out.plan
    );
}

#[test]
fn facade_prelude_covers_the_workflow() {
    // compile-time check that the prelude exposes the advertised types;
    // exercise a couple of them at runtime for good measure
    let model = tiny_gpt();
    let stages = enumerate_stages(model);
    assert_eq!(stages.len(), 6 * 7 / 2);
    let sampled = sample_stages(model, 5, 2, 1);
    assert_eq!(sampled.len(), 5);
    let configs = table3_configs(MeshShape::new(2, 2));
    assert_eq!(configs.len(), 3);
    assert_eq!(pipeline_latency(&[1.0, 2.0], 3), 3.0 + 2.0 * 2.0);
}
