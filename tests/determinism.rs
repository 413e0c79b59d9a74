//! Reproducibility contract: everything is a pure function of its seeds.

use predtop::prelude::*;

fn tiny_model() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    m
}

#[test]
fn profiler_is_pure_in_platform_and_seed() {
    let stage = StageSpec::new(tiny_model(), 1, 4);
    let run = |seed: u64| {
        let p = SimProfiler::new(Platform::platform2(), seed);
        [
            p.stage_latency(&stage, MeshShape::new(1, 1), ParallelConfig::SERIAL),
            p.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(2, 1)),
            p.stage_latency(&stage, MeshShape::new(2, 2), ParallelConfig::new(2, 2)),
        ]
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn stage_sampling_and_splits_reproduce() {
    let m = tiny_model();
    assert_eq!(sample_stages(m, 8, 3, 42), sample_stages(m, 8, 3, 42));
    let profiler = SimProfiler::new(Platform::platform1(), 1);
    let samples: Vec<GraphSample> = sample_stages(m, 8, 3, 42)
        .iter()
        .map(|s| {
            let lat = profiler.stage_latency(s, MeshShape::new(1, 1), ParallelConfig::SERIAL);
            GraphSample::new(&profiler.stage_graph(s), lat, 8)
        })
        .collect();
    let ds = Dataset::new(samples);
    assert_eq!(ds.split(0.5, 9).train, ds.split(0.5, 9).train);
    assert_ne!(ds.split(0.5, 9).train, ds.split(0.5, 10).train);
}

#[test]
fn full_workflow_reproduces_bit_for_bit() {
    let m = tiny_model();
    let run = || {
        let profiler = SimProfiler::new(Platform::platform1(), 4);
        let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
        arch.layers = 1;
        arch.hidden = 16;
        arch.heads = 2;
        let cfg = GrayBoxConfig {
            num_profile_stages: 12,
            max_stage_layers: 3,
            arch,
            train: TrainConfig::quick(10),
            seed: 4,
        };
        let pt = PredTop::fit(m, MeshShape::new(1, 2), &profiler, &cfg);
        let stage = StageSpec::new(m, 1, 4);
        pt.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(1, 2))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "wall-clock noise must not leak into predictions");
}

#[test]
fn search_is_deterministic() {
    let m = tiny_model();
    let run = || {
        let profiler = SimProfiler::new(Platform::platform2(), 6);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let out = run_search(
            &SearchRequest::new(m, MeshShape::new(2, 2), opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");
        (out.plan.clone(), out.true_latency)
    };
    let (plan_a, lat_a) = run();
    let (plan_b, lat_b) = run();
    assert_eq!(plan_a, plan_b);
    assert_eq!(lat_a, lat_b);
}

#[test]
fn predictor_driven_search_is_bit_identical_at_every_thread_count() {
    let m = tiny_model();
    let cluster = MeshShape::new(1, 2);
    let opts = InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    };
    let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
    arch.layers = 1;
    arch.hidden = 16;
    arch.heads = 2;
    let cfg = GrayBoxConfig {
        num_profile_stages: 12,
        max_stage_layers: 3,
        arch,
        train: TrainConfig::quick(4),
        seed: 4,
    };
    // the predictor keys its cache on the stage structure: one round of
    // forwards per distinct window structure
    let structures: std::collections::HashSet<_> =
        predtop::parallel::enumerate_candidates(m, cluster, opts)
            .iter()
            .map(|(stage, _, _)| predtop::parallel::StageStructure::of(stage))
            .collect();

    let run = |threads: usize| {
        let pt = PredTop::fit(
            m,
            cluster,
            &SimProfiler::new(Platform::platform1(), 4),
            &cfg,
        );
        let out = run_search(
            &SearchRequest::new(m, cluster, opts).threads(threads),
            &pt,
            &SimProfiler::new(Platform::platform1(), 4),
        )
        .expect("the predictor serves every fitted scenario");
        assert_eq!(
            pt.inferred_stages(),
            structures.len(),
            "{threads} threads: one inference per distinct structure"
        );
        out
    };
    let first = run(1);
    for threads in [2, 4] {
        let out = run(threads);
        assert_eq!(out.plan, first.plan, "plan diverged at {threads} threads");
        assert_eq!(
            out.estimated_latency.to_bits(),
            first.estimated_latency.to_bits(),
            "estimated latency diverged at {threads} threads"
        );
        assert_eq!(
            out.true_latency.to_bits(),
            first.true_latency.to_bits(),
            "true latency diverged at {threads} threads"
        );
    }
}

#[test]
fn random_plans_reproduce_per_seed() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);
    for seed in 0..10 {
        let a = predtop::parallel::plan::random_plan(m, cluster, 4, seed);
        let b = predtop::parallel::plan::random_plan(m, cluster, 4, seed);
        assert_eq!(a, b);
    }
}
