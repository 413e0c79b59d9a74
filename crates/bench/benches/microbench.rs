//! Criterion microbenchmarks for the performance-critical kernels:
//! graph construction, pruning, reachability closure, the simulator's
//! intra-stage optimization (one "profile"), predictor inference, the
//! inter-stage DP, and the matmul kernel everything trains on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use predtop_cluster::Platform;
use predtop_core::ArchConfig;
use predtop_gnn::{GraphSample, ModelKind, TrainedPredictor};
use predtop_ir::prune::prune;
use predtop_ir::reach::Reachability;
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{
    enumerate_candidates, solve_pipeline, EvaluatedCandidate, InterStageOptions, MeshShape,
    ParallelConfig, StageLatencyProvider,
};
use predtop_sim::SimProfiler;
use predtop_tensor::Matrix;

fn small_model() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 128;
    m.hidden = 128;
    m.num_heads = 8;
    m.vocab = 1024;
    m.num_layers = 8;
    m
}

fn bench_graph_build(c: &mut Criterion) {
    let model = small_model();
    let mut g = c.benchmark_group("graph_build");
    for layers in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |b, &l| {
            let stage = StageSpec::new(model, 0, l);
            b.iter(|| black_box(stage.build_graph()));
        });
    }
    g.finish();
}

fn bench_prune_and_reach(c: &mut Criterion) {
    let model = small_model();
    let graph = StageSpec::new(model, 0, 4).build_graph();
    c.bench_function("prune_4layer", |b| b.iter(|| black_box(prune(&graph))));
    let (pruned, _) = prune(&graph);
    c.bench_function("reachability_4layer", |b| {
        b.iter(|| black_box(Reachability::compute(&pruned)))
    });
    c.bench_function("sample_build_4layer", |b| {
        b.iter(|| black_box(GraphSample::new(&graph, 0.01, 32)))
    });
}

fn bench_sim_profile(c: &mut Criterion) {
    let model = small_model();
    let stage = StageSpec::new(model, 0, 4);
    c.bench_function("sim_profile_stage", |b| {
        b.iter(|| {
            // fresh profiler so memoization does not hide the work
            let profiler = SimProfiler::new(Platform::platform2(), 7);
            black_box(profiler.stage_latency(
                &stage,
                MeshShape::new(1, 2),
                ParallelConfig::new(1, 2),
            ))
        })
    });
}

fn bench_predictor_inference(c: &mut Criterion) {
    let model = small_model();
    let graph = StageSpec::new(model, 0, 4).build_graph();
    let mut g = c.benchmark_group("predictor_inference");
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::DagTransformer] {
        let arch = ArchConfig::scaled(kind);
        let sample = GraphSample::new(&graph, 0.01, arch.pe_dim());
        let predictor = TrainedPredictor {
            model: arch.build(1),
            scaler: predtop_gnn::TargetScaler {
                mean: 0.0,
                std: 1.0,
            },
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &sample,
            |b, s| b.iter(|| black_box(predictor.predict(s))),
        );
    }
    g.finish();
}

fn bench_interstage_dp(c: &mut Criterion) {
    let model = small_model();
    let cluster = MeshShape::new(2, 2);
    let opts = InterStageOptions {
        microbatches: 8,
        imbalance_tolerance: None,
    };
    // a synthetic candidate table, evaluated once: only the DP is timed
    let cands: Vec<EvaluatedCandidate> = enumerate_candidates(model, cluster, opts)
        .into_iter()
        .map(|(stage, mesh, config)| EvaluatedCandidate {
            stage,
            mesh,
            config,
            seconds: stage.num_layers() as f64 * 0.01 / config.num_devices() as f64
                * (1.0 + 0.1 * mesh.nodes as f64),
        })
        .collect();
    c.bench_function("interstage_dp_8layers", |b| {
        b.iter(|| {
            black_box(solve_pipeline(
                &cands,
                model.num_layers,
                cluster.num_devices(),
                opts.microbatches,
            ))
        })
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for n in [64usize, 256] {
        let a = Matrix::full(n, n, 1.5);
        let b_m = Matrix::full(n, n, 0.5);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("blocked_{n}")),
            &n,
            |b, _| b.iter(|| black_box(a.matmul(&b_m))),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("reference_{n}")),
            &n,
            |b, _| b.iter(|| black_box(a.matmul_ref(&b_m))),
        );
        // attention's Q·Kᵀ: the kernel the blocking fixes most
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("nt_blocked_{n}")),
            &n,
            |b, _| b.iter(|| black_box(a.matmul_nt(&b_m))),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("nt_reference_{n}")),
            &n,
            |b, _| b.iter(|| black_box(a.matmul_nt_ref(&b_m))),
        );
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_graph_build, bench_prune_and_reach, bench_sim_profile,
              bench_predictor_inference, bench_interstage_dp, bench_matmul
}
criterion_main!(benches);
