//! Wall-clock cost of the graph-lint engine and of the checked search's
//! legality filter over a plan search's worth of stage windows.
//!
//! Times building and dropping every enumerated stage window's graph of
//! a deep dense decoder on one thread (best of three each), then runs
//! every analysis pass over every window, each graph analyzed from
//! scratch, and reports the sweep's wall time and finding count. Then
//! runs the checked search's filter (`StaticLegality::filter`:
//! divisibility, then the `P1401` memory verdict once per stage
//! structure and configuration) over the decoder's candidate work-list
//! on Platform 2's 2×2 cluster with 2 micro-batches, 21 repetitions
//! each with a fresh filter and profiler, once on one thread and once on
//! every available one: first with Platform 2's own devices, where every
//! verdict fits under the retain-everything ceiling the filter reads
//! from part sums, so no stage graph is built, then with a 0.01 GiB
//! device, where many ceilings overflow, their structures' graphs are
//! built, verdicts take the exact liveness sweep and `P1401` rejects.
//! Each filter row reports the median of its repetitions and their
//! count, and counts the graphs its filter built.
//! Results are written as stable-schema JSON (default
//! `BENCH_lint.json`; override with `--out PATH`) alongside
//! `search_scaling`'s artifact.
//!
//! The default model is a 48-layer dense decoder with shrunk
//! hyper-parameters (1176 layer windows); `--smoke` switches to 16
//! layers (136 windows) for CI-speed runs.
//!
//! ```sh
//! cargo run --release --bin lint_scaling
//! cargo run --release --bin lint_scaling -- --smoke
//! cargo run --release --bin lint_scaling -- --out results/BENCH_lint.json
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use predtop_analyze::{analyze_graph, plan_passes::divisibility_diags, Span};
use predtop_bench::jsonout::{write_json_file, Json};
use predtop_cluster::{GpuSpec, Platform};
use predtop_core::search_legality;
use predtop_ir::Graph;
use predtop_models::{enumerate_stages, ModelSpec, StageSpec};
use predtop_parallel::{enumerate_candidates, InterStageOptions, MeshShape, StageStructure};
use predtop_sim::SimProfiler;

struct Cli {
    out: PathBuf,
    smoke: bool,
}

fn parse_cli() -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        out: PathBuf::from("BENCH_lint.json"),
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                cli.out = PathBuf::from(argv.get(i).expect("--out PATH"));
            }
            "--smoke" => cli.smoke = true,
            other => {
                eprintln!("unknown argument `{other}`\nusage: [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cli
}

fn bench_model(smoke: bool) -> ModelSpec {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 32;
    model.hidden = 32;
    model.num_heads = 4;
    model.vocab = 64;
    model.num_layers = if smoke { 16 } else { 48 };
    model
}

fn main() {
    let cli = parse_cli();
    let model = bench_model(cli.smoke);
    let stages = enumerate_stages(model);
    let graph_row = graph_row(&stages);
    let graphs: Vec<_> = stages.iter().map(|s| s.build_graph()).collect();
    println!(
        "linting {} layer-window graphs of a {}-layer decoder...",
        graphs.len(),
        model.num_layers
    );

    // Best-of-two timing: one descheduling blip on a loaded runner must
    // not sink the row.
    let reps = 2;
    let mut findings = 0usize;
    let seconds = (0..reps)
        .map(|_| {
            let start = Instant::now();
            findings = graphs.iter().map(|g| analyze_graph(g).len()).sum();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "fresh: {seconds:7.3}s wall, {} graphs analyzed, {findings} findings",
        graphs.len()
    );

    let rows = vec![Json::obj()
        .field("seconds", seconds)
        .field("graphs", graphs.len())
        .field("findings", findings)];

    let opts = InterStageOptions {
        microbatches: 2,
        imbalance_tolerance: None,
    };
    let work = enumerate_candidates(model, MeshShape::new(2, 2), opts);
    // what the memory rule must judge: the distinct (structure, config)
    // pairs among the candidates the divisibility rules pass, and the
    // structures among them (the most graphs a filter can build)
    let pairs: HashSet<_> = work
        .iter()
        .filter(|(_, _, c)| {
            divisibility_diags(&model, opts.microbatches, *c, Span::Plan, None).is_empty()
        })
        .map(|(s, _, c)| (StageStructure::of(s), *c))
        .collect();
    let structures = pairs.iter().map(|(s, _)| s).collect::<HashSet<_>>().len();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let platform_gpu = Platform::platform2().gpu;
    let tight_gpu = GpuSpec {
        name: "tight-lint-gpu",
        memory_gib: 0.01,
        ..platform_gpu.clone()
    };
    let filter_rows: Vec<Json> = [platform_gpu, tight_gpu]
        .iter()
        .flat_map(|gpu| [1, available].map(|threads| (gpu, threads)))
        .map(|(gpu, threads)| filter_row(model, opts, &work, gpu, threads))
        .collect();

    let doc = Json::obj()
        .field("schema_version", 8u64)
        .field("benchmark", "lint_scaling")
        .field("mode", if cli.smoke { "smoke" } else { "full" })
        .field(
            "available_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("kernel_isa", predtop_tensor::active_isa().name())
        .field("model_layers", model.num_layers)
        .field("graphs", graphs.len())
        .field("graph_row", graph_row)
        .field("rows", rows)
        .field("filter_candidates", work.len())
        .field("filter_structures", structures)
        .field("filter_structure_configs", pairs.len())
        .field("filter_rows", filter_rows);
    write_json_file(&cli.out, &doc);
    println!("saved {}", cli.out.display());
}

/// Building and dropping the graph of every window in `stages` on one
/// thread: best of three repetitions for each phase.
fn graph_row(stages: &[StageSpec]) -> Json {
    let mut build_s = f64::INFINITY;
    let mut drop_s = f64::INFINITY;
    let (mut nodes, mut edges) = (0, 0);
    for _ in 0..3 {
        let start = Instant::now();
        let graphs: Vec<Graph> = stages.iter().map(StageSpec::build_graph).collect();
        build_s = build_s.min(start.elapsed().as_secs_f64());
        nodes = graphs.iter().map(Graph::len).sum::<usize>();
        edges = graphs.iter().map(Graph::num_edges).sum::<usize>();
        let start = Instant::now();
        drop(graphs);
        drop_s = drop_s.min(start.elapsed().as_secs_f64());
    }
    println!(
        "graphs: {} built in {build_s:7.4}s, dropped in {drop_s:7.4}s \
         ({nodes} nodes, {edges} edges)",
        stages.len()
    );
    Json::obj()
        .field("graphs", stages.len())
        .field("nodes", nodes)
        .field("edges", edges)
        .field("build_s", build_s)
        .field("drop_s", drop_s)
}

/// Fresh filters a filter row times; its figure is their median.
const FILTER_SAMPLES: usize = 21;

/// The checked search's phase 1 over `work` on `threads` workers, its
/// filter built by `search_legality` for Platform 2 fitted with `gpu`:
/// the median of [`FILTER_SAMPLES`] repetitions, each with a fresh
/// filter and profiler (so the filter's set-up, every graph it needs
/// and every verdict are inside the timing). The counts repeat exactly;
/// the last repetition's are kept.
fn filter_row(
    model: ModelSpec,
    opts: InterStageOptions,
    work: &[predtop_parallel::intern::SubProblem],
    gpu: &GpuSpec,
    threads: usize,
) -> Json {
    let mut samples = Vec::with_capacity(FILTER_SAMPLES);
    let mut counts = (0, 0, 0, 0, 0);
    for _ in 0..FILTER_SAMPLES {
        let platform = Platform {
            gpu: gpu.clone(),
            ..Platform::platform2()
        };
        let profiler = SimProfiler::new(platform, 1);
        // the filter's set-up emits its model's parts: time it too
        let start = Instant::now();
        let legality = search_legality(model, &profiler, opts);
        let legal = legality.filter(work.to_vec(), threads);
        samples.push(start.elapsed().as_secs_f64());
        assert_eq!(legal.len() + legality.rejections(), work.len());
        counts = (
            legality.rejections(),
            legality.memory_rejections(),
            profiler.graphs().len(),
            legality.memory_checks(),
            legality.memory_sweeps(),
        );
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[FILTER_SAMPLES / 2];
    let (rejections, memory_rejections, graphs, verdicts, sweeps) = counts;
    println!(
        "checked filter, {} GiB, {threads} thread(s): {median:9.5}s wall (median of \
         {FILTER_SAMPLES}), {} candidates, \
         {rejections} rejected ({memory_rejections} by P1401), {graphs} graphs, \
         {verdicts} verdicts ({} early exits, {sweeps} sweeps)",
        gpu.memory_gib,
        work.len(),
        verdicts - sweeps
    );
    Json::obj()
        .field("device", gpu.name)
        .field("memory_gib", gpu.memory_gib)
        .field("threads", threads)
        .field("seconds", median)
        .field("samples", FILTER_SAMPLES)
        .field("candidates", work.len())
        .field("rejections", rejections)
        .field("memory_rejections", memory_rejections)
        .field("graphs", graphs)
        .field("verdicts", verdicts)
        .field("early_exits", verdicts - sweeps)
        .field("sweeps", sweeps)
}
