//! Wall-clock scaling of the graph-lint engine over a plan search's
//! worth of stage windows.
//!
//! The checked plan search lints the same layer-window graphs the
//! profiler evaluates — and deep decoders repeat a handful of
//! structural shapes across hundreds of windows. This benchmark runs
//! every analysis pass over every enumerated stage window of a deep
//! dense decoder, first fresh (every graph analyzed from scratch) and
//! then through [`GraphLintCache`]'s structural-hash memoization, and
//! reports the wall-clock split plus the cache's hit/miss accounting.
//! The memoized reports are checked bit-identical to the fresh ones —
//! memoization must never change a finding. Results are written as
//! stable-schema JSON (default `BENCH_lint.json`; override with
//! `--out PATH`) alongside `search_scaling`'s artifact.
//!
//! The default model is a 48-layer dense decoder with shrunk
//! hyper-parameters (1176 layer windows, few distinct structures);
//! `--smoke` switches to 16 layers for CI-speed runs.
//!
//! ```sh
//! cargo run --release --bin lint_scaling
//! cargo run --release --bin lint_scaling -- --smoke
//! cargo run --release --bin lint_scaling -- --out results/BENCH_lint.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use predtop_analyze::{analyze_graph, Diagnostic, GraphLintCache};
use predtop_bench::jsonout::{write_json_file, Json};
use predtop_models::{enumerate_stages, ModelSpec};

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
    let graphs: Vec<_> = stages.iter().map(|s| s.build_graph()).collect();
    println!(
        "linting {} layer-window graphs of a {}-layer decoder...",
        graphs.len(),
        model.num_layers
    );

    // Best-of-two timing per configuration: one descheduling blip on a
    // loaded runner must not sink a row or the gate built on it.
    let reps = 2;

    // Baseline: every window analyzed from scratch.
    let mut fresh_reports: Vec<Vec<Diagnostic>> = Vec::new();
    let fresh_seconds = (0..reps)
        .map(|_| {
            let start = Instant::now();
            fresh_reports = graphs.iter().map(analyze_graph).collect();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "fresh:    {fresh_seconds:7.3}s wall, {} graphs analyzed",
        graphs.len()
    );

    // Memoized: one structural-hash cache shared across the sweep.
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut cached_reports: Vec<Vec<Diagnostic>> = Vec::new();
    let cached_seconds = (0..reps)
        .map(|_| {
            let cache = GraphLintCache::new();
            let start = Instant::now();
            cached_reports = graphs
                .iter()
                .map(|g| cache.analyze(g).as_ref().clone())
                .collect();
            let seconds = start.elapsed().as_secs_f64();
            let stats = cache.stats();
            hits = stats.hits;
            misses = stats.misses;
            seconds
        })
        .fold(f64::INFINITY, f64::min);
    let speedup = fresh_seconds / cached_seconds;
    println!(
        "memoized: {cached_seconds:7.3}s wall ({speedup:5.2}x), \
         {hits} hits / {misses} misses ({} distinct structures)",
        misses
    );

    assert_eq!(
        fresh_reports, cached_reports,
        "memoization changed a finding"
    );
    assert_eq!(hits + misses, graphs.len() as u64);
    println!("memoized reports bit-identical to fresh analysis — cache is sound");

    let rows = vec![
        Json::obj()
            .field("memoized", false)
            .field("seconds", fresh_seconds)
            .field("graphs", graphs.len())
            .field("hits", 0u64)
            .field("misses", graphs.len() as u64),
        Json::obj()
            .field("memoized", true)
            .field("seconds", cached_seconds)
            .field("graphs", graphs.len())
            .field("hits", hits)
            .field("misses", misses),
    ];
    let doc = Json::obj()
        .field("schema_version", 2u64)
        .field("benchmark", "lint_scaling")
        .field("mode", if cli.smoke { "smoke" } else { "full" })
        .field(
            "available_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("kernel_isa", predtop_tensor::active_isa().name())
        .field("model_layers", model.num_layers)
        .field("graphs", graphs.len())
        .field("rows", rows)
        .field("memoized_speedup", speedup)
        .field("cache_hits", hits)
        .field("cache_misses", misses)
        .field("reports_bit_identical", true);
    write_json_file(&cli.out, &doc);
    println!("saved {}", cli.out.display());
}
