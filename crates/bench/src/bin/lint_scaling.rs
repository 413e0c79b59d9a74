//! Wall-clock cost of the graph-lint engine over a plan search's worth
//! of stage windows.
//!
//! Runs every analysis pass over every enumerated stage window of a
//! deep dense decoder, each graph analyzed from scratch, and reports
//! the sweep's wall time and finding count. Results are written as
//! stable-schema JSON (default `BENCH_lint.json`; override with
//! `--out PATH`) alongside `search_scaling`'s artifact.
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

use std::path::PathBuf;
use std::time::Instant;

use predtop_analyze::analyze_graph;
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
    let doc = Json::obj()
        .field("schema_version", 3u64)
        .field("benchmark", "lint_scaling")
        .field("mode", if cli.smoke { "smoke" } else { "full" })
        .field(
            "available_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("kernel_isa", predtop_tensor::active_isa().name())
        .field("model_layers", model.num_layers)
        .field("graphs", graphs.len())
        .field("rows", rows);
    write_json_file(&cli.out, &doc);
    println!("saved {}", cli.out.display());
}
