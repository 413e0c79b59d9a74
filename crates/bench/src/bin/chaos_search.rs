//! Chaos benchmark of the fault-tolerant search stack.
//!
//! Runs the same full-profiling inter-stage search twice — clean, and
//! under a 20% injected transient-fault rate behind `Retry(3)` — and
//! verifies both land on the bit-identical plan. Prints the wall clocks
//! plus every reliability counter, and exits non-zero itself on any
//! divergence: the determinism-under-faults contract made visible.
//! Results are written as stable-schema JSON (default
//! `BENCH_chaos.json`; override with `--out PATH`).
//!
//! ```sh
//! cargo run --release --bin chaos_search
//! PREDTOP_THREADS=8 cargo run --release --bin chaos_search
//! cargo run --release --bin chaos_search -- --out results/BENCH_chaos.json
//! ```

use std::path::PathBuf;

use predtop_bench::jsonout::{write_json_file, Json};
use predtop_cluster::Platform;
use predtop_core::{run_search, search_plan_service, SearchOutcome, SearchRequest};
use predtop_models::ModelSpec;
use predtop_parallel::{InterStageOptions, MeshShape};
use predtop_runtime::configured_threads;
use predtop_service::{FaultConfig, RetryPolicy, ServiceBuilder};
use predtop_sim::SimProfiler;

/// Fault-injection hash seed: chosen so the 20% error rate never strings
/// together more than 3 consecutive failures on any query of this
/// workload — `Retry(3)`'s budget, the PR's acceptance configuration.
const FAULT_SEED: u64 = 1;
const FAULT_RATE: f64 = 0.2;
const RETRY_BUDGET: usize = 3;

fn parse_out() -> PathBuf {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("BENCH_chaos.json");
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                out = PathBuf::from(argv.get(i).expect("--out PATH"));
            }
            other => {
                eprintln!("unknown argument `{other}`\nusage: [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    out
}

fn workload() -> (ModelSpec, MeshShape, InterStageOptions) {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 32;
    model.hidden = 32;
    model.num_heads = 4;
    model.vocab = 128;
    model.num_layers = 6;
    let opts = InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    };
    (model, MeshShape::new(2, 2), opts)
}

fn assert_same(chaos: &SearchOutcome, clean: &SearchOutcome, label: &str) {
    assert_eq!(chaos.plan, clean.plan, "{label}: plan drifted under faults");
    assert_eq!(
        chaos.estimated_latency.to_bits(),
        clean.estimated_latency.to_bits(),
        "{label}: estimated latency drifted under faults"
    );
    assert_eq!(
        chaos.num_queries, clean.num_queries,
        "{label}: query accounting drifted under faults"
    );
}

fn main() {
    let out_path = parse_out();
    let (model, cluster, opts) = workload();
    let pool = configured_threads();

    let clean_profiler = SimProfiler::new(Platform::platform2(), 6);
    let clean = run_search(
        &SearchRequest::new(model, cluster, opts).threads(pool),
        &clean_profiler,
        &clean_profiler,
    )
    .expect("the simulator serves every scenario");
    println!(
        "clean, {pool} thr  : {:7.3}s wall, {} queries, plan latency {:.5}s",
        clean.search_seconds, clean.num_queries, clean.true_latency
    );

    let chaos_profiler = SimProfiler::new(Platform::platform2(), 6);
    let stack = ServiceBuilder::new(&chaos_profiler)
        .inject_faults(FaultConfig::errors(FAULT_SEED, FAULT_RATE))
        .retry(RetryPolicy::retries(RETRY_BUDGET))
        .memoize_structural()
        .batched(pool)
        .finish();
    let chaos = search_plan_service(model, cluster, &stack, &chaos_profiler, opts, None)
        .expect("Retry(3) absorbs every injected fault at this seed");
    assert_same(&chaos, &clean, "fault+retry");
    let report = chaos.service.as_ref().expect("chaos stack reports");
    let fault = report.fault.expect("fault layer installed");
    let retry = report.retry.expect("retry layer installed");
    assert!(fault.injected_errors > 0, "no fault was ever injected");
    assert_eq!(retry.exhausted, 0, "a query ran out of retries");
    println!(
        "chaos, {pool} thr  : {:7.3}s wall, {} faults injected, {} retries ({} recovered), {:.3}s backoff accounted",
        chaos.search_seconds, fault.injected_errors, retry.retries, retry.recovered, retry.backoff_seconds
    );
    println!("both runs chose bit-identical plans — determinism holds under faults");

    let doc = Json::obj()
        .field("schema_version", 2u64)
        .field("benchmark", "chaos_search")
        .field(
            "available_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("kernel_isa", predtop_tensor::active_isa().name())
        .field("parallel_threads", pool)
        .field("num_queries", clean.num_queries)
        .field("clean_seconds", clean.search_seconds)
        .field("chaos_seconds", chaos.search_seconds)
        .field("fault_rate", FAULT_RATE)
        .field("retry_budget", RETRY_BUDGET as u64)
        .field("injected_errors", fault.injected_errors)
        .field("retries", retry.retries)
        .field("recovered", retry.recovered)
        .field("backoff_seconds", retry.backoff_seconds)
        .field("plan_latency_seconds", clean.true_latency)
        .field("plans_bit_identical", true);
    write_json_file(&out_path, &doc);
    println!("saved {}", out_path.display());
}
