//! Cold-vs-warm wall clock of the store-backed plan search.
//!
//! Three searches over the same 64-layer sweep as `search_scaling`
//! (12 layers under `--smoke`):
//!
//! 1. **plain** — the canonical structural stack, no disk tier: the
//!    store-less reference;
//! 2. **cold** — the same search through `run_search` with a
//!    `SearchRequest::stored` disk tier on a fresh object store: every
//!    distinct structure misses to the simulator and is written behind;
//! 3. **warm** — the identical search against the now-populated store:
//!    every simulator evaluation is replaced by a verified disk read.
//!
//! The determinism contract is asserted, not sampled: all three runs
//! must choose bit-identical plans and latency bits, the cold run must
//! write every miss, and the warm run must recompute *nothing*
//! (`disk_misses == 0`). In full mode the warm run must also come in at
//! least 2x faster than the cold one — the economics that justify the
//! disk tier. A gc pass then packs the store and a fourth run proves
//! the pack-read path serves the same bits.
//!
//! Results land as stable-schema JSON (default `BENCH_store.json`;
//! override with `--out PATH`).
//!
//! ```sh
//! cargo run --release --bin bench_store
//! cargo run --release --bin bench_store -- --smoke
//! cargo run --release --bin bench_store -- --out results/BENCH_store.json
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use predtop_bench::jsonout::{write_json_file, Json};
use predtop_cluster::Platform;
use predtop_core::{run_search, search_plan_service, SearchOutcome, SearchRequest};
use predtop_models::ModelSpec;
use predtop_parallel::{InterStageOptions, MeshShape};
use predtop_service::{PersistStats, ServiceBuilder};
use predtop_sim::SimProfiler;
use predtop_store::Store;

const THREADS: usize = 4;
const NAMESPACE: &str = "sim:1:7";

struct Cli {
    out: PathBuf,
    smoke: bool,
}

fn parse_cli() -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        out: PathBuf::from("BENCH_store.json"),
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
    model.num_layers = if smoke { 12 } else { 64 };
    model
}

fn assert_bit_identical(label: &str, a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(
        a.estimated_latency.to_bits(),
        b.estimated_latency.to_bits(),
        "{label} changed the estimated latency"
    );
    assert_eq!(
        a.true_latency.to_bits(),
        b.true_latency.to_bits(),
        "{label} changed the plan's true latency"
    );
    assert_eq!(a.num_queries, b.num_queries, "{label} changed the sweep");
    assert_eq!(a.plan, b.plan, "{label} changed the chosen plan");
}

/// One store-backed search over a fresh profiler.
fn stored_run(
    model: ModelSpec,
    cluster: MeshShape,
    platform: &Platform,
    opts: InterStageOptions,
    store: &Arc<Store>,
) -> SearchOutcome {
    let profiler = SimProfiler::new(platform.clone(), 7);
    let req = SearchRequest::new(model, cluster, opts)
        .threads(THREADS)
        .stored(Arc::clone(store), NAMESPACE.to_string());
    run_search(&req, &profiler, &profiler).expect("the simulator stack serves every scenario")
}

fn persist_of(out: &SearchOutcome) -> PersistStats {
    out.service
        .as_ref()
        .expect("stored stack reports")
        .persist
        .expect("persist layer installed")
}

fn main() {
    let cli = parse_cli();
    let model = bench_model(cli.smoke);
    let platform = Platform::platform1();
    let cluster = MeshShape::new(1, 2);
    let opts = InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    };
    let base = std::env::temp_dir().join(format!("predtop-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Plain reference: the canonical structural stack without a disk
    // tier, best of two reps (fresh profiler per rep — the profiler
    // memoizes internally, a shared one would time hash lookups).
    let reps = 2;
    let plain = (0..reps)
        .map(|_| {
            let profiler = SimProfiler::new(platform.clone(), 7);
            let stack = ServiceBuilder::new(&profiler)
                .memoize_structural()
                .batched(THREADS)
                .finish();
            search_plan_service(model, cluster, &stack, &profiler, opts, None)
                .expect("the simulator stack serves every scenario")
        })
        .min_by(|a, b| a.search_seconds.total_cmp(&b.search_seconds))
        .expect("at least one plain rep");
    println!(
        "plain (no store):   {:7.3}s wall, {} queries, plan latency {:.5}s",
        plain.search_seconds, plain.num_queries, plain.true_latency
    );

    // Cold: each rep gets its own fresh store directory (a second rep
    // against a populated store would be a warm run). The canonical
    // encodings make every rep's objects byte-identical, so rep 0's
    // directory serves as the warm corpus.
    let cold_dirs: Vec<_> = (0..reps).map(|i| base.join(format!("cold-{i}"))).collect();
    let cold = cold_dirs
        .iter()
        .map(|dir| {
            let store = Arc::new(Store::open(dir).expect("open fresh store"));
            stored_run(model, cluster, &platform, opts, &store)
        })
        .min_by(|a, b| a.search_seconds.total_cmp(&b.search_seconds))
        .expect("at least one cold rep");
    assert_bit_identical("cold store-backed search", &plain, &cold);
    let cold_stats = persist_of(&cold);
    assert_eq!(cold_stats.disk_hits, 0, "a fresh store cannot hit");
    assert!(cold_stats.writes > 0, "the cold run persisted nothing");
    assert_eq!(cold_stats.write_errors, 0, "cold-run writes failed");
    println!(
        "cold  (fresh dir):  {:7.3}s wall, {} disk misses -> {} objects written",
        cold.search_seconds, cold_stats.disk_misses, cold_stats.writes
    );

    // Warm: the same search against rep 0's populated store.
    let store = Arc::new(Store::open(&cold_dirs[0]).expect("reopen populated store"));
    let warm = (0..reps)
        .map(|_| stored_run(model, cluster, &platform, opts, &store))
        .min_by(|a, b| a.search_seconds.total_cmp(&b.search_seconds))
        .expect("at least one warm rep");
    assert_bit_identical("warm store-backed search", &plain, &warm);
    let warm_stats = persist_of(&warm);
    assert_eq!(warm_stats.disk_misses, 0, "the warm run recomputed a reply");
    assert_eq!(warm_stats.writes, 0, "the warm run re-wrote an object");
    assert!(warm_stats.disk_hits > 0, "the warm run never touched disk");
    let warm_speedup = cold.search_seconds / warm.search_seconds;
    println!(
        "warm  (same dir):   {:7.3}s wall ({warm_speedup:5.2}x vs cold), \
         {} disk hits ({:.0}% served from disk)",
        warm.search_seconds,
        warm_stats.disk_hits,
        100.0 * warm_stats.disk_served_rate()
    );
    if !cli.smoke {
        assert!(
            warm_speedup >= 2.0,
            "the disk tier lost its economics: warm is only {warm_speedup:.2}x \
             faster than cold on the full sweep"
        );
    }

    // Gc: pack the loose objects, prove the store stays clean, and run
    // once more through the pack-read path.
    let gc = store.gc().expect("gc the populated store");
    let verify = store.verify().expect("verify after gc");
    assert!(
        verify.is_clean(),
        "gc corrupted the store: {:?}",
        verify.corrupt
    );
    let packed = (0..reps)
        .map(|_| stored_run(model, cluster, &platform, opts, &store))
        .min_by(|a, b| a.search_seconds.total_cmp(&b.search_seconds))
        .expect("at least one packed rep");
    assert_bit_identical("packed store-backed search", &plain, &packed);
    let packed_stats = persist_of(&packed);
    assert_eq!(packed_stats.disk_misses, 0, "a packed object went missing");
    println!(
        "packed (after gc):  {:7.3}s wall, gc folded {} duplicates into \
         generation {} ({} -> {} bytes)",
        packed.search_seconds, gc.duplicates_folded, gc.generation, gc.bytes_before, gc.bytes_after
    );
    println!("all four runs chose bit-identical plans — determinism holds");

    let doc = Json::obj()
        .field("schema_version", 2u64)
        .field("benchmark", "bench_store")
        .field("mode", if cli.smoke { "smoke" } else { "full" })
        .field(
            "available_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("kernel_isa", predtop_tensor::active_isa().name())
        .field("model_layers", model.num_layers)
        .field("threads", THREADS)
        .field("num_queries", plain.num_queries)
        .field("plan_latency_seconds", plain.true_latency)
        .field("plain_seconds", plain.search_seconds)
        .field("cold_seconds", cold.search_seconds)
        .field("warm_seconds", warm.search_seconds)
        .field("packed_seconds", packed.search_seconds)
        .field("warm_speedup_vs_cold", warm_speedup)
        .field("cold_disk_misses", cold_stats.disk_misses)
        .field("cold_writes", cold_stats.writes)
        .field("warm_disk_hits", warm_stats.disk_hits)
        .field("warm_disk_misses", warm_stats.disk_misses)
        .field("warm_disk_served_rate", warm_stats.disk_served_rate())
        .field("gc_duplicates_folded", gc.duplicates_folded)
        .field("gc_bytes_before", gc.bytes_before)
        .field("gc_bytes_after", gc.bytes_after)
        .field("plans_bit_identical", true);
    write_json_file(&cli.out, &doc);
    println!("saved {}", cli.out.display());

    let _ = std::fs::remove_dir_all(&base);
}
