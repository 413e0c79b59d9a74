//! Performance benchmark of the predictor stack: kernel throughput,
//! data-parallel training wall-clock, and per-query inference latency —
//! with the determinism contract checked on every run.
//!
//! Emits stable-schema JSON (see `jsonout`) so CI and dashboards can
//! track regressions by field name:
//!
//! * `threads` / `timing` / `kernel_config` — run provenance: worker
//!   count, the best-of-N timing policy, and the dispatched kernel tier
//!   (ISA, micro-kernel geometry, KC/NC panel constants).
//! * `kernels[]` — GFLOP/s of the packed register-tiled matmul kernels
//!   vs their naive references, a bit-exactness check of each pair, and
//!   the per-call packing/tile counters (panels packed, floats packed,
//!   full vs edge micro-tiles, parallel dispatches, grid tiles).
//! * `kernel_summary[]` — roofline-style per-op rollup: best observed
//!   blocked and reference GFLOP/s across sizes and the worst speedup.
//! * `training` — epoch wall-clock of the GPT-3 sample-set training at
//!   1 thread vs the parallel worker count, with the FNV-1a weight
//!   fingerprints of both runs (`checksums_match` must be `true`: the
//!   fixed-order gradient-reduction tree makes trained weights
//!   bit-identical at any thread count).
//! * `inference` — mean per-query latency of the trained predictor and
//!   the serve-tape buffer-pool hit rate (must be positive: a zero hit
//!   rate means a tape op regressed to per-call allocation).
//! * `attention[]` — one DAGRA attention head (head width 8, the plan
//!   search use case's) on each scaled-GPT-3 window `[0, e)`: node
//!   count, allowed entries, best-of-N forward, backward and
//!   forward+backward microseconds, forward and backward nanoseconds
//!   per allowed entry, and whether value and q/k/v gradients match the
//!   four-op chain (`matmul_nt → scale → masked_softmax_rows → matmul`)
//!   bit for bit.
//! * `exp[]` — the softmax exponential: best-of-N nanoseconds per
//!   element of the host's `f32::exp` (`libm`) and of the crate's port
//!   at each available tier, over softmax-range inputs, and whether
//!   each returns `f32::exp`'s bits on a strided sweep of all 2³²
//!   inputs.
//!
//! ```sh
//! cargo run --release --bin bench_predictor              # full protocol
//! cargo run --release --bin bench_predictor -- --smoke   # CI-sized
//! cargo run --release --bin bench_predictor -- --out results/BENCH_predictor.json
//! ```
//!
//! Exits non-zero when any determinism check fails.

use std::path::PathBuf;
use std::time::Instant;

use predtop_bench::jsonout::{hex_u64, write_json_file, Json};
use predtop_bench::Protocol;
use predtop_cluster::Platform;
use predtop_gnn::train::train_with_threads;
use predtop_gnn::{with_serve_tape, Dataset, GraphSample, ModelKind, TrainedPredictor};
use predtop_models::{sample_stages, ModelSpec, StageSpec};
use predtop_parallel::{MeshShape, ParallelConfig, StageLatencyProvider};
use predtop_runtime::configured_threads;
use predtop_sim::SimProfiler;
use predtop_tensor::exp::{exp_in_place_at, exp_isas};
use predtop_tensor::{
    active_isa, available_isas, kernel_stats, reset_kernel_stats, AllowedColumns, Matrix,
    ParamStore, Tape,
};

struct Args {
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: PathBuf::from("BENCH_predictor.json"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = PathBuf::from(argv.get(i).expect("--out PATH"));
            }
            other => {
                eprintln!("unknown argument `{other}`\nusage: [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Deterministic pseudo-random matrix (no RNG dependency: an LCG over
/// the flat index keeps the benchmark input identical across runs).
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // top bits → [-1, 1)
            ((state >> 40) as f64 / (1u64 << 23) as f64 - 1.0) as f32
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Best-of-`reps` wall-clock seconds of `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Per-op rollup across measured sizes, for the roofline-style summary.
#[derive(Clone, Copy)]
struct OpRollup {
    name: &'static str,
    best_blocked_gflops: f64,
    best_reference_gflops: f64,
    min_speedup: f64,
}

fn kernel_section(sizes: &[usize], reps: usize, failures: &mut Vec<String>) -> (Json, Json) {
    let mut rows = Vec::new();
    let mut rollups: [OpRollup; 3] = ["matmul", "matmul_nt", "matmul_tn"].map(|name| OpRollup {
        name,
        best_blocked_gflops: 0.0,
        best_reference_gflops: 0.0,
        min_speedup: f64::INFINITY,
    });
    for &n in sizes {
        let a = lcg_matrix(n, n, 11);
        let b = lcg_matrix(n, n, 23);
        let flops = 2.0 * (n as f64).powi(3);
        type Pair = (
            &'static str,
            fn(&Matrix, &Matrix) -> Matrix,
            fn(&Matrix, &Matrix) -> Matrix,
        );
        let ops: [Pair; 3] = [
            ("matmul", Matrix::matmul, Matrix::matmul_ref),
            ("matmul_nt", Matrix::matmul_nt, Matrix::matmul_nt_ref),
            ("matmul_tn", Matrix::matmul_tn, Matrix::matmul_tn_ref),
        ];
        for (op_idx, (name, blocked, reference)) in ops.into_iter().enumerate() {
            // exactness + per-call packing/tile counters from a single
            // instrumented call, outside the timed loop
            reset_kernel_stats();
            let got = blocked(&a, &b);
            let stats = kernel_stats();
            let want = reference(&a, &b);
            let exact = got == want;
            if !exact {
                failures.push(format!("kernel {name} at n={n} diverged from reference"));
            }
            let t_blocked = time_best(reps, || {
                std::hint::black_box(blocked(&a, &b));
            });
            let t_ref = time_best(reps, || {
                std::hint::black_box(reference(&a, &b));
            });
            let (blocked_gflops, reference_gflops) = (flops / t_blocked / 1e9, flops / t_ref / 1e9);
            let speedup = t_ref / t_blocked;
            let r = &mut rollups[op_idx];
            r.best_blocked_gflops = r.best_blocked_gflops.max(blocked_gflops);
            r.best_reference_gflops = r.best_reference_gflops.max(reference_gflops);
            r.min_speedup = r.min_speedup.min(speedup);
            eprintln!(
                "[kernels] {name:<10} n={n:<4} blocked {blocked_gflops:7.2} GFLOP/s  reference {reference_gflops:7.2} GFLOP/s  ({speedup:.2}x)",
            );
            rows.push(
                Json::obj()
                    .field("op", name)
                    .field("size", n)
                    .field("blocked_gflops", blocked_gflops)
                    .field("reference_gflops", reference_gflops)
                    .field("speedup", speedup)
                    .field("exact_match", exact)
                    .field("pack_panels", stats.pack_panels)
                    .field("packed_floats", stats.packed_floats)
                    .field("micro_full_tiles", stats.micro_full_tiles)
                    .field("micro_edge_tiles", stats.micro_edge_tiles)
                    .field("parallel_dispatches", stats.parallel_dispatches)
                    .field("grid_tiles", stats.grid_tiles),
            );
        }
    }
    let summary = rollups
        .iter()
        .map(|r| {
            eprintln!(
                "[roofline] {:<10} best blocked {:7.2} GFLOP/s  best reference {:7.2} GFLOP/s  worst speedup {:.2}x",
                r.name, r.best_blocked_gflops, r.best_reference_gflops, r.min_speedup
            );
            Json::obj()
                .field("op", r.name)
                .field("best_blocked_gflops", r.best_blocked_gflops)
                .field("best_reference_gflops", r.best_reference_gflops)
                .field("min_speedup", r.min_speedup)
        })
        .collect();
    (Json::Arr(rows), Json::Arr(summary))
}

/// The scaled GPT-3 of the plan-search use case (8 layers, sequence
/// 128, hidden 128, 8 heads, vocabulary 2048, batch 2).
fn usecase_gpt3() -> ModelSpec {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;
    model
}

/// One attention head on `tape` (reset first), fused or as the four-op
/// chain with a dense 0/−inf mask: value and `(dq, dk, dv)`, plus the
/// forward's and the backward's seconds.
fn attention_head(
    tape: &mut Tape,
    fused: bool,
    qkv: [&Matrix; 3],
    allowed: &AllowedColumns,
    seed: &Matrix,
) -> ([Matrix; 4], f64, f64) {
    let scale = 1.0 / (qkv[0].cols() as f32).sqrt();
    let mut store = ParamStore::new();
    let ids = qkv.map(|m| store.add(m.clone()));
    tape.reset();
    let [q, k, v] = ids.map(|id| tape.param(&store, id));
    let mask = (!fused).then(|| tape.constant(allowed.mask()));
    let t = Instant::now();
    let out = match mask {
        None => tape.masked_attention(q, k, v, allowed, scale),
        Some(mask) => {
            let logits = tape.matmul_nt(q, k);
            let logits = tape.scale(logits, scale);
            let attn = tape.masked_softmax_rows(logits, mask);
            tape.matmul(attn, v)
        }
    };
    let forward_s = t.elapsed().as_secs_f64();
    let seed = seed.clone();
    let t = Instant::now();
    tape.backward(out, seed, &mut store);
    let backward_s = t.elapsed().as_secs_f64();
    let value = tape.value(out).clone();
    let [dq, dk, dv] = ids.map(|id| store.grad(id).clone());
    ([value, dq, dk, dv], forward_s, backward_s)
}

fn attention_section(smoke: bool, reps: usize, failures: &mut Vec<String>) -> Json {
    let ends: &[usize] = if smoke {
        &[1, 2]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let head_width = 8;
    let mut tape = Tape::new();
    let mut rows = Vec::new();
    for &end in ends {
        let graph = StageSpec::new(usecase_gpt3(), 0, end).build_graph();
        let sample = GraphSample::new(&graph, 1.0, 16);
        let (n, allowed) = (sample.num_nodes(), &sample.dag_allowed);
        let seed_of = |i: u64| 100 * end as u64 + i;
        let qkv = [0, 1, 2].map(|i| lcg_matrix(n, head_width, seed_of(i)));
        let grad_seed = lcg_matrix(n, head_width, seed_of(3));
        let qkv = [&qkv[0], &qkv[1], &qkv[2]];
        let (chain, _, _) = attention_head(&mut tape, false, qkv, allowed, &grad_seed);
        let mut fused = None;
        let [mut forward_s, mut backward_s, mut both_s] = [f64::INFINITY; 3];
        for _ in 0..reps {
            let (out, f, b) = attention_head(&mut tape, true, qkv, allowed, &grad_seed);
            forward_s = forward_s.min(f);
            backward_s = backward_s.min(b);
            both_s = both_s.min(f + b);
            fused = Some(out);
        }
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let exact = fused
            .iter()
            .flatten()
            .zip(&chain)
            .all(|(a, b)| bits(a) == bits(b));
        if !exact {
            failures.push(format!(
                "attention at n={n} diverged from the four-op chain"
            ));
        }
        let per_entry = |s: f64| s * 1e9 / allowed.count().max(1) as f64;
        eprintln!(
            "[attention] [0, {end}) n={n:<5} allowed {:<8} forward {:8.1} µs ({:5.2} ns/entry)  backward {:8.1} µs ({:5.2} ns/entry)",
            allowed.count(),
            forward_s * 1e6,
            per_entry(forward_s),
            backward_s * 1e6,
            per_entry(backward_s),
        );
        rows.push(
            Json::obj()
                .field("window", format!("[0, {end})"))
                .field("n", n)
                .field("allowed_entries", allowed.count())
                .field("forward_us", forward_s * 1e6)
                .field("backward_us", backward_s * 1e6)
                .field("forward_backward_us", both_s * 1e6)
                .field("forward_ns_per_allowed_entry", per_entry(forward_s))
                .field("backward_ns_per_allowed_entry", per_entry(backward_s))
                .field("exact_match", exact),
        );
    }
    Json::Arr(rows)
}

/// The softmax exponential: `f32::exp` and the crate's port at every
/// available tier, timed over softmax-range inputs (`x − max ∈ [−16,
/// 0)`) and checked bit for bit against `f32::exp` on every 4093rd of
/// the 2³² inputs.
fn exp_section(reps: usize, failures: &mut Vec<String>) -> Json {
    let sweep: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
    let want: Vec<u32> = sweep.iter().map(|x| x.exp().to_bits()).collect();
    let inputs: Vec<f32> = lcg_matrix(1, 4096, 7)
        .data()
        .iter()
        .map(|&u| 8.0 * (u - 1.0))
        .collect();
    let rounds = 200;
    let per_element = |s: f64| s * 1e9 / (rounds * inputs.len()) as f64;
    let mut buf = inputs.clone();
    let libm_s = time_best(reps, || {
        for _ in 0..rounds {
            for (o, &x) in buf.iter_mut().zip(&inputs) {
                *o = std::hint::black_box(x).exp();
            }
        }
    });
    eprintln!("[exp] libm    {:5.2} ns/element", per_element(libm_s));
    let mut rows = vec![Json::obj()
        .field("tier", "libm")
        .field("ns_per_element", per_element(libm_s))
        .field("exact_match", true)];
    for isa in exp_isas() {
        let seconds = time_best(reps, || {
            for _ in 0..rounds {
                buf.copy_from_slice(&inputs);
                exp_in_place_at(isa, std::hint::black_box(&mut buf));
            }
        });
        let mut ys = sweep.clone();
        exp_in_place_at(isa, &mut ys);
        let exact = ys.iter().zip(&want).all(|(y, w)| y.to_bits() == *w);
        if !exact {
            failures.push(format!("{} exp differs from f32::exp", isa.name()));
        }
        eprintln!(
            "[exp] {:<7} {:5.2} ns/element  exact {exact}",
            isa.name(),
            per_element(seconds)
        );
        rows.push(
            Json::obj()
                .field("tier", isa.name())
                .field("ns_per_element", per_element(seconds))
                .field("exact_match", exact),
        );
    }
    Json::Arr(rows)
}

fn main() {
    let args = parse_args();
    let parallel_threads = configured_threads().max(4);
    let mut failures: Vec<String> = Vec::new();

    // --- kernels ---------------------------------------------------
    let (sizes, reps): (&[usize], usize) = if args.smoke {
        (&[48, 96], 2)
    } else {
        (&[64, 128, 256, 512], 3)
    };
    let isa = active_isa();
    eprintln!(
        "[kernels] isa {} ({} micro-kernel), available: {}",
        isa.name(),
        isa.microkernel(),
        available_isas()
            .iter()
            .map(|i| i.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let (kernels, kernel_summary) = kernel_section(sizes, reps, &mut failures);
    let kernel_config = Json::obj()
        .field("isa", isa.name())
        .field("microkernel", isa.microkernel())
        .field("kc", predtop_tensor::kernel::KC)
        .field("nc", predtop_tensor::kernel::NC)
        .field(
            "available_isas",
            available_isas()
                .iter()
                .map(|i| Json::from(i.name()))
                .collect::<Vec<_>>(),
        );

    // --- training: GPT-3 sample set, 1 thread vs N ------------------
    let mut proto = Protocol::default_scaled();
    if args.smoke {
        proto.stages_gpt = 16;
        proto.train = predtop_gnn::TrainConfig::quick(6);
    }
    let model = proto.gpt3();
    let profiler = SimProfiler::new(Platform::platform1(), proto.seed);
    let stages = sample_stages(
        model,
        proto.stage_budget(&model),
        proto.max_stage_layers.min(model.num_layers),
        proto.seed,
    );
    let mesh = MeshShape::new(1, 1);
    let config = ParallelConfig::SERIAL;
    eprintln!("[training] profiling {} GPT-3 stages", stages.len());
    let samples: Vec<GraphSample> = stages
        .iter()
        .map(|s| {
            let mut gs = GraphSample::new(&profiler.stage_graph(s), 1.0, proto.pe_dim());
            gs.latency = profiler.stage_latency(s, mesh, config);
            gs
        })
        .collect();
    let ds = Dataset::new(samples);
    let split = ds.split(0.8, proto.seed);
    let arch = proto.arch(ModelKind::DagTransformer);

    let run = |threads: usize| {
        let mut net = arch.build(proto.seed);
        let (scaler, report) = train_with_threads(net.as_mut(), &ds, &split, &proto.train, threads);
        let fp = net.store().fingerprint();
        let epoch_secs = report.train_seconds / report.epochs_run.max(1) as f64;
        eprintln!(
            "[training] {threads} thread(s): {} epochs in {:.3}s ({:.4}s/epoch), weights {}",
            report.epochs_run,
            report.train_seconds,
            epoch_secs,
            hex_u64(fp)
        );
        (
            TrainedPredictor { model: net, scaler },
            report,
            fp,
            epoch_secs,
        )
    };
    let (_, serial_report, serial_fp, serial_epoch) = run(1);
    let (predictor, parallel_report, parallel_fp, parallel_epoch) = run(parallel_threads);
    let checksums_match = serial_fp == parallel_fp;
    if !checksums_match {
        failures.push(format!(
            "trained weights diverged: 1 thread {} vs {} threads {}",
            hex_u64(serial_fp),
            parallel_threads,
            hex_u64(parallel_fp)
        ));
    }
    let training = Json::obj()
        .field("dataset", "gpt3-scaled")
        .field("samples", ds.len())
        .field("batch_size", proto.train.batch_size)
        .field("serial_epochs_run", serial_report.epochs_run)
        .field("serial_epoch_seconds", serial_epoch)
        .field("parallel_threads", parallel_threads)
        .field("parallel_epochs_run", parallel_report.epochs_run)
        .field("parallel_epoch_seconds", parallel_epoch)
        .field("epoch_speedup", serial_epoch / parallel_epoch)
        .field("serial_weight_fingerprint", hex_u64(serial_fp))
        .field("parallel_weight_fingerprint", hex_u64(parallel_fp))
        .field("checksums_match", checksums_match);

    // --- inference: per-query latency on the trained predictor ------
    let passes = if args.smoke { 2 } else { 10 };
    // warm pass so the serve tape's buffer pool reaches steady state
    for s in &ds.samples {
        std::hint::black_box(predictor.predict(s));
    }
    let t = Instant::now();
    let mut queries = 0u64;
    for _ in 0..passes {
        for s in &ds.samples {
            std::hint::black_box(predictor.predict(s));
            queries += 1;
        }
    }
    let per_query_us = t.elapsed().as_secs_f64() / queries as f64 * 1e6;
    let pool = with_serve_tape(|tape| tape.pool_stats());
    let hit_rate = pool.hit_rate();
    if hit_rate <= 0.0 {
        failures.push(format!(
            "serve-tape pool hit rate is {hit_rate} after {queries} queries — a tape op regressed to per-call allocation"
        ));
    }
    eprintln!(
        "[inference] {queries} queries, {per_query_us:.1} µs/query, pool hit rate {:.1}%",
        100.0 * hit_rate
    );
    let inference = Json::obj()
        .field("queries", queries)
        .field("mean_microseconds_per_query", per_query_us)
        .field("pool_hits", pool.hits)
        .field("pool_misses", pool.misses)
        .field("pool_hit_rate", hit_rate);

    // --- attention: one DAGRA head per scaled-GPT-3 window -----------
    let attention = attention_section(args.smoke, reps, &mut failures);
    let exp = exp_section(reps, &mut failures);

    // --- artifact ---------------------------------------------------
    let doc = Json::obj()
        .field("schema_version", 4u64)
        .field("benchmark", "bench_predictor")
        .field("smoke", args.smoke)
        .field("threads", parallel_threads)
        .field(
            "timing",
            Json::obj().field("policy", "best_of").field("reps", reps),
        )
        .field("kernel_config", kernel_config)
        .field("kernels", kernels)
        .field("kernel_summary", kernel_summary)
        .field("training", training)
        .field("inference", inference)
        .field("attention", attention)
        .field("exp", exp);
    write_json_file(&args.out, &doc);
    println!("saved {}", args.out.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "determinism checks passed: kernels exact, weight checksums match, attention matches the chain, every exp tier matches f32::exp"
    );
}
