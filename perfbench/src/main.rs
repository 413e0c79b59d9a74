//! The repository's benchmark: one binary, three workloads, each run
//! checking its own outputs. Driven by `perfbench/run.py`, which builds
//! this package and forwards its arguments:
//!
//! ```sh
//! python3 perfbench/run.py --workload usecase-gpt3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line before
//! it carries the run's metadata. See `perfbench/README.md` for what each
//! workload and metric means.

mod checked;
mod report;
mod serve;
mod trace;
mod usecase;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use report::{median, num, percentile, quote, Metrics, OpTimes};
use trace::Tracer;

/// Version of the result and metadata layout printed by this binary.
const SCHEMA_VERSION: u32 = 1;

/// Every per-layer metric a traced run prints, in `BENCHMARK.json`
/// order. A layer a workload does not exercise reads 0 and is named in
/// the metadata's `layers_not_exercised`.
const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_graph_s", "s"),
    ("models.build_graph_calls", "count"),
    ("sim.profile_s", "s"),
    ("sim.profiles", "count"),
    ("sim.queries", "count"),
    ("gnn.sample_build_s", "s"),
    ("gnn.train_s", "s"),
    ("gnn.epochs_run", "count"),
    ("gnn.predict_s", "s"),
    ("gnn.predict_calls", "count"),
    ("gnn.predict_parallelism", "ratio"),
    ("tensor.gemm_calls", "count"),
    ("tensor.packed_floats", "count"),
    ("tensor.micro_full_tiles", "count"),
    ("tensor.micro_edge_tiles", "count"),
    ("parallel.enumerate_s", "s"),
    ("parallel.candidates", "count"),
    ("parallel.interner_warm_s", "s"),
    ("parallel.interner_reuse_rate", "ratio"),
    ("parallel.dp_s", "s"),
    ("analyze.legality_s", "s"),
    ("analyze.legality_calls", "count"),
    ("analyze.rejections", "count"),
    ("analyze.memory_rejections", "count"),
    ("service.query_batch_s", "s"),
    ("service.memo_hit_rate", "ratio"),
    ("service.memo_misses", "count"),
    ("service.batch_chunks", "count"),
    ("store.get_s", "s"),
    ("store.disk_hits", "count"),
    ("store.disk_misses", "count"),
    ("store.put_s", "s"),
    ("store.writes", "count"),
    ("store.write_errors", "count"),
    ("core.fit_s", "s"),
    ("core.search_s", "s"),
    ("core.handle_s", "s"),
    ("core.served", "count"),
    ("core.shed", "count"),
    ("wire.encode_request_s", "s"),
    ("wire.decode_request_s", "s"),
    ("wire.encode_response_s", "s"),
    ("wire.decode_response_s", "s"),
    ("wire.round_trip_overhead_ms", "ms"),
    ("quality.plan_regret_pct", "%"),
    ("quality.candidate_mre_pct", "%"),
    ("quality.profiling_bill_s", "s"),
    ("bench.error_rate", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub out_dir: PathBuf,
    pub tracer: Arc<Tracer>,
}

/// Correctness checks of one run: every failed check is kept with its
/// reason, and any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// What a workload hands back to be reported.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    /// Untraced op timings: the end-to-end metrics.
    pub times: OpTimes,
    /// Op timings taken with tracing on (traced runs only).
    pub traced_op_s: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Workload facts for the metadata line.
    pub facts: Vec<(&'static str, String)>,
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    out_dir: PathBuf,
    commit: String,
}

fn parse_cli() -> Result<Cli, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: PathBuf::from("perfbench/out"),
        commit: "unknown".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--threads" => cli.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--commit" => cli.commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    cli.threads = cli.threads.max(1);
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cli.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cli.out_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        threads: cli.threads,
        out_dir: cli.out_dir.clone(),
        tracer: Arc::new(Tracer::new(false)),
    };
    let result = match cli.workload.as_str() {
        "usecase-gpt3" => usecase::run(&ctx),
        "checked-moe-warm" => checked::run(&ctx),
        "serve-mix" => serve::run(&ctx),
        other => Err(format!(
            "unknown workload `{other}` (usecase-gpt3 | checked-moe-warm | serve-mix)"
        )),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let mut metrics = Metrics::default();
    if cli.trace {
        let untraced = median(&out.times.op_s);
        let traced = median(&out.traced_op_s);
        out.layers.put_timed(
            "bench.trace_overhead_pct",
            100.0 * (traced / untraced.max(1e-12) - 1.0),
            "%",
            out.traced_op_s.len().min(out.times.op_s.len()),
        );
        out.layers.put(
            "bench.error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        let mut not_exercised = Vec::new();
        for &(name, unit) in PER_LAYER {
            let value = out.layers.entries.iter().find(|(n, ..)| n == name);
            if value.is_none() {
                not_exercised.push(name);
            }
            metrics.put(name, value.map_or(0.0, |e| e.1), unit);
        }
        out.facts
            .push(("layers_not_exercised", not_exercised.join(" ")));
        metrics.samples = std::mem::take(&mut out.layers.samples);
        let trace_path = cli
            .out_dir
            .join(format!("trace-{}-seed{}.json", cli.workload, cli.seed));
        match ctx.tracer.write_chrome_trace(&trace_path) {
            Ok(left_out) => out
                .facts
                .push(("trace_spans_left_out", left_out.to_string())),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", trace_path.display()),
        }
    } else {
        for (name, value, unit, samples) in out.times.end_to_end() {
            metrics.put_timed(name, value, unit, samples);
        }
    }

    let ms = |v: &[f64]| {
        let parts: Vec<String> = v.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        parts.join(" ")
    };
    out.facts.push(("setup_ms", ms(&out.times.setup_s)));
    if out.times.op_s.len() <= 64 {
        out.facts.push(("op_ms", ms(&out.times.op_s)));
    }
    for (name, q) in [("op_p99_ms", 0.99), ("op_p999_ms", 0.999)] {
        out.facts.push((
            name,
            format!(
                "{} over {} ops",
                1e3 * percentile(&out.times.op_s, q),
                out.times.op_s.len()
            ),
        ));
    }
    let correct = out.checks.0.is_empty();
    for failure in &out.checks.0 {
        eprintln!("perfbench: check failed: {failure}");
    }
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let meta = format!(
        "{{\"meta\": {{\"schema_version\": {SCHEMA_VERSION}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {}, \"kernel_isa\": {}, \
         \"commit\": {}, \"error_rate\": {}, \"samples\": {}, \"checks_failed\": {}, \
         \"workload_facts\": {{{}}}}}}}",
        quote(&cli.workload),
        cli.seed,
        num(cli.seconds),
        cli.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cli.threads,
        quote(predtop_tensor::kernel::active_isa().name()),
        quote(&cli.commit),
        num(out.failed as f64 / out.attempted.max(1) as f64),
        metrics.samples_json(),
        out.checks.0.len(),
        facts.join(", ")
    );
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.json()
    );
    let saved = cli.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        cli.workload, cli.seed, cli.trace as u8
    ));
    let _ = std::fs::write(&saved, format!("{meta}\n{line}\n"));
    println!("{meta}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
