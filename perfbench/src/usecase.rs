//! `usecase-gpt3`: the paper's workflow. One op profiles a seeded stage
//! sample and trains the DAG Transformer (`PredTop::fit`), runs the
//! predictor-driven plan search (`run_search`), and re-evaluates the
//! chosen plan's true latency on the simulator. Set-up computes the
//! reference optimum by full profiling.
//!
//! The traced op replays the search through its public steps
//! (`enumerate_candidates` → one `query_batch` through a batch layer over
//! the fitted predictor → `solve_pipeline` → `PipelinePlan::latency`) so
//! the predictor's share can be timed; the replay must reach the same
//! plan bits as `run_search`. The fit's profiling phase is replayed once
//! per traced run (`sample_stages` → `stage_graph` → `GraphSample::new`
//! → `stage_latency` per scenario) to split graph build, sample build and
//! simulation out of the fit, and must run up the same profiling bill.

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Instant;

use predtop_cluster::Platform;
use predtop_core::{run_search, ArchConfig, GrayBoxConfig, PredTop, SearchOutcome, SearchRequest};
use predtop_gnn::train::TrainConfig;
use predtop_gnn::{mean_relative_error, GraphSample, ModelKind};
use predtop_models::{sample_stages, ModelSpec};
use predtop_parallel::interstage::candidate_submeshes;
use predtop_parallel::{
    enumerate_candidates, solve_pipeline, table3_configs, EvaluatedCandidate, InterStageOptions,
    MeshShape, PipelinePlan, StageLatencyProvider,
};
use predtop_service::{LatencyQuery, LatencyService, ProviderService, ServiceBuilder};
use predtop_sim::SimProfiler;
use predtop_tensor::kernel::{kernel_stats, KernelStats};

use crate::report::{median, peak_rss_mb, OpTimes};
use crate::trace::{current_span, Timed};
use crate::{Checks, Ctx, Outcome};

/// Simulator seed of every profiler (ground truth is fixed; the workload
/// seed picks the stage sample and the predictor's initial weights).
const SIM_SEED: u64 = 7;
/// Seeds of the set-up's warm-up fits, one per set-up repetition (whose
/// median is `setup_s`): fixed, so set-up work does not depend on the
/// workload seed.
const WARM_UP_SEEDS: [u64; 3] = [0, 1, 2];
/// Fewest untraced ops a run measures, even past `--seconds`.
const MIN_OPS: usize = 3;
/// Plan-quality gates, so a change that buys seconds by weakening the
/// predictor fails the run instead of passing as a speed-up.
///
/// The run's chosen plan may be at most this much worse than the
/// full-profiling optimum. Seeds 1–40 and the hold-out seed read
/// 34.88–175.09%; the ceiling sits above the worst of them.
const MAX_PLAN_REGRET_PCT: f64 = 190.0;
/// The warm-up fits have fixed seeds, so their mean relative error over
/// every [`REFERENCE_STRIDE`]-th enumerated candidate, averaged over the
/// fits, reads the same in every run, on any core count or kernel ISA
/// tier. It may exceed the value recorded here by at most
/// [`REFERENCE_MRE_TOLERANCE`]. Plan choice is coarse (the regret above
/// takes a handful of values), so this is the figure that moves: training
/// one epoch instead of four halves the op time, leaves every regret
/// unchanged, and raises this error by about half. One fit alone is not
/// enough (seed 0's error does not move).
const REFERENCE_MRE_PCT: f64 = 62.113_211;
const REFERENCE_MRE_TOLERANCE: f64 = 0.25;
const REFERENCE_STRIDE: usize = 4;

/// `examples/plan_search`'s problem: scaled GPT-3 on Platform 2's 2×2
/// cluster with 8 micro-batches.
fn problem() -> (ModelSpec, MeshShape, InterStageOptions) {
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;
    let opts = InterStageOptions {
        microbatches: 8,
        imbalance_tolerance: None,
    };
    (model, MeshShape::new(2, 2), opts)
}

/// The fit protocol, sized so one workflow takes seconds on two cores.
fn graybox(seed: u64) -> GrayBoxConfig {
    let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
    arch.hidden = 16;
    arch.layers = 1;
    arch.heads = 2;
    GrayBoxConfig {
        num_profile_stages: 16,
        max_stage_layers: 3,
        arch,
        train: TrainConfig::quick(4),
        seed,
    }
}

fn sim() -> SimProfiler {
    SimProfiler::new(Platform::platform2(), SIM_SEED)
}

/// One fitted workflow's products.
struct Workflow {
    predtop: PredTop,
    fit_profiler: SimProfiler,
    truth: SimProfiler,
    outcome: SearchOutcome,
    fit_s: f64,
}

/// The search replayed through its public steps, with a span around
/// each layer call. With tracing off it is a plain re-execution.
fn replay_search(ctx: &Ctx, predtop: &PredTop, truth: &SimProfiler) -> Result<Replay, String> {
    let (model, cluster, opts) = problem();
    let tracer = &ctx.tracer;
    let work = tracer.span("parallel.enumerate", || {
        enumerate_candidates(model, cluster, opts)
    });
    let queries: Vec<LatencyQuery> = work
        .iter()
        .map(|&(stage, mesh, config)| LatencyQuery::new(stage, mesh, config))
        .collect();
    let parent = Arc::new(AtomicU32::new(0));
    let stack = ServiceBuilder::new(Timed::new(predtop, "gnn.predict", tracer, &parent))
        .batched(ctx.threads)
        .finish();
    let replies = tracer.span("service.query_batch", || {
        parent.store(current_span(), std::sync::atomic::Ordering::Relaxed);
        stack.query_batch(&queries)
    });
    let mut cands = Vec::with_capacity(queries.len());
    for (q, reply) in queries.iter().zip(replies) {
        cands.push(EvaluatedCandidate {
            stage: q.stage,
            mesh: q.mesh,
            config: q.config,
            seconds: reply
                .map_err(|e| format!("predictor query failed: {e}"))?
                .seconds,
        });
    }
    let (estimated, plan) = tracer
        .span("parallel.dp", || {
            solve_pipeline(
                &cands,
                model.num_layers,
                cluster.num_devices(),
                opts.microbatches,
            )
        })
        .ok_or("replayed DP found no covering partition")?;
    let true_latency = tracer.span("core.true_latency", || plan.latency(truth));
    let batch_chunks = stack
        .handles()
        .batch
        .as_ref()
        .map_or(0, |b| b.stats().chunks);
    Ok(Replay {
        estimated,
        plan,
        true_latency,
        batch_chunks,
    })
}

/// What the step-by-step search replay produced.
struct Replay {
    estimated: f64,
    plan: PipelinePlan,
    true_latency: f64,
    batch_chunks: usize,
}

impl Replay {
    fn matches(&self, b: &SearchOutcome) -> bool {
        self.estimated.to_bits() == b.estimated_latency.to_bits()
            && self.plan == b.plan
            && self.true_latency.to_bits() == b.true_latency.to_bits()
    }
}

/// Untraced op: fit, `run_search`, true latency.
fn workflow(ctx: &Ctx, cfg: &GrayBoxConfig) -> Result<Workflow, String> {
    let (model, cluster, opts) = problem();
    let fit_profiler = sim();
    let started = Instant::now();
    let predtop = PredTop::fit(model, cluster, &fit_profiler, cfg);
    let fit_s = started.elapsed().as_secs_f64();
    let truth = sim();
    let outcome = run_search(
        &SearchRequest::new(model, cluster, opts).threads(ctx.threads),
        &predtop,
        &truth,
    )
    .map_err(|e| format!("predictor-driven search failed: {e}"))?;
    Ok(Workflow {
        predtop,
        fit_profiler,
        truth,
        outcome,
        fit_s,
    })
}

/// Mean relative error (%) of `predtop` against the simulator over
/// every `stride`-th candidate the search enumerates.
fn candidate_mre(predtop: &PredTop, truth: &SimProfiler, stride: usize) -> f64 {
    let (model, cluster, opts) = problem();
    let work: Vec<_> = enumerate_candidates(model, cluster, opts)
        .into_iter()
        .step_by(stride)
        .collect();
    let predicted: Vec<f64> = work
        .iter()
        .map(|(s, m, c)| predtop.stage_latency(s, *m, *c))
        .collect();
    let simulated: Vec<f64> = work
        .iter()
        .map(|(s, m, c)| truth.stage_latency(s, *m, *c))
        .collect();
    mean_relative_error(&predicted, &simulated)
}

fn kernel_delta(a: KernelStats, b: KernelStats) -> [u64; 4] {
    [
        b.calls - a.calls,
        b.packed_floats - a.packed_floats,
        b.micro_full_tiles - a.micro_full_tiles,
        b.micro_edge_tiles - a.micro_edge_tiles,
    ]
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (model, cluster, opts) = problem();
    let cfg = graybox(ctx.seed);
    let mut out = Outcome::default();
    let mut checks = Checks::default();

    // Set-up: the reference optimum by full profiling (every enumerated
    // candidate simulated) and a warm-up fit with a fixed seed, which
    // fills the worker pool, the allocator and the kernels' scratch
    // before any op is timed. Repeated for a steady set-up time; the fit
    // spans enough work that the figure does not hinge on which core a
    // few milliseconds land on. Each warm-up fit's error is taken for
    // the accuracy gate after the timer stops, and the fit is dropped.
    let mut times = OpTimes::default();
    let mut reference = None;
    let mut warm_up_mre = Vec::new();
    for seed in WARM_UP_SEEDS {
        let started = Instant::now();
        let profiler = sim();
        let full = run_search(
            &SearchRequest::new(model, cluster, opts).threads(ctx.threads),
            ProviderService::new(&profiler, "provider"),
            &profiler,
        )
        .map_err(|e| format!("full-profiling search failed: {e}"))?;
        let fitted = PredTop::fit(model, cluster, &sim(), &graybox(seed));
        times.setup_s.push(started.elapsed().as_secs_f64());
        warm_up_mre.push(candidate_mre(&fitted, &profiler, REFERENCE_STRIDE));
        reference = Some((profiler, full));
    }
    let (ref_profiler, full) = reference.expect("at least one set-up");
    let enumerated = enumerate_candidates(model, cluster, opts).len();
    checks.check(
        full.num_queries == enumerated
            && full.num_rejected == 0
            && ref_profiler.profiles_taken() == enumerated
            && full.estimated_latency.to_bits() == full.true_latency.to_bits(),
        || {
            format!(
                "reference is not full profiling: {} queries, {} profiles, {enumerated} candidates",
                full.num_queries,
                ref_profiler.profiles_taken()
            )
        },
    );
    let reference_mre = warm_up_mre.iter().sum::<f64>() / warm_up_mre.len() as f64;
    let mre_ceiling = REFERENCE_MRE_PCT * (1.0 + REFERENCE_MRE_TOLERANCE);
    checks.check(reference_mre <= mre_ceiling, || {
        format!(
            "warm-up fits err {reference_mre}% over the candidates \
             (recorded {REFERENCE_MRE_PCT}%, gate {mre_ceiling}%)"
        )
    });
    out.facts
        .push(("reference_fit_mre_pct", format!("{reference_mre}")));

    // Measurement: untraced ops; a traced run alternates untraced and
    // traced ops so the tracing overhead is measured in the same run.
    let mut fit_s = Vec::new();
    let mut search_s = Vec::new();
    let mut last: Option<Workflow> = None;
    let mut traced_n = 0usize;
    let mut train_s = 0.0;
    let mut epochs = 0usize;
    let mut kernels = [0u64; 4];
    let mut sim_profiles = 0usize;
    let mut sim_queries = 0usize;
    let mut batch_chunks = 0usize;
    let window = Instant::now();
    for i in 0.. {
        let enough = times.op_s.len() >= MIN_OPS && (!ctx.trace || traced_n >= 1);
        if enough && window.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        out.attempted += 1;
        let traced = ctx.trace && i % 2 == 1;
        let started = Instant::now();
        if !traced {
            match workflow(ctx, &cfg) {
                Ok(w) => {
                    times.op_s.push(started.elapsed().as_secs_f64());
                    if times.op_s.len() == MIN_OPS {
                        times.peak_rss_mb = peak_rss_mb();
                    }
                    fit_s.push(w.fit_s);
                    search_s.push(w.outcome.search_seconds);
                    if let Some(prev) = &last {
                        checks.check(
                            prev.outcome.plan == w.outcome.plan
                                && prev.outcome.true_latency.to_bits()
                                    == w.outcome.true_latency.to_bits(),
                            || "two fits with one seed chose different plans".to_string(),
                        );
                    }
                    last = Some(w);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("usecase-gpt3: {e}");
                }
            }
        } else {
            let tracer = &ctx.tracer;
            tracer.set_enabled(true);
            tracer.begin_trace();
            let k0 = kernel_stats();
            let op = tracer.span("bench.op", || {
                let fit_profiler = sim();
                let predtop = tracer.span("core.fit", || {
                    PredTop::fit(model, cluster, &fit_profiler, &cfg)
                });
                let truth = sim();
                let replay = tracer.span("core.search", || replay_search(ctx, &predtop, &truth));
                (fit_profiler, predtop, truth, replay)
            });
            let elapsed = started.elapsed().as_secs_f64();
            tracer.set_enabled(false);
            kernels
                .iter_mut()
                .zip(kernel_delta(k0, kernel_stats()))
                .for_each(|(acc, d)| *acc += d);
            let (fit_profiler, predtop, truth, replay) = op;
            match replay {
                Ok(replayed) => {
                    out.traced_op_s.push(elapsed);
                    traced_n += 1;
                    train_s += predtop
                        .reports
                        .iter()
                        .map(|r| r.2.train_seconds)
                        .sum::<f64>();
                    epochs += predtop
                        .reports
                        .iter()
                        .map(|r| r.2.epochs_run)
                        .sum::<usize>();
                    sim_profiles += fit_profiler.profiles_taken() + truth.profiles_taken();
                    sim_queries += fit_profiler.queries_issued() + truth.queries_issued();
                    // the untraced engine on the same predictor must
                    // reach the replay's plan bits
                    let direct = run_search(
                        &SearchRequest::new(model, cluster, opts).threads(ctx.threads),
                        &predtop,
                        &sim(),
                    );
                    checks.check(direct.as_ref().is_ok_and(|d| replayed.matches(d)), || {
                        "traced search replay diverged from run_search".to_string()
                    });
                    batch_chunks += replayed.batch_chunks;
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("usecase-gpt3: {e}");
                }
            }
        }
    }
    // ops run back to back, so throughput is ops over their summed time
    times.wall_s = times.op_s.iter().sum();
    times.completed = times.op_s.len();
    let last = last.ok_or("no workflow completed")?;

    // The chosen plan: legal, never better than the optimum, and
    // reproduced bit for bit by the step-by-step replay.
    checks.check(last.outcome.plan.validate(&model).is_ok(), || {
        "chosen plan is invalid".to_string()
    });
    checks.check(last.outcome.true_latency >= full.true_latency, || {
        format!(
            "chosen plan ({}) beats the full-profiling optimum ({})",
            last.outcome.true_latency, full.true_latency
        )
    });
    if !ctx.trace {
        let replayed = replay_search(ctx, &last.predtop, &last.truth)?;
        checks.check(replayed.matches(&last.outcome), || {
            "search replay diverged from run_search".to_string()
        });
    }

    // Plan quality next to the seconds.
    let regret = 100.0 * (last.outcome.true_latency / full.true_latency - 1.0);
    let mre = candidate_mre(&last.predtop, &ref_profiler, 1);
    let bill = last.fit_profiler.ledger().totals();
    checks.check(regret <= MAX_PLAN_REGRET_PCT, || {
        format!("chosen plan is {regret}% worse than the optimum (gate: {MAX_PLAN_REGRET_PCT}%)")
    });
    out.facts.push(("plan_regret_pct", format!("{regret}")));
    out.facts.push(("candidate_mre_pct", format!("{mre}")));
    out.facts
        .push(("profiling_bill_s", format!("{}", bill.profiling_s)));
    out.facts
        .push(("fit_s_median", format!("{}", median(&fit_s))));
    out.facts
        .push(("search_s_median", format!("{}", median(&search_s))));

    if ctx.trace {
        // Replay the fit's profiling phase once, timing graph build,
        // sample build and simulation separately.
        let tracer = &ctx.tracer;
        tracer.set_enabled(true);
        let probe = sim();
        let stages = sample_stages(
            model,
            cfg.num_profile_stages,
            cfg.max_stage_layers,
            cfg.seed,
        );
        let scenarios: Vec<_> = candidate_submeshes(cluster)
            .into_iter()
            .flat_map(|mesh| table3_configs(mesh).into_iter().map(move |c| (mesh, c)))
            .collect();
        for stage in &stages {
            let graph = tracer.span("models.build_graph", || probe.stage_graph(stage));
            tracer.span("gnn.sample_build", || {
                GraphSample::new(&graph, 1.0, cfg.arch.pe_dim())
            });
            for &(mesh, config) in &scenarios {
                tracer.span("sim.profile", || probe.stage_latency(stage, mesh, config));
            }
        }
        tracer.set_enabled(false);
        let replayed = probe.ledger().totals();
        checks.check(
            replayed.stages_profiled == bill.stages_profiled
                && (replayed.profiling_s - bill.profiling_s).abs() <= 1e-9 * bill.profiling_s,
            || {
                format!(
                    "profiling replay billed {} stages / {} s, the fit {} / {} s",
                    replayed.stages_profiled,
                    replayed.profiling_s,
                    bill.stages_profiled,
                    bill.profiling_s
                )
            },
        );

        let t = tracer.layer_times();
        let n = traced_n.max(1) as f64;
        let l = &mut out.layers;
        l.put_timed(
            "models.build_graph_s",
            t.self_s("models.build_graph"),
            "s",
            t.count("models.build_graph"),
        );
        l.put(
            "models.build_graph_calls",
            t.count("models.build_graph") as f64,
            "count",
        );
        l.put_timed(
            "sim.profile_s",
            t.self_s("sim.profile"),
            "s",
            t.count("sim.profile"),
        );
        l.put("sim.profiles", sim_profiles as f64 / n, "count");
        l.put("sim.queries", sim_queries as f64 / n, "count");
        l.put_timed(
            "gnn.sample_build_s",
            t.self_s("gnn.sample_build"),
            "s",
            t.count("gnn.sample_build"),
        );
        l.put_timed("gnn.train_s", train_s / n, "s", traced_n);
        l.put("gnn.epochs_run", epochs as f64 / n, "count");
        l.put_timed(
            "gnn.predict_s",
            t.self_s("gnn.predict") / n,
            "s",
            t.count("gnn.predict"),
        );
        l.put(
            "gnn.predict_calls",
            t.count("gnn.predict") as f64 / n,
            "count",
        );
        l.put(
            "gnn.predict_parallelism",
            t.total_s("gnn.predict") / t.total_s("service.query_batch").max(1e-12),
            "ratio",
        );
        for (name, v) in [
            "tensor.gemm_calls",
            "tensor.packed_floats",
            "tensor.micro_full_tiles",
            "tensor.micro_edge_tiles",
        ]
        .iter()
        .zip(kernels)
        {
            l.put(name, v as f64 / n, "count");
        }
        l.put_timed(
            "parallel.enumerate_s",
            t.self_s("parallel.enumerate") / n,
            "s",
            traced_n,
        );
        l.put("parallel.candidates", enumerated as f64, "count");
        l.put_timed("parallel.dp_s", t.self_s("parallel.dp") / n, "s", traced_n);
        l.put_timed(
            "service.query_batch_s",
            t.self_s("service.query_batch") / n,
            "s",
            traced_n,
        );
        l.put("service.batch_chunks", batch_chunks as f64 / n, "count");
        l.put_timed("core.fit_s", median(&fit_s), "s", fit_s.len());
        l.put_timed("core.search_s", median(&search_s), "s", search_s.len());
        l.put("quality.plan_regret_pct", regret, "%");
        l.put("quality.candidate_mre_pct", mre, "%");
        l.put("quality.profiling_bill_s", bill.profiling_s, "s");
    }
    out.times = times;
    out.checks = checks;
    Ok(out)
}
