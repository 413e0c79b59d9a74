//! `checked-moe-warm`: a `--checked`, simulator-backed plan search of a
//! small-dimension MoE model served from a warm object store. Set-up
//! fills a fresh store with a cold checked search; each op then runs the
//! same search through `SearchRequest::stored` with a fresh
//! `StaticLegality` and profiler, as the CLI does, so every candidate
//! latency is a verified disk read.
//!
//! The traced op replays the search through its public steps
//! (`enumerate_candidates` → `StaticLegality::is_legal` → interner warm
//! → one `query_batch` through `Persist → MemoizeStructural → Batched →
//! Instrumented` with timing shims around the store and the simulator →
//! `solve_pipeline` → `PipelinePlan::latency`); it must reach the cold
//! fill's plan bits. A traced run also replays one cold fill the same
//! way into a fresh store, so the store's write side (the `Persist`
//! layer's miss, encoding and write-behind) and the simulator are timed
//! through a real `Persist` layer; it must reach the same bits and write
//! as many objects as the set-up's fill.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use predtop_cluster::Platform;
use predtop_core::{run_search, search_legality, SearchOutcome, SearchRequest};
use predtop_models::ModelSpec;
use predtop_parallel::{
    enumerate_candidates, solve_pipeline, EvaluatedCandidate, InterStageOptions, MeshShape,
    PipelinePlan,
};
use predtop_service::{LatencyQuery, LatencyService, Persist, PersistStats, ServiceBuilder};
use predtop_sim::SimProfiler;
use predtop_store::Store;

use crate::report::{median, peak_rss_mb, OpTimes};
use crate::trace::{current_span, LayerTimes, Timed, Tracer};
use crate::{Checks, Ctx, Outcome};

/// Set-up repetitions (each a cold fill of a fresh store) whose median
/// is `setup_s`. A fill writes every object to disk, whose latency on a
/// shared machine swings, so the median needs more of them than the
/// other workloads' set-ups.
const SETUP_REPS: usize = 7;
/// Fewest untraced ops a run measures, even past `--seconds`.
const MIN_OPS: usize = 5;

/// Small-dimension MoE on Platform 2's 2×2 cluster, 4 micro-batches.
fn problem() -> (ModelSpec, MeshShape, InterStageOptions) {
    let mut model = ModelSpec::moe_2p6b(4);
    model.seq_len = 32;
    model.hidden = 32;
    model.num_heads = 4;
    model.vocab = 64;
    model.num_layers = 16;
    if let Some(moe) = model.moe.as_mut() {
        moe.num_experts = 4;
    }
    let opts = InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    };
    (model, MeshShape::new(2, 2), opts)
}

/// The workload seed is the simulator's perturbation seed: it fixes the
/// ground-truth latencies the store holds (and so the plan), not the
/// amount of work.
fn sim(seed: u64) -> SimProfiler {
    SimProfiler::new(Platform::platform2(), seed)
}

fn namespace(seed: u64) -> String {
    format!("sim:2:{seed}")
}

/// One CLI-style checked, store-backed search with a fresh legality
/// filter and profiler.
fn stored_search(ctx: &Ctx, store: &Arc<Store>) -> Result<SearchOutcome, String> {
    let (model, cluster, opts) = problem();
    let profiler = sim(ctx.seed);
    let legality = search_legality(model, &profiler, opts);
    let req = SearchRequest::new(model, cluster, opts)
        .threads(ctx.threads)
        .stored(Arc::clone(store), namespace(ctx.seed))
        .legality(&legality);
    run_search(&req, &profiler, &profiler).map_err(|e| format!("checked search failed: {e}"))
}

fn same_plan(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    a.plan == b.plan
        && a.estimated_latency.to_bits() == b.estimated_latency.to_bits()
        && a.true_latency.to_bits() == b.true_latency.to_bits()
        && a.num_queries == b.num_queries
        && a.num_rejected == b.num_rejected
        && a.num_rejected_memory == b.num_rejected_memory
}

/// Per-op counters of one traced replay.
#[derive(Default)]
struct ReplayCounts {
    candidates: usize,
    rejections: usize,
    memory_rejections: usize,
    reuse_rate: f64,
    memo_hit_rate: f64,
    memo_misses: usize,
    batch_chunks: usize,
    disk_hits: usize,
    disk_misses: usize,
    writes: usize,
    write_errors: usize,
    sim_profiles: usize,
    sim_queries: usize,
}

/// What one traced replay produced.
struct Replay {
    estimated: f64,
    plan: PipelinePlan,
    true_latency: f64,
    counts: ReplayCounts,
}

/// The stored search replayed through its public steps with a span
/// around each layer call, recorded by `tracer`. The `Persist` layer's
/// span is named `persist_span`: `store.get` on the warm store, where it
/// is a verified read, and `store.put` on a cold one, where it is the
/// miss and the write-behind around the simulator.
fn replay_search(
    ctx: &Ctx,
    tracer: &Arc<Tracer>,
    store: &Arc<Store>,
    persist_span: &'static str,
) -> Result<Replay, String> {
    let (model, cluster, opts) = problem();
    let profiler = sim(ctx.seed);
    let work = tracer.span("parallel.enumerate", || {
        enumerate_candidates(model, cluster, opts)
    });
    let (legal, legality) = tracer.span("analyze.legality", || {
        let legality = search_legality(model, &profiler, opts);
        let legal: Vec<_> = work
            .iter()
            .filter(|(stage, mesh, config)| legality.is_legal(stage, *mesh, *config))
            .copied()
            .collect();
        (legal, legality)
    });
    let queries: Vec<LatencyQuery> = legal
        .iter()
        .map(|&(stage, mesh, config)| LatencyQuery::new(stage, mesh, config))
        .collect();
    let parent = Arc::new(AtomicU32::new(0));
    let persist = Persist::new(
        Timed::new(&profiler, "sim.profile", tracer, &parent),
        Arc::clone(store),
        namespace(ctx.seed),
    );
    let persisted = persist.handle();
    let stack = ServiceBuilder::new(Timed::new(persist, persist_span, tracer, &parent))
        .memoize_structural()
        .batched(ctx.threads)
        .instrumented()
        .finish();
    let interner = stack
        .handles()
        .interner
        .clone()
        .ok_or("structural stack has no interner")?;
    tracer.span("parallel.interner_warm", || {
        for q in &queries {
            interner.warm(&q.stage, q.mesh, q.config);
        }
    });
    let replies = tracer.span("service.query_batch", || {
        parent.store(current_span(), Ordering::Relaxed);
        stack.query_batch(&queries)
    });
    let mut cands = Vec::with_capacity(queries.len());
    for (q, reply) in queries.iter().zip(replies) {
        cands.push(EvaluatedCandidate {
            stage: q.stage,
            mesh: q.mesh,
            config: q.config,
            seconds: reply
                .map_err(|e| format!("stored query failed: {e}"))?
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
    let true_latency = tracer.span("core.true_latency", || plan.latency(&profiler));

    let cache = stack
        .handles()
        .cache
        .as_ref()
        .map(|c| c.stats())
        .unwrap_or_default();
    let p = persisted.stats();
    let counts = ReplayCounts {
        candidates: work.len(),
        rejections: legality.rejections(),
        memory_rejections: legality.memory_rejections(),
        reuse_rate: interner.stats().reuse_rate(),
        memo_hit_rate: cache.hit_rate(),
        memo_misses: cache.misses,
        batch_chunks: stack
            .handles()
            .batch
            .as_ref()
            .map_or(0, |b| b.stats().chunks),
        disk_hits: p.disk_hits,
        disk_misses: p.disk_misses,
        writes: p.writes,
        write_errors: p.write_errors,
        sim_profiles: profiler.profiles_taken(),
        sim_queries: profiler.queries_issued(),
    };
    Ok(Replay {
        estimated,
        plan,
        true_latency,
        counts,
    })
}

fn fresh_store(ctx: &Ctx, rep: usize) -> Result<(PathBuf, Arc<Store>), String> {
    let dir = ctx
        .out_dir
        .join(format!("store-checked-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        Store::open(&dir).map_err(|e| format!("cannot open store at {}: {e}", dir.display()))?;
    Ok((dir, Arc::new(store)))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let mut times = OpTimes::default();

    // Set-up: fill a fresh store with a cold checked search.
    let mut filled: Option<(PathBuf, Arc<Store>, SearchOutcome)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((dir, ..)) = filled.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        let (dir, store) = fresh_store(ctx, rep)?;
        let cold = stored_search(ctx, &store)?;
        times.setup_s.push(started.elapsed().as_secs_f64());
        filled = Some((dir, store, cold));
    }
    let (dir, store, cold) = filled.expect("at least one set-up");
    let result = measure(ctx, &store, &cold, &mut out, &mut checks, &mut times);
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    out.times = times;
    out.checks = checks;
    Ok(out)
}

fn measure(
    ctx: &Ctx,
    store: &Arc<Store>,
    cold: &SearchOutcome,
    out: &mut Outcome,
    checks: &mut Checks,
    times: &mut OpTimes,
) -> Result<(), String> {
    let cold_persist = cold
        .service
        .as_ref()
        .and_then(|s| s.persist)
        .unwrap_or_default();
    checks.check(
        cold_persist.disk_hits == 0
            && cold_persist.disk_misses > 0
            && cold_persist.writes == cold_persist.disk_misses
            && cold_persist.write_errors == 0,
        || format!("cold fill did not write every reply behind: {cold_persist:?}"),
    );
    checks.check(cold.num_rejected > 0, || {
        "checked search rejected nothing".to_string()
    });

    let mut search_s = Vec::new();
    let mut counts = Vec::new();
    let window = Instant::now();
    for i in 0.. {
        let enough = times.op_s.len() >= MIN_OPS && (!ctx.trace || !counts.is_empty());
        if enough && window.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        out.attempted += 1;
        let traced = ctx.trace && i % 2 == 1;
        let started = Instant::now();
        if !traced {
            match stored_search(ctx, store) {
                Ok(warm) => {
                    times.op_s.push(started.elapsed().as_secs_f64());
                    if times.op_s.len() == MIN_OPS {
                        times.peak_rss_mb = peak_rss_mb();
                    }
                    search_s.push(warm.search_seconds);
                    let p = warm
                        .service
                        .as_ref()
                        .and_then(|s| s.persist)
                        .unwrap_or_default();
                    checks.check(same_plan(&warm, cold), || {
                        "warm search diverged from the cold fill".to_string()
                    });
                    checks.check(
                        p.disk_misses == 0
                            && p.writes == 0
                            && p.disk_hits == cold_persist.disk_misses,
                        || format!("warm search was not served from disk: {p:?}"),
                    );
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("checked-moe-warm: {e}");
                }
            }
        } else {
            let tracer = &ctx.tracer;
            tracer.set_enabled(true);
            tracer.begin_trace();
            let replay = tracer.span("bench.op", || {
                tracer.span("core.search", || {
                    replay_search(ctx, tracer, store, "store.get")
                })
            });
            let elapsed = started.elapsed().as_secs_f64();
            tracer.set_enabled(false);
            match replay {
                Ok(r) => {
                    out.traced_op_s.push(elapsed);
                    checks.check(
                        r.plan == cold.plan
                            && r.estimated.to_bits() == cold.estimated_latency.to_bits()
                            && r.true_latency.to_bits() == cold.true_latency.to_bits(),
                        || "traced search replay diverged from the cold fill".to_string(),
                    );
                    checks.check(r.counts.disk_misses == 0 && r.counts.writes == 0, || {
                        format!(
                            "traced replay missed the store: {} misses, {} writes",
                            r.counts.disk_misses, r.counts.writes
                        )
                    });
                    counts.push(r.counts);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("checked-moe-warm: {e}");
                }
            }
        }
    }
    // ops run back to back, so throughput is ops over their summed time
    times.wall_s = times.op_s.iter().sum();
    times.completed = times.op_s.len();
    out.facts
        .push(("search_s_median", format!("{}", median(&search_s))));
    out.facts
        .push(("candidates_legal", format!("{}", cold.num_queries)));
    out.facts
        .push(("candidates_rejected", format!("{}", cold.num_rejected)));
    out.facts.push((
        "store_objects_read",
        format!("{}", cold_persist.disk_misses),
    ));

    if ctx.trace {
        let fill = cold_fill_layers(ctx, cold, &cold_persist, checks)?;
        let tracer = &ctx.tracer;
        let traced_n = counts.len();
        let t = tracer.layer_times();
        let n = traced_n.max(1) as f64;
        let avg = |f: &dyn Fn(&ReplayCounts) -> f64| counts.iter().map(f).sum::<f64>() / n;
        let per_op = |name: &str| t.self_s(name) / n;
        let l = &mut out.layers;
        l.put_timed(
            "sim.profile_s",
            fill.times.self_s("sim.profile"),
            "s",
            fill.times.count("sim.profile"),
        );
        l.put("sim.profiles", avg(&|c| c.sim_profiles as f64), "count");
        l.put("sim.queries", avg(&|c| c.sim_queries as f64), "count");
        l.put_timed(
            "parallel.enumerate_s",
            per_op("parallel.enumerate"),
            "s",
            traced_n,
        );
        l.put(
            "parallel.candidates",
            avg(&|c| c.candidates as f64),
            "count",
        );
        l.put_timed(
            "parallel.interner_warm_s",
            per_op("parallel.interner_warm"),
            "s",
            traced_n,
        );
        l.put(
            "parallel.interner_reuse_rate",
            avg(&|c| c.reuse_rate),
            "ratio",
        );
        l.put_timed("parallel.dp_s", per_op("parallel.dp"), "s", traced_n);
        l.put_timed(
            "analyze.legality_s",
            per_op("analyze.legality"),
            "s",
            traced_n,
        );
        l.put(
            "analyze.legality_calls",
            avg(&|c| c.candidates as f64),
            "count",
        );
        l.put("analyze.rejections", avg(&|c| c.rejections as f64), "count");
        l.put(
            "analyze.memory_rejections",
            avg(&|c| c.memory_rejections as f64),
            "count",
        );
        l.put_timed(
            "service.query_batch_s",
            per_op("service.query_batch"),
            "s",
            traced_n,
        );
        l.put("service.memo_hit_rate", avg(&|c| c.memo_hit_rate), "ratio");
        l.put(
            "service.memo_misses",
            avg(&|c| c.memo_misses as f64),
            "count",
        );
        l.put(
            "service.batch_chunks",
            avg(&|c| c.batch_chunks as f64),
            "count",
        );
        l.put_timed(
            "store.get_s",
            per_op("store.get"),
            "s",
            t.count("store.get"),
        );
        l.put("store.disk_hits", avg(&|c| c.disk_hits as f64), "count");
        l.put("store.disk_misses", avg(&|c| c.disk_misses as f64), "count");
        l.put_timed(
            "store.put_s",
            fill.times.self_s("store.put"),
            "s",
            fill.times.count("store.put"),
        );
        l.put("store.writes", fill.counts.writes as f64, "count");
        l.put(
            "store.write_errors",
            fill.counts.write_errors as f64,
            "count",
        );
        l.put_timed("core.search_s", median(&search_s), "s", search_s.len());
    }
    Ok(())
}

/// The layer times and counters of one traced cold fill.
struct ColdFill {
    times: LayerTimes,
    counts: ReplayCounts,
}

/// Replay one cold fill into a fresh store with a tracer of its own (so
/// its spans stay out of the warm ops' figures) and check it against
/// the set-up's fill.
fn cold_fill_layers(
    ctx: &Ctx,
    cold: &SearchOutcome,
    cold_persist: &PersistStats,
    checks: &mut Checks,
) -> Result<ColdFill, String> {
    let tracer = Arc::new(Tracer::new(true));
    let (dir, store) = fresh_store(ctx, SETUP_REPS)?;
    let replay = replay_search(ctx, &tracer, &store, "store.put");
    let _ = std::fs::remove_dir_all(dir);
    let r = replay?;
    checks.check(
        r.plan == cold.plan
            && r.estimated.to_bits() == cold.estimated_latency.to_bits()
            && r.true_latency.to_bits() == cold.true_latency.to_bits(),
        || "traced cold fill diverged from the set-up's fill".to_string(),
    );
    checks.check(
        r.counts.disk_hits == 0
            && r.counts.writes == cold_persist.writes
            && r.counts.write_errors == 0,
        || {
            format!(
                "traced cold fill wrote {} objects ({} errors, {} hits), the set-up's fill {}",
                r.counts.writes, r.counts.write_errors, r.counts.disk_hits, cold_persist.writes
            )
        },
    );
    Ok(ColdFill {
        times: tracer.layer_times(),
        counts: r.counts,
    })
}
