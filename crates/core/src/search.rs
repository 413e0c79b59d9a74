//! The use case (§VIII-B): parallelization-plan search driven by any
//! latency source, evaluated against ground truth.
//!
//! There is one engine, [`search_plan_service`]: it enumerates the
//! candidate work-list, statically filters it, resolves it as one query
//! batch through a [`LatencyService`] stack, and solves the DP with
//! [`solve_pipeline`]. Any middleware stack assembled with
//! [`predtop_service::ServiceBuilder`] (memoization, batched fan-out,
//! instrumentation, fallback between sources, a disk tier) slots in
//! without the search knowing. [`run_search`] is the one convenience
//! entry point: it builds the canonical stack a [`SearchRequest`] asks
//! for and runs the engine over it.

use std::sync::Arc;
use std::time::Instant;

use predtop_analyze::StaticLegality;
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{
    enumerate_candidates, solve_pipeline, EvaluatedCandidate, InterStageOptions, MeshShape,
    ParallelConfig, PipelinePlan,
};
use predtop_runtime::configured_threads;
use predtop_service::{LatencyQuery, LatencyService, ServiceBuilder, ServiceError, ServiceStack};
use predtop_sim::SimProfiler;
use predtop_store::Store;

// ServiceReport moved next to the stack handles it snapshots (and the
// `Ledger` render trait the CLI and wire protocol share); re-exported
// here so `predtop_core::search::ServiceReport` keeps resolving.
pub use predtop_service::ServiceReport;

/// Outcome of one plan search, with everything Fig. 10 reports.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The plan the optimizer chose.
    pub plan: PipelinePlan,
    /// Eqn. 4 latency as *estimated by the provider* during the search.
    pub estimated_latency: f64,
    /// Eqn. 4 latency of the chosen plan under ground-truth stage
    /// latencies (what actually matters — Fig. 10b).
    pub true_latency: f64,
    /// Number of stage-latency queries the search issued.
    pub num_queries: usize,
    /// Number of enumerated candidates a static-legality filter rejected
    /// *before* any latency evaluation (0 for unchecked searches).
    pub num_rejected: usize,
    /// How many of those rejections came from the memory-capacity rule
    /// (`P1401`, the liveness-tight per-device lower bound) rather than
    /// sharding arithmetic. Always ≤ `num_rejected`.
    pub num_rejected_memory: usize,
    /// Wall-clock seconds the search itself took.
    pub search_seconds: f64,
    /// Per-layer accounting of the service stack the search ran
    /// through; `None` when the stack had no instrumented layers.
    pub service: Option<ServiceReport>,
}

/// The plan-search engine: run the inter-stage DP for `model` on
/// `cluster` with `stack` as the latency source, then re-evaluate the
/// winning plan with the ground-truth `profiler`.
///
/// Phase 1 enumerates and (via the optional `StaticLegality`) filters
/// the candidate work-list, with the filter's graph builds and memory
/// bounds spread over the stack's `Batched` width (the caller's thread
/// when the stack has none); phase 2 resolves it as **one query
/// batch** through the stack — a `Batched` layer fans it across the
/// worker pool with results landing at fixed indices; phase 3 is the
/// shared [`solve_pipeline`] DP. Identical work-lists and per-query
/// values give bit-identical plans, so every transparent middleware
/// combination chooses the same plan with the same latency bits.
///
/// Errors if any candidate query fails after the whole stack (including
/// any `Fallback` chain) has been consulted, and with
/// [`ServiceError::NoLegalPlan`] if the legality filter leaves no
/// covering partition — in particular when `opts.microbatches` does not
/// divide `model.batch` (`P1301` rejects every candidate) or when no
/// stage split fits device memory (`P1401`).
pub fn search_plan_service(
    model: ModelSpec,
    cluster: MeshShape,
    stack: &ServiceStack<'_>,
    profiler: &SimProfiler,
    opts: InterStageOptions,
    legality: Option<&StaticLegality>,
) -> Result<SearchOutcome, ServiceError> {
    let started = Instant::now();

    // Phase 1: enumerate + static filter, in the canonical order.
    let full = enumerate_candidates(model, cluster, opts);
    let enumerated = full.len();
    // the legality counters are cumulative over the filter's lifetime,
    // so delta-snapshot them around this search's phase 1
    let memory_before = legality.map_or(0, |l| l.memory_rejections());
    let worklist: Vec<(StageSpec, MeshShape, ParallelConfig)> = match legality {
        Some(l) => {
            let threads = stack.handles().batch.as_ref().map_or(1, |b| b.threads());
            l.filter(full, threads)
        }
        None => full,
    };
    let num_queries = worklist.len();
    let num_rejected = enumerated - num_queries;
    let num_rejected_memory = legality.map_or(0, |l| l.memory_rejections()) - memory_before;

    // Phase 2: one batch through the stack. When the stack memoizes,
    // pre-assign every query's structural key serially over the
    // canonical work-list first: interning is cheap (a hash of the
    // stage descriptor), and doing it here makes key numbering and each
    // class's representative — the query a cache miss forwards, so what
    // the source profiles and bills — a pure function of the work-list,
    // independent of which worker the batch layer hands each query to.
    let queries: Vec<LatencyQuery> = worklist
        .iter()
        .map(|&(stage, mesh, config)| LatencyQuery::new(stage, mesh, config))
        .collect();
    if let Some(interner) = stack.handles().interner.as_ref() {
        for q in &queries {
            interner.warm(&q.stage, q.mesh, q.config);
        }
    }
    let replies = stack.query_batch(&queries);
    let mut cands: Vec<EvaluatedCandidate> = Vec::with_capacity(queries.len());
    for (q, reply) in queries.iter().zip(replies) {
        cands.push(EvaluatedCandidate {
            stage: q.stage,
            mesh: q.mesh,
            config: q.config,
            seconds: reply?.seconds,
        });
    }

    // Phase 3: the shared DP.
    let (estimated_latency, plan) = solve_pipeline(
        &cands,
        model.num_layers,
        cluster.num_devices(),
        opts.microbatches,
    )
    .ok_or(ServiceError::NoLegalPlan {
        candidates: enumerated,
        rejected: num_rejected,
        rejected_memory: num_rejected_memory,
    })?;
    let search_seconds = started.elapsed().as_secs_f64();
    let true_latency = plan.latency(profiler);

    let report = ServiceReport::from_handles(stack.handles());
    let service = report.any_installed().then_some(report);
    Ok(SearchOutcome {
        plan,
        estimated_latency,
        true_latency,
        num_queries,
        num_rejected,
        num_rejected_memory,
        search_seconds,
        service,
    })
}

/// One description of a plan search: the problem (`model`, `cluster`,
/// `opts`) plus its execution knobs. Build one with [`SearchRequest::new`],
/// refine it with the chained setters, and execute it with
/// [`run_search`] — the CLI, the `predtop serve` daemon, and the tests
/// all construct the same value.
#[derive(Clone)]
pub struct SearchRequest<'a> {
    /// The model whose pipeline is being partitioned.
    pub model: ModelSpec,
    /// The full cluster mesh candidate sub-meshes are carved from.
    pub cluster: MeshShape,
    /// Inter-stage options (micro-batches, imbalance tolerance).
    pub opts: InterStageOptions,
    /// Evaluation worker threads for the `Batched` layer.
    pub threads: usize,
    /// Optional disk tier: the open store and the namespace its keys
    /// are scoped to (conventionally `"<source>:<platform>:<seed>"`).
    /// When set, the canonical store-backed stack (`Persist →
    /// MemoizeStructural → Batched → Instrumented`) is assembled, so
    /// the search's latency replies are served from and written behind
    /// into the store.
    pub store: Option<(Arc<Store>, String)>,
    /// Optional static-legality filter (the `--checked` path).
    pub legality: Option<&'a StaticLegality>,
}

impl<'a> SearchRequest<'a> {
    /// A request for the plain search: `configured_threads()` workers,
    /// no disk tier, no legality filter.
    pub fn new(model: ModelSpec, cluster: MeshShape, opts: InterStageOptions) -> SearchRequest<'a> {
        SearchRequest {
            model,
            cluster,
            opts,
            threads: configured_threads(),
            store: None,
            legality: None,
        }
    }

    /// Set an explicit evaluation-pool size. The outcome is
    /// bit-identical for every `threads ≥ 1`.
    pub fn threads(mut self, threads: usize) -> SearchRequest<'a> {
        self.threads = threads;
        self
    }

    /// Attach the disk tier: replies are served from (and written
    /// behind into) `store` under `namespace`.
    pub fn stored(mut self, store: Arc<Store>, namespace: String) -> SearchRequest<'a> {
        self.store = Some((store, namespace));
        self
    }

    /// Install a static-legality filter in front of the latency source.
    pub fn legality(mut self, legality: &'a StaticLegality) -> SearchRequest<'a> {
        self.legality = Some(legality);
        self
    }
}

/// Execute one [`SearchRequest`] with `source` as the latency source,
/// re-evaluating the winning plan with the ground-truth `profiler`.
///
/// Without a store the stack is `Batched` only; with one it is the
/// canonical `Persist → MemoizeStructural → Batched → Instrumented`
/// store-backed stack (best-effort: an unwritable store degrades
/// persistence, never the search result). Errors as
/// [`search_plan_service`] does.
pub fn run_search<S: LatencyService>(
    req: &SearchRequest<'_>,
    source: S,
    profiler: &SimProfiler,
) -> Result<SearchOutcome, ServiceError> {
    let mut builder = ServiceBuilder::new(source).batched(req.threads);
    if let Some((store, namespace)) = &req.store {
        builder = builder
            .persist(Arc::clone(store), namespace.clone())
            .memoize_structural()
            .instrumented();
    }
    search_plan_service(
        req.model,
        req.cluster,
        &builder.finish(),
        profiler,
        req.opts,
        req.legality,
    )
}

/// The static-legality filter the checked searches install: the
/// sharding-divisibility rules plus the per-device memory lower bound,
/// sized for `profiler`'s platform GPU with 10% headroom and reading
/// stage graphs from `profiler`'s store. Exposed so callers assembling
/// their own [`predtop_service::ServiceBuilder`] stacks can pass the
/// identical filter to [`search_plan_service`].
pub fn search_legality(
    model: ModelSpec,
    profiler: &SimProfiler,
    opts: InterStageOptions,
) -> StaticLegality {
    StaticLegality::new(model, opts.microbatches).with_memory_check(
        profiler.platform().gpu.clone(),
        0.1,
        profiler.graphs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graybox::{GrayBoxConfig, PredTop};
    use crate::predictor::ArchConfig;
    use predtop_cluster::Platform;
    use predtop_gnn::train::TrainConfig;
    use predtop_gnn::ModelKind;
    use predtop_service::ProviderService;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 32;
        s.num_heads = 4;
        s.vocab = 64;
        s.num_layers = 6;
        s
    }

    #[test]
    fn profiler_driven_search_estimate_equals_truth() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let out = run_search(
            &SearchRequest::new(tiny_model(), cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");
        out.plan.validate(&tiny_model()).unwrap();
        assert!((out.estimated_latency - out.true_latency).abs() < 1e-12);
        assert!(out.num_queries > 0);
    }

    #[test]
    fn unchecked_search_queries_each_enumerated_candidate_once() {
        let model = tiny_model();
        let cluster = MeshShape::new(1, 2);
        for imbalance_tolerance in [None, Some(0.25)] {
            let opts = InterStageOptions {
                microbatches: 4,
                imbalance_tolerance,
            };
            let source = SimProfiler::new(Platform::platform1(), 7);
            let truth = SimProfiler::new(Platform::platform1(), 7);
            let out = run_search(
                &SearchRequest::new(model, cluster, opts).threads(2),
                &source,
                &truth,
            )
            .expect("simulator search is infallible");
            let enumerated = enumerate_candidates(model, cluster, opts).len();
            assert_eq!(out.num_queries, enumerated, "{imbalance_tolerance:?}");
            assert_eq!(out.num_rejected, 0);
            // the source itself saw every candidate exactly once
            assert_eq!(source.queries_issued(), enumerated);
        }
    }

    #[test]
    fn memoized_stack_search_is_transparent() {
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };

        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let plain = run_search(
            &SearchRequest::new(tiny_model(), cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");
        let plain_underlying = profiler.queries_issued();
        assert!(plain.service.and_then(|r| r.cache).is_none());

        let profiler2 = SimProfiler::new(Platform::platform1(), 7);
        let stack = ServiceBuilder::new(&profiler2)
            .memoize_structural()
            .batched(configured_threads())
            .finish();
        let cached = search_plan_service(tiny_model(), cluster, &stack, &profiler2, opts, None)
            .expect("simulator stack is infallible");

        // the memoization layer must be invisible in the outcome...
        assert_eq!(
            cached.estimated_latency.to_bits(),
            plain.estimated_latency.to_bits()
        );
        assert_eq!(cached.true_latency.to_bits(), plain.true_latency.to_bits());
        assert_eq!(cached.num_queries, plain.num_queries);
        assert_eq!(cached.plan, plain.plan);

        // ...and its counters must account for every search query
        let report = cached.service.expect("memoized stack reports service");
        let stats = report.cache.expect("memoized stack reports stats");
        assert_eq!(stats.queries(), cached.num_queries);
        // never more work for the underlying provider than uncached
        assert!(profiler2.queries_issued() <= plain_underlying);
    }

    #[test]
    fn structural_memoized_search_is_transparent_and_shares_work() {
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let plain = run_search(
            &SearchRequest::new(tiny_model(), cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");
        let plain_underlying = profiler.queries_issued();

        let profiler2 = SimProfiler::new(Platform::platform1(), 7);
        let stack = ServiceBuilder::new(&profiler2)
            .memoize_structural()
            .batched(2)
            .finish();
        let out = search_plan_service(tiny_model(), cluster, &stack, &profiler2, opts, None)
            .expect("simulator stack is infallible");

        // structural sharing must be invisible in the outcome: the
        // simulator is a pure function of the stage graph, so an
        // isomorphic window's cached reply is the bit-identical value
        assert_eq!(out.plan, plain.plan);
        assert_eq!(
            out.estimated_latency.to_bits(),
            plain.estimated_latency.to_bits()
        );
        assert_eq!(out.true_latency.to_bits(), plain.true_latency.to_bits());
        assert_eq!(out.num_queries, plain.num_queries);

        // the report shows the sharing: fewer distinct structures than
        // queries, every reuse a cache hit, and the inner simulator
        // consulted once per structure only
        let report = out.service.expect("structural stack reports");
        let interner = report.interner.expect("interner stats ride along");
        assert_eq!(interner.lookups, out.num_queries);
        assert!(
            interner.distinct < out.num_queries,
            "a 6-layer dense model must share interior windows ({} vs {})",
            interner.distinct,
            out.num_queries
        );
        let cache = report.cache.expect("structural stack reports cache stats");
        assert_eq!(cache.queries(), out.num_queries);
        assert_eq!(cache.misses, interner.distinct);
        assert_eq!(cache.hits, out.num_queries - interner.distinct);
        assert!(report.batch.is_some(), "batched layer reports dispatch");
        assert!(
            profiler2.queries_issued() < plain_underlying,
            "structural sharing must cut underlying simulator work"
        );
    }

    #[test]
    fn service_stack_search_matches_run_search() {
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let reference = run_search(
            &SearchRequest::new(tiny_model(), cluster, opts).threads(2),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");

        let profiler2 = SimProfiler::new(Platform::platform1(), 7);
        let stack = ServiceBuilder::new(&profiler2)
            .memoize_structural()
            .batched(2)
            .instrumented()
            .finish();
        let out = search_plan_service(tiny_model(), cluster, &stack, &profiler2, opts, None)
            .expect("simulator stack is infallible");

        assert_eq!(out.plan, reference.plan);
        assert_eq!(
            out.estimated_latency.to_bits(),
            reference.estimated_latency.to_bits()
        );
        assert_eq!(out.num_queries, reference.num_queries);
        let report = out.service.expect("instrumented stack reports");
        let metrics = report.metrics.expect("instrumented layer installed");
        assert_eq!(metrics.queries, out.num_queries);
        assert_eq!(metrics.errors, 0);
        assert!(metrics.served_seconds > 0.0);
        assert_eq!(
            report.cache.expect("memoize layer installed").queries(),
            out.num_queries
        );
    }

    #[test]
    fn checked_search_never_queries_illegal_candidates() {
        use parking_lot::Mutex;
        use predtop_models::StageSpec;
        use predtop_parallel::{ParallelConfig, StageLatencyProvider};

        /// Synthetic provider recording every candidate it is asked about.
        struct RecordingProvider {
            seen: Mutex<Vec<(usize, usize, usize, usize)>>,
        }
        impl StageLatencyProvider for RecordingProvider {
            fn stage_latency(
                &self,
                stage: &StageSpec,
                mesh: MeshShape,
                config: ParallelConfig,
            ) -> f64 {
                self.seen
                    .lock()
                    .push((stage.start, stage.end, config.dp, config.mp));
                stage.num_layers() as f64 / (config.num_devices() as f64).sqrt()
                    + 0.01 * mesh.num_devices() as f64
            }
        }

        // batch 4 split into 2 micro-batches -> per-microbatch 2, so
        // dp=4 is illegal (P1302); 2 heads, so mp=4 is illegal (P1304)
        let mut model = tiny_model();
        model.batch = 4;
        model.num_heads = 2;
        model.num_layers = 4;
        let cluster = MeshShape::new(2, 2);
        let opts = InterStageOptions {
            microbatches: 2,
            imbalance_tolerance: None,
        };
        // platform 2 physically has the 2x2 mesh (platform 1 is one node)
        let profiler = SimProfiler::new(Platform::platform2(), 7);

        let plain_provider = RecordingProvider {
            seen: Mutex::new(Vec::new()),
        };
        let plain = run_search(
            &SearchRequest::new(model, cluster, opts),
            ProviderService::new(&plain_provider, "provider"),
            &profiler,
        )
        .expect("lifted providers are infallible");
        assert_eq!(plain.num_rejected, 0);
        let plain_seen = plain_provider.seen.into_inner();
        assert!(
            plain_seen.iter().any(|&(.., dp, mp)| dp == 4 || mp == 4),
            "unchecked search should evaluate the over-sharded candidates"
        );

        let checked_provider = RecordingProvider {
            seen: Mutex::new(Vec::new()),
        };
        let legality = search_legality(model, &profiler, opts);
        let checked = run_search(
            &SearchRequest::new(model, cluster, opts).legality(&legality),
            ProviderService::new(&checked_provider, "provider"),
            &profiler,
        )
        .expect("lifted providers are infallible");
        let checked_seen = checked_provider.seen.into_inner();

        // the provider never saw a statically illegal candidate...
        for &(start, end, dp, mp) in &checked_seen {
            assert!(
                dp != 4 && mp != 4,
                "illegal candidate [{start}..{end}) dp={dp} mp={mp} was latency-evaluated"
            );
        }
        // ...every skipped candidate is accounted for...
        assert!(checked.num_rejected > 0);
        assert_eq!(checked.num_queries, checked_seen.len());
        assert_eq!(
            checked.num_queries + checked.num_rejected,
            plain.num_queries
        );
        // ...and the chosen plan is legal end to end
        checked.plan.validate(&model).unwrap();
        for ps in &checked.plan.stages {
            assert!(ps.config.dp != 4 && ps.config.mp != 4);
        }
    }

    #[test]
    fn memory_rejections_prune_without_changing_the_optimum() {
        use predtop_analyze::plan_passes::stage_memory_liveness_bound;
        use predtop_cluster::GpuSpec;
        use predtop_parallel::ParallelConfig;

        let model = tiny_model();
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 2,
            imbalance_tolerance: None,
        };
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let plain = run_search(
            &SearchRequest::new(model, cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");
        assert_eq!(plain.num_rejected_memory, 0);

        // liveness-bound per-device requirement of a candidate
        let req = |stage: &StageSpec, config: ParallelConfig| {
            stage_memory_liveness_bound(&stage.build_graph(), config).total()
        };
        // hungriest always-divisible candidate: some serial stage
        let max_serial = enumerate_candidates(model, cluster, opts)
            .iter()
            .filter(|(_, _, c)| *c == ParallelConfig::SERIAL)
            .map(|(s, _, c)| req(s, *c))
            .max()
            .unwrap();
        // hungriest stage of the plan the unchecked search chose
        let max_chosen = plain
            .plan
            .stages
            .iter()
            .map(|ps| req(&ps.stage, ps.config))
            .max()
            .unwrap();
        assert!(
            max_chosen < max_serial,
            "test needs headroom between the optimum ({max_chosen} B) and the \
             hungriest serial candidate ({max_serial} B)"
        );

        // a GPU sized between the two: the optimum fits with 10%
        // headroom, the serial full-model candidate does not
        let budget_bytes = (max_chosen + max_serial) as f64 / 2.0 / 0.9;
        let gpu = GpuSpec {
            name: "tiny-test-gpu",
            memory_gib: budget_bytes / (1u64 << 30) as f64,
            ..GpuSpec::a40()
        };
        let legality = StaticLegality::new(model, opts.microbatches).with_memory_check(
            gpu,
            0.1,
            profiler.graphs(),
        );
        let stack = ServiceBuilder::new(ProviderService::new(&profiler, "provider"))
            .batched(2)
            .finish();
        let checked = search_plan_service(model, cluster, &stack, &profiler, opts, Some(&legality))
            .expect("simulator stack is infallible");

        // the memory rule did real pruning...
        assert!(checked.num_rejected_memory > 0, "no memory rejections");
        assert!(checked.num_rejected_memory <= checked.num_rejected);
        assert_eq!(legality.memory_rejections(), checked.num_rejected_memory);
        assert!(checked.num_queries < plain.num_queries);
        // ...without disturbing the chosen plan or its latency
        assert_eq!(checked.plan, plain.plan);
        assert_eq!(
            checked.estimated_latency.to_bits(),
            plain.estimated_latency.to_bits()
        );
        assert_eq!(checked.true_latency.to_bits(), plain.true_latency.to_bits());
    }

    #[test]
    fn checked_search_with_no_legal_plan_is_an_error() {
        use predtop_cluster::GpuSpec;

        let model = tiny_model();
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 2,
            imbalance_tolerance: None,
        };
        // a 1 KiB device: no stage of any split fits
        let gpu = GpuSpec {
            name: "no-room-gpu",
            memory_gib: 1.0 / (1u64 << 20) as f64,
            ..GpuSpec::a40()
        };
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let legality = StaticLegality::new(model, opts.microbatches).with_memory_check(
            gpu,
            0.1,
            profiler.graphs(),
        );
        let err = run_search(
            &SearchRequest::new(model, cluster, opts).legality(&legality),
            &profiler,
            &profiler,
        )
        .expect_err("no stage fits a 1 KiB device");
        let candidates = enumerate_candidates(model, cluster, opts).len();
        assert_eq!(
            err,
            ServiceError::NoLegalPlan {
                candidates,
                rejected: candidates,
                rejected_memory: legality.memory_rejections(),
            }
        );
        assert!(legality.memory_rejections() > 0);
        assert!(!err.is_transient());
        assert!(err.to_string().contains("P1401"), "{err}");
        // nothing was queried, not even the ground truth
        assert_eq!(profiler.queries_issued(), 0);
    }

    /// `checked-moe-warm`'s problem: a small-dimension MoE on Platform
    /// 2's 2×2 cluster with 4 micro-batches.
    fn moe_problem() -> (ModelSpec, MeshShape, InterStageOptions) {
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

    /// The checked search judges each (stage structure, config) pair
    /// once: the 408 candidates that pass divisibility span 58 stage
    /// structures under 3 configurations, at any batch width. Platform
    /// 2's devices hold every pair's retain-everything ceiling, so no
    /// verdict takes the exact sweep or builds a graph; the 58 graphs
    /// are the profiler's, the search's latency source.
    #[test]
    fn checked_search_bounds_each_structure_and_config_once() {
        let (model, cluster, opts) = moe_problem();
        for threads in [1, 2] {
            let profiler = SimProfiler::new(Platform::platform2(), 1);
            let legality = search_legality(model, &profiler, opts);
            let out = run_search(
                &SearchRequest::new(model, cluster, opts)
                    .threads(threads)
                    .legality(&legality),
                &profiler,
                &profiler,
            )
            .expect("Platform 2's devices fit a plan");
            assert_eq!((out.num_rejected, out.num_rejected_memory), (408, 0));
            assert_eq!(legality.memory_checks(), 174, "{threads} threads");
            assert_eq!(legality.memory_sweeps(), 0, "{threads} threads");
            assert_eq!(profiler.graphs().len(), 58, "{threads} threads");
        }
    }

    /// `checked-moe-warm`'s problem on a fixed 0.045 GiB device (at
    /// 0.044 GiB no plan fits): the `P1401` branch rejects 110
    /// candidates, where Platform 2's own devices reject none. Every figure
    /// was recorded with the fixpoint-solved liveness peak.
    #[test]
    fn tight_memory_checked_search_is_pinned() {
        use predtop_cluster::GpuSpec;

        let (model, cluster, opts) = moe_problem();
        let gpu = GpuSpec {
            name: "tight-test-gpu",
            memory_gib: 0.045,
            ..GpuSpec::a40()
        };
        let profiler = SimProfiler::new(Platform::platform2(), 1);
        let legality = StaticLegality::new(model, opts.microbatches).with_memory_check(
            gpu,
            0.1,
            profiler.graphs(),
        );
        let out = run_search(
            &SearchRequest::new(model, cluster, opts).legality(&legality),
            &profiler,
            &profiler,
        )
        .expect("a plan fits the tight device");
        let stages: Vec<(usize, usize, usize, usize, usize, usize)> = out
            .plan
            .stages
            .iter()
            .map(|ps| {
                (
                    ps.stage.start,
                    ps.stage.end,
                    ps.mesh.nodes,
                    ps.mesh.gpus_per_node,
                    ps.config.dp,
                    ps.config.mp,
                )
            })
            .collect();
        assert_eq!(out.num_rejected, 518);
        assert_eq!(out.num_rejected_memory, 110);
        assert_eq!(out.num_queries, 298);
        // legality, profiling and the true-latency re-evaluation share
        // the profiler's store: one graph per stage structure of the
        // 136 layer ranges, judged once per configuration; 69 of the 174
        // verdicts need the exact sweep
        assert_eq!(profiler.graphs().len(), 58);
        assert_eq!(legality.memory_checks(), 174);
        assert_eq!(legality.memory_sweeps(), 69);
        assert_eq!(
            stages,
            [
                (0, 4, 1, 1, 1, 1),
                (4, 8, 1, 1, 1, 1),
                (8, 12, 1, 1, 1, 1),
                (12, 16, 1, 1, 1, 1)
            ]
        );
        assert_eq!(out.estimated_latency.to_bits(), 0x3fa9_cd8a_e427_c996);
        assert_eq!(out.true_latency.to_bits(), 0x3fa9_cd8a_e427_c996);
    }

    fn store_dir(name: &str) -> Arc<Store> {
        let dir = std::env::temp_dir().join(format!(
            "predtop-core-search-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(Store::open(dir).unwrap())
    }

    #[test]
    fn stored_search_cold_and_warm_runs_are_bit_identical() {
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let store = store_dir("cold-warm");
        let namespace = "sim:platform1:7";
        let plain_req = SearchRequest::new(tiny_model(), cluster, opts).threads(2);
        let req = plain_req
            .clone()
            .stored(store.clone(), namespace.to_string());

        // the reference result through the store-less stack
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let plain =
            run_search(&plain_req, &profiler, &profiler).expect("simulator stack is infallible");

        // cold run: every structural class misses the disk and is
        // written behind
        let p_cold = SimProfiler::new(Platform::platform1(), 7);
        let cold = run_search(&req, &p_cold, &p_cold).expect("simulator stack is infallible");
        assert_eq!(cold.plan, plain.plan);
        assert_eq!(
            cold.estimated_latency.to_bits(),
            plain.estimated_latency.to_bits()
        );
        let cold_report = cold.service.as_ref().expect("stored stack reports");
        let cold_persist = cold_report.persist.expect("persist layer reports");
        assert_eq!(cold_persist.disk_hits, 0);
        assert!(cold_persist.disk_misses > 0);
        assert_eq!(cold_persist.writes, cold_persist.disk_misses);
        assert_eq!(cold_persist.write_errors, 0);

        // warm run, same namespace, fresh process state: the disk tier
        // serves every structural class and the inner simulator is
        // never consulted
        let p_warm = SimProfiler::new(Platform::platform1(), 7);
        let warm = run_search(&req, &p_warm, &p_warm).expect("simulator stack is infallible");
        assert_eq!(warm.plan, cold.plan);
        assert_eq!(
            warm.estimated_latency.to_bits(),
            cold.estimated_latency.to_bits()
        );
        assert_eq!(warm.true_latency.to_bits(), cold.true_latency.to_bits());
        assert_eq!(warm.num_queries, cold.num_queries);
        let warm_persist = warm
            .service
            .as_ref()
            .and_then(|r| r.persist)
            .expect("persist layer reports");
        assert_eq!(warm_persist.disk_misses, 0);
        assert_eq!(warm_persist.disk_hits, cold_persist.disk_misses);
        // the warm search's candidate evaluation never reached the
        // simulator — only the out-of-stack ground-truth re-evaluation
        // did, so the warm run issues strictly fewer queries than cold
        assert!(
            p_warm.queries_issued() < p_cold.queries_issued(),
            "warm search must serve candidate latencies from disk \
             ({} vs {} simulator queries)",
            p_warm.queries_issued(),
            p_cold.queries_issued()
        );
    }

    /// A warm checked search on Platform 2 builds stage graphs only to
    /// re-evaluate the chosen plan: every candidate latency is a disk
    /// read, and the filter settles every memory verdict from part sums.
    #[test]
    fn warm_checked_search_builds_only_the_plan_graphs() {
        use predtop_parallel::StageStructure;
        use std::collections::HashSet;

        let (model, cluster, opts) = moe_problem();
        let store = store_dir("checked-warm");
        let search = || {
            let profiler = SimProfiler::new(Platform::platform2(), 1);
            let legality = search_legality(model, &profiler, opts);
            let req = SearchRequest::new(model, cluster, opts)
                .threads(2)
                .stored(Arc::clone(&store), "sim:2:1".to_string())
                .legality(&legality);
            let out = run_search(&req, &profiler, &profiler).expect("Platform 2 fits a plan");
            (out, profiler)
        };
        let (cold, _) = search();
        let (warm, profiler) = search();
        let persist = |out: &SearchOutcome| {
            out.service
                .as_ref()
                .and_then(|r| r.persist)
                .expect("persist layer reports")
        };
        assert!(persist(&cold).disk_misses > 0);
        assert_eq!(persist(&warm).disk_misses, 0);
        assert_eq!(warm.plan, cold.plan);
        assert_eq!(
            warm.estimated_latency.to_bits(),
            cold.estimated_latency.to_bits()
        );
        assert_eq!(warm.true_latency.to_bits(), cold.true_latency.to_bits());
        let plan_structures: HashSet<StageStructure> = warm
            .plan
            .stages
            .iter()
            .map(|ps| StageStructure::of(&ps.stage))
            .collect();
        assert_eq!(profiler.graphs().len(), plan_structures.len());
        // and they are the plan's: reading them back builds nothing
        for ps in &warm.plan.stages {
            profiler.graphs().get(&ps.stage);
        }
        assert_eq!(profiler.graphs().len(), plan_structures.len());
    }

    #[test]
    fn stored_search_survives_truncated_objects_bit_identically() {
        let cluster = MeshShape::new(1, 2);
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let store = store_dir("truncated");
        let req = SearchRequest::new(tiny_model(), cluster, opts)
            .threads(2)
            .stored(store.clone(), "sim:platform1:7".to_string());
        let p_cold = SimProfiler::new(Platform::platform1(), 7);
        let cold = run_search(&req, &p_cold, &p_cold).expect("simulator stack is infallible");

        // truncate every loose object mid-file: each warm read now
        // surfaces a ShortRead, the layer recomputes, and the damaged
        // entries are rewritten
        for fan in std::fs::read_dir(store.root().join("objects")).unwrap() {
            for obj in std::fs::read_dir(fan.unwrap().path()).unwrap() {
                let path = obj.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            }
        }

        let p_warm = SimProfiler::new(Platform::platform1(), 7);
        let warm = run_search(&req, &p_warm, &p_warm)
            .expect("corruption must degrade to recompute, not fail");
        assert_eq!(warm.plan, cold.plan);
        assert_eq!(
            warm.estimated_latency.to_bits(),
            cold.estimated_latency.to_bits()
        );
        assert_eq!(warm.true_latency.to_bits(), cold.true_latency.to_bits());
        let persist = warm
            .service
            .as_ref()
            .and_then(|r| r.persist)
            .expect("persist layer reports");
        assert!(persist.corrupt_recovered > 0, "damage must be observed");
        // the rewrite repaired the reply objects: they verify clean now
        assert!(store.verify().unwrap().is_clean());
    }

    #[test]
    fn predictor_driven_search_finds_competitive_plan() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 2);
        let model = tiny_model();

        // ground-truth optimum (full profiling)
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let full = run_search(
            &SearchRequest::new(model, cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("simulator search is infallible");

        // PredTOP-driven search
        let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
        arch.layers = 1;
        arch.hidden = 16;
        arch.heads = 2;
        let cfg = GrayBoxConfig {
            num_profile_stages: 15,
            max_stage_layers: 4,
            arch,
            train: TrainConfig::quick(25),
            seed: 0,
        };
        let pt = PredTop::fit(model, cluster, &profiler, &cfg);
        let predicted = run_search(&SearchRequest::new(model, cluster, opts), &pt, &profiler)
            .expect("the predictor serves every fitted scenario");

        predicted.plan.validate(&model).unwrap();
        // the plan chosen from predictions can degrade but not absurdly
        // (paper: ≤ 2.1% with the full protocol; we allow a loose 2×
        // bound for the micro-sized test configuration)
        assert!(
            predicted.true_latency <= full.true_latency * 2.0,
            "predicted-plan latency {} vs optimum {}",
            predicted.true_latency,
            full.true_latency
        );
        // and the optimum is a lower bound by definition
        assert!(predicted.true_latency >= full.true_latency - 1e-12);
    }
}
