//! Acceptance contract of the structural-memoization search and its
//! one-query-per-task dispatch: on the Fig. 10-style full sweep the
//! structural cache turns well over half of all candidate queries into
//! hits (interior layer windows of equal length are isomorphic, so only
//! `O(L)` structures exist among `O(L²)` windows), and fanning the
//! batch out over the worker pool never changes a single bit — the
//! candidate tables and `SearchOutcome` plans are identical at every
//! thread count.

use predtop::prelude::*;
use predtop::service::ServiceBuilder;

/// Dense 12-layer benchmark model, shrunk so the sweep finishes in
/// seconds: 78 layer windows per (mesh, config), of which only 33 are
/// structurally distinct — a 57.7% structural hit rate.
fn dense_model() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 64;
    m.num_layers = 12;
    m
}

fn opts() -> InterStageOptions {
    InterStageOptions {
        microbatches: 2,
        imbalance_tolerance: None,
    }
}

#[test]
fn fig10_sweep_structural_hit_rate_exceeds_half() {
    let model = dense_model();
    let cluster = MeshShape::new(1, 2);
    let profiler = SimProfiler::new(Platform::platform1(), 7);

    let stack = ServiceBuilder::new(&profiler)
        .memoize_structural()
        .batched(4)
        .finish();
    let out = search_plan_service(model, cluster, &stack, &profiler, opts(), None)
        .expect("simulator stack is infallible");

    let report = out.service.expect("structural stack reports");
    let cache = report.cache.expect("memoize layer installed");
    let interner = report.interner.expect("interner rides along");

    // per-layer observability: the interner accounts every query, the
    // cache misses exactly once per distinct structure
    assert_eq!(interner.lookups, out.num_queries);
    assert_eq!(cache.queries(), out.num_queries);
    assert_eq!(cache.misses, interner.distinct);
    assert_eq!(cache.hits, out.num_queries - interner.distinct);

    // the headline property: most of the sweep is shared structure
    assert!(
        cache.hit_rate() > 0.5,
        "structural hit rate {:.3} (hits {} / misses {}) did not exceed 50%",
        cache.hit_rate(),
        cache.hits,
        cache.misses
    );

    // the underlying simulator did exactly one evaluation per distinct
    // structure during the sweep, plus the final ground-truth
    // re-evaluation of the winning plan's stages
    assert_eq!(
        profiler.queries_issued(),
        interner.distinct + out.plan.stages.len()
    );
}

#[test]
fn structural_search_outcome_is_bit_identical_to_the_unmemoized_search() {
    let model = dense_model();
    let cluster = MeshShape::new(1, 2);

    let profiler = SimProfiler::new(Platform::platform1(), 7);
    let plain_stack = ServiceBuilder::new(&profiler).batched(2).finish();
    let plain = search_plan_service(model, cluster, &plain_stack, &profiler, opts(), None)
        .expect("simulator stack is infallible");

    let profiler2 = SimProfiler::new(Platform::platform1(), 7);
    let structural_stack = ServiceBuilder::new(&profiler2)
        .memoize_structural()
        .batched(2)
        .finish();
    let structural =
        search_plan_service(model, cluster, &structural_stack, &profiler2, opts(), None)
            .expect("simulator stack is infallible");

    assert_eq!(structural.plan, plain.plan);
    assert_eq!(
        structural.estimated_latency.to_bits(),
        plain.estimated_latency.to_bits()
    );
    assert_eq!(
        structural.true_latency.to_bits(),
        plain.true_latency.to_bits()
    );
    assert_eq!(structural.num_queries, plain.num_queries);
    // structural sharing strictly reduces underlying simulator work
    assert!(profiler2.queries_issued() < profiler.queries_issued());
}

#[test]
fn per_query_dispatch_is_bit_identical_at_every_thread_count() {
    let model = dense_model();
    let cluster = MeshShape::new(1, 2);
    let sweep: Vec<LatencyQuery> = predtop::parallel::enumerate_candidates(model, cluster, opts())
        .into_iter()
        .map(|(stage, mesh, config)| LatencyQuery::new(stage, mesh, config))
        .collect();
    assert!(sweep.len() > 64, "sweep must span many pool tasks");

    // serial ground-truth candidate table
    let profiler = SimProfiler::new(Platform::platform1(), 7);
    let reference: Vec<u64> = {
        let stack = ServiceBuilder::new(&profiler).batched(1).finish();
        stack
            .query_batch(&sweep)
            .into_iter()
            .map(|r| r.expect("simulator is infallible").seconds.to_bits())
            .collect()
    };

    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        // the raw candidate table is bit-identical however the batch is
        // spread over the pool
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let stack = ServiceBuilder::new(&profiler)
            .memoize_structural()
            .batched(threads)
            .finish();
        let table: Vec<u64> = stack
            .query_batch(&sweep)
            .into_iter()
            .map(|r| r.expect("simulator is infallible").seconds.to_bits())
            .collect();
        assert_eq!(
            table, reference,
            "candidate table diverged at {threads} threads"
        );
        let batch = stack.handles().batch.as_ref().unwrap().stats();
        let tasks = if threads > 1 { sweep.len() } else { 0 };
        assert_eq!(batch.chunks, tasks, "one pool task per dispatched query");

        // and so is the full search outcome built on top of it, and the
        // profiling bill of the simulator that served and re-evaluated it
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let stack = ServiceBuilder::new(&profiler)
            .memoize_structural()
            .batched(threads)
            .finish();
        let out = search_plan_service(model, cluster, &stack, &profiler, opts(), None)
            .expect("simulator stack is infallible");
        outcomes.push((threads, out, profiler.ledger().totals()));
    }

    let (_, first, first_bill) = &outcomes[0];
    for (threads, out, bill) in &outcomes[1..] {
        assert_eq!(
            bill.stages_profiled, first_bill.stages_profiled,
            "profiled stages diverged at {threads} threads"
        );
        assert_eq!(
            bill.profiling_s.to_bits(),
            first_bill.profiling_s.to_bits(),
            "profiling bill diverged at {threads} threads"
        );
        assert_eq!(out.plan, first.plan, "plan diverged at {threads} threads");
        assert_eq!(
            out.estimated_latency.to_bits(),
            first.estimated_latency.to_bits(),
            "estimated latency diverged at {threads} threads"
        );
        assert_eq!(
            out.true_latency.to_bits(),
            first.true_latency.to_bits(),
            "true latency diverged at {threads} threads"
        );
        // the structural accounting is itself deterministic: same
        // distinct-structure count and hit/miss split every time
        let a = out.service.as_ref().unwrap();
        let b = first.service.as_ref().unwrap();
        assert_eq!(a.interner, b.interner);
        assert_eq!(a.cache, b.cache);
    }
}
