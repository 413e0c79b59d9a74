//! Contract of the parallel, memoized plan-search engine: the worker
//! pool size and the memoization layer are *performance* knobs — neither
//! may change the plan a search chooses, its reported latencies, or its
//! query accounting.
//!
//! Plain searches go through `run_search`; memoized stacks are assembled
//! through `ServiceBuilder` and run by `search_plan_service`.

use predtop::prelude::*;

fn tiny_model() -> ModelSpec {
    let mut m = ModelSpec::gpt3_1p3b(2);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    m
}

fn opts() -> InterStageOptions {
    InterStageOptions {
        microbatches: 4,
        imbalance_tolerance: None,
    }
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);
    let run = |threads: usize| {
        let profiler = SimProfiler::new(Platform::platform2(), 6);
        let req = SearchRequest::new(m, cluster, opts()).threads(threads);
        run_search(&req, &profiler, &profiler).expect("simulator search is infallible")
    };
    let base = run(1);
    for threads in [2, 8] {
        let out = run(threads);
        assert_eq!(
            out.estimated_latency.to_bits(),
            base.estimated_latency.to_bits(),
            "estimated latency drifted at {threads} threads"
        );
        assert_eq!(
            out.true_latency.to_bits(),
            base.true_latency.to_bits(),
            "true latency drifted at {threads} threads"
        );
        assert_eq!(out.num_queries, base.num_queries);
        assert_eq!(out.plan, base.plan, "plan drifted at {threads} threads");
    }
}

#[test]
fn memoized_search_never_changes_the_plan() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);
    for threads in [1, 4] {
        let profiler = SimProfiler::new(Platform::platform2(), 6);
        let req = SearchRequest::new(m, cluster, opts()).threads(threads);
        let plain = run_search(&req, &profiler, &profiler).expect("simulator search is infallible");
        let profiler2 = SimProfiler::new(Platform::platform2(), 6);
        let stack = ServiceBuilder::new(&profiler2)
            .memoize_structural()
            .batched(threads)
            .finish();
        let cached = search_plan_service(m, cluster, &stack, &profiler2, opts(), None)
            .expect("simulator stack is infallible");
        assert_eq!(cached.plan, plain.plan);
        assert_eq!(
            cached.estimated_latency.to_bits(),
            plain.estimated_latency.to_bits()
        );
        assert_eq!(cached.true_latency.to_bits(), plain.true_latency.to_bits());
        assert_eq!(cached.num_queries, plain.num_queries);
        let stats = cached
            .service
            .and_then(|r| r.cache)
            .expect("memoized search reports stats");
        assert_eq!(stats.queries(), cached.num_queries);
    }
}

#[test]
fn memoized_search_never_issues_more_underlying_queries() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);

    let profiler = SimProfiler::new(Platform::platform2(), 6);
    run_search(
        &SearchRequest::new(m, cluster, opts()),
        &profiler,
        &profiler,
    )
    .expect("simulator search is infallible");
    let uncached_queries = profiler.queries_issued();

    let profiler2 = SimProfiler::new(Platform::platform2(), 6);
    let stack = ServiceBuilder::new(&profiler2)
        .memoize_structural()
        .batched(configured_threads())
        .finish();
    let cached = search_plan_service(m, cluster, &stack, &profiler2, opts(), None)
        .expect("simulator stack is infallible");
    assert!(
        profiler2.queries_issued() <= uncached_queries,
        "memoization increased the underlying query load: {} > {}",
        profiler2.queries_issued(),
        uncached_queries
    );
    // the cache's miss count is exactly the traffic that reached the
    // profiler during the search phase
    let stats = cached.service.and_then(|r| r.cache).unwrap();
    assert!(stats.misses <= cached.num_queries);
}

#[test]
fn reusing_one_memoized_stack_across_searches_absorbs_repeat_traffic() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);
    let profiler = SimProfiler::new(Platform::platform2(), 6);

    // a campaign: the same full search twice through one shared stack
    // (the blanket &S service impl makes the layers non-consuming)
    let stack = ServiceBuilder::new(&profiler)
        .memoize_structural()
        .batched(configured_threads())
        .finish();
    let first = search_plan_service(m, cluster, &stack, &profiler, opts(), None)
        .expect("simulator stack is infallible");
    let after_first = stack.handles().cache.as_ref().unwrap().stats();
    let second = search_plan_service(m, cluster, &stack, &profiler, opts(), None)
        .expect("simulator stack is infallible");
    let after_second = stack.handles().cache.as_ref().unwrap().stats();

    assert_eq!(first.plan, second.plan);
    // the second search's queries were all answered from the cache
    assert_eq!(after_second.misses, after_first.misses);
    assert_eq!(
        after_second.hits - after_first.hits,
        second.num_queries,
        "second search should be a pure cache replay"
    );
}
