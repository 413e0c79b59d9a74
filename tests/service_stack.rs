//! Acceptance contract of the `LatencyService` middleware: a checked
//! search driven through an explicitly assembled `ServiceBuilder` stack
//! is **bit-identical** to the same search through `run_search`, for
//! both benchmark model families and at multiple worker-pool sizes — and
//! the stack's memoize / fallback layers report honest accounting while
//! staying transparent.

use predtop::prelude::*;

fn gpt3() -> ModelSpec {
    // batch 4 over 2 micro-batches: the static filter has real work to
    // do (dp=4 and mp=4 candidates are illegal) without rejecting all
    let mut m = ModelSpec::gpt3_1p3b(4);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    m
}

fn moe() -> ModelSpec {
    let mut m = ModelSpec::moe_2p6b(4);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    if let Some(moe) = m.moe.as_mut() {
        moe.num_experts = 4;
        moe.expert_hidden = 64;
    }
    m
}

fn opts() -> InterStageOptions {
    InterStageOptions {
        microbatches: 2,
        imbalance_tolerance: None,
    }
}

#[test]
fn service_stack_checked_search_is_bit_identical_to_run_search() {
    let cluster = MeshShape::new(2, 2);
    for (name, model) in [("gpt3", gpt3()), ("moe", moe())] {
        for threads in [1usize, 4] {
            // the convenience entry point
            let profiler = SimProfiler::new(Platform::platform2(), 6);
            let legality = search_legality(model, &profiler, opts());
            let req = SearchRequest::new(model, cluster, opts())
                .threads(threads)
                .legality(&legality);
            let reference = run_search(&req, &profiler, &profiler)
                .expect("the simulator serves every scenario");

            // the same search through a full middleware stack
            let profiler2 = SimProfiler::new(Platform::platform2(), 6);
            let legality = search_legality(model, &profiler2, opts());
            let stack = ServiceBuilder::new(&profiler2)
                .memoize_structural()
                .batched(threads)
                .finish();
            let out =
                search_plan_service(model, cluster, &stack, &profiler2, opts(), Some(&legality))
                    .expect("the simulator stack serves every scenario");

            assert_eq!(out.plan, reference.plan, "{name}@{threads}: plan drifted");
            assert_eq!(
                out.estimated_latency.to_bits(),
                reference.estimated_latency.to_bits(),
                "{name}@{threads}: estimated latency drifted"
            );
            assert_eq!(
                out.true_latency.to_bits(),
                reference.true_latency.to_bits(),
                "{name}@{threads}: true latency drifted"
            );
            assert_eq!(out.num_queries, reference.num_queries);
            assert_eq!(out.num_rejected, reference.num_rejected);

            // memoize accounting: every search query hit the layer, one
            // miss per structural class and a hit for every other query
            let report = out.service.expect("memoized stack reports");
            let cache = report.cache.expect("memoize layer installed");
            let distinct = report.interner.expect("interner rides along").distinct;
            assert_eq!(
                cache.queries(),
                out.num_queries,
                "{name}@{threads}: cache accounting incomplete"
            );
            assert_eq!(cache.misses, distinct);
            assert_eq!(cache.hits, out.num_queries - distinct);
        }
    }
}

#[test]
fn fallback_layer_attributes_sources_and_stays_deterministic() {
    let model = gpt3();
    let cluster = MeshShape::new(1, 2);
    let profiler = SimProfiler::new(Platform::platform1(), 6);

    // the honest path: simulator serves, fallback untouched
    let healthy = ServiceBuilder::new(&profiler)
        .or_fallback_to(&profiler)
        .finish();
    // the degraded path: a dead predictor falls back to the simulator
    let degraded = ServiceBuilder::new(Unavailable::new("predictor", "model file lost"))
        .or_fallback_to(&profiler)
        .batched(4)
        .finish();

    let healthy_out =
        search_plan_service(model, cluster, &healthy, &profiler, opts(), None).unwrap();
    let degraded_out =
        search_plan_service(model, cluster, &degraded, &profiler, opts(), None).unwrap();

    // degradation is invisible in the outcome (same base truth)...
    assert_eq!(healthy_out.plan, degraded_out.plan);
    assert_eq!(
        healthy_out.estimated_latency.to_bits(),
        degraded_out.estimated_latency.to_bits()
    );

    // ...but fully visible in the attribution
    let h = healthy_out.service.expect("fallback stack reports");
    let hstats = h.fallback.expect("fallback layer installed");
    assert_eq!(hstats.primary_served, healthy_out.num_queries);
    assert_eq!(hstats.fallback_served, 0);

    let d = degraded_out.service.expect("fallback stack reports");
    let dstats = d.fallback.expect("fallback layer installed");
    assert_eq!(dstats.primary_served, 0);
    assert_eq!(dstats.fallback_served, degraded_out.num_queries);

    // per-query attribution names the service that actually answered
    let stage = StageSpec::new(model, 0, 2);
    let q = LatencyQuery::new(stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
    assert_eq!(healthy.query(&q).unwrap().source, "simulator");
    assert_eq!(degraded.query(&q).unwrap().source, "simulator");
}

#[test]
fn exhausted_fallback_chain_surfaces_the_error() {
    let model = gpt3();
    let cluster = MeshShape::new(1, 2);
    let profiler = SimProfiler::new(Platform::platform1(), 6);
    let dead = ServiceBuilder::new(Unavailable::new("predictor", "gone"))
        .or_fallback_to(Unavailable::new("analytic", "also gone"))
        .finish();
    let err = search_plan_service(model, cluster, &dead, &profiler, opts(), None)
        .expect_err("a dead chain cannot serve a search");
    assert_eq!(err.source(), "analytic", "the last hop owns the error");
}
