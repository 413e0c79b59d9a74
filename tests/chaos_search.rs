//! Chaos contract of the fault-tolerant search path: injected transient
//! faults and retries are *reliability* knobs — neither may change the
//! plan a search chooses, its reported latencies, or its query
//! accounting. The stacks here mirror the CLI's `--inject-fault-rate` /
//! `--retry` wiring end to end.

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

/// The fault-free reference: the plain search at `threads` workers.
fn clean_search(m: ModelSpec, cluster: MeshShape, threads: usize) -> SearchOutcome {
    let profiler = SimProfiler::new(Platform::platform2(), 6);
    let req = SearchRequest::new(m, cluster, opts()).threads(threads);
    run_search(&req, &profiler, &profiler).expect("simulator search is infallible")
}

fn assert_same_outcome(chaos: &SearchOutcome, clean: &SearchOutcome, label: &str) {
    assert_eq!(chaos.plan, clean.plan, "{label}: plan drifted under faults");
    assert_eq!(
        chaos.estimated_latency.to_bits(),
        clean.estimated_latency.to_bits(),
        "{label}: estimated latency drifted under faults"
    );
    assert_eq!(
        chaos.true_latency.to_bits(),
        clean.true_latency.to_bits(),
        "{label}: true latency drifted under faults"
    );
    assert_eq!(
        chaos.num_queries, clean.num_queries,
        "{label}: query accounting drifted under faults"
    );
}

/// Acceptance criterion of the fault-tolerance PR: a 20% injected-error
/// rate behind `Retry(3)` recovers to the byte-identical outcome of the
/// fault-free search, at 1 and at 4 worker threads, with nonzero
/// injected-fault and retry counters proving the layers actually fired.
#[test]
fn faulty_search_recovers_to_the_fault_free_outcome() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);
    for threads in [1, 4] {
        let clean = clean_search(m, cluster, threads);

        let profiler2 = SimProfiler::new(Platform::platform2(), 6);
        let stack = ServiceBuilder::new(&profiler2)
            .inject_faults(FaultConfig::errors(1, 0.2))
            .retry(RetryPolicy::retries(3))
            .memoize_structural()
            .batched(threads)
            .finish();
        let chaos = search_plan_service(m, cluster, &stack, &profiler2, opts(), None)
            .expect("retries absorb every injected fault");

        assert_same_outcome(&chaos, &clean, &format!("{threads} threads"));
        let report = chaos.service.expect("chaos search reports its layers");
        let fault = report.fault.expect("fault layer installed");
        let retry = report.retry.expect("retry layer installed");
        assert!(fault.injected_errors > 0, "no fault was ever injected");
        assert!(retry.retries > 0, "no retry was ever issued");
        assert_eq!(retry.exhausted, 0, "a query ran out of retries");
        assert_eq!(retry.permanent_failures, 0);
        // every injected error was a retry the layer above absorbed
        assert_eq!(retry.retries, fault.injected_errors);
        assert!(retry.backoff_seconds > 0.0, "backoff was never accounted");
    }
}

/// The CLI builds the full chaos-capable stack unconditionally and
/// relies on neutral defaults (rate 0, 0 retries, no budget) being
/// perfect pass-throughs; this pins that contract.
#[test]
fn neutral_chaos_layers_are_pass_throughs() {
    let m = tiny_model();
    let cluster = MeshShape::new(2, 2);
    let clean = clean_search(m, cluster, 2);

    let profiler2 = SimProfiler::new(Platform::platform2(), 6);
    let stack = ServiceBuilder::new(&profiler2)
        .inject_faults(FaultConfig::errors(0, 0.0))
        .deadline(None)
        .retry(RetryPolicy::retries(0))
        .memoize_structural()
        .batched(2)
        .finish();
    let idle = search_plan_service(m, cluster, &stack, &profiler2, opts(), None)
        .expect("neutral layers never fail");

    assert_same_outcome(&idle, &clean, "neutral stack");
    let report = idle.service.expect("stack reports its layers");
    assert_eq!(report.fault.unwrap().injected_errors, 0);
    assert_eq!(report.retry.unwrap().retries, 0);
    let deadline = report.deadline.unwrap();
    assert_eq!(deadline.query_overruns, 0);
}
