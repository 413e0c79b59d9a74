//! [`ServiceBuilder`]: choose the middleware layers a stack has, and
//! keep shared handles to each layer's counters.
//!
//! The builder records *which* layers a stack has, never in what order
//! they wrap. [`ServiceBuilder::finish`] is the only place one layer
//! wraps another, and it always uses the canonical order of DESIGN.md
//! §10, innermost first:
//!
//! ```text
//! FaultInject → Deadline → Retry → Persist → Memoize → Batched → Instrumented
//! ```
//!
//! * `Retry` wraps `FaultInject`, so transient failures reach the retry
//!   loop;
//! * `Memoize` wraps `Retry`, so only settled successes are cached and a
//!   hit skips the reliability layers;
//! * `Persist` sits directly under `Memoize`: memory absorbs in-run
//!   repeats, disk absorbs across-run repeats;
//! * `Deadline`, `Persist` and `Memoize` sit inside `Batched`, so the
//!   budget meters each query, disk misses still fan out, and the
//!   workers share one cache;
//! * `Instrumented` is outermost, so its counters see what the caller
//!   sees.
//!
//! A misordered or double-cached stack therefore cannot be written.

use std::sync::Arc;

use crate::batched::{BatchHandle, Batched};
use crate::deadline::{Deadline, DeadlineHandle};
use crate::fallback::Fallback;
use crate::fault::{FaultConfig, FaultHandle, FaultInject};
use crate::instrument::Instrumented;
use crate::memoize::{CacheHandle, Memoize};
use crate::persist::{Persist, PersistHandle};
use crate::retry::{Retry, RetryHandle, RetryPolicy};
use crate::{
    FallbackHandle, LatencyQuery, LatencyReply, LatencyService, MetricsHandle, ServiceError,
};
use predtop_parallel::StructuralInterner;
use predtop_store::Store;

/// Shared handles onto the counters of the layers a [`ServiceBuilder`]
/// installed. Cloneable and independent of the stack's lifetime, so an
/// outcome struct can carry them out of the search that built the stack.
#[derive(Debug, Clone, Default)]
pub struct StackHandles {
    /// Hit/miss counters of the [`Memoize`] layer, if one was installed.
    pub cache: Option<CacheHandle>,
    /// The structural interner behind the [`Memoize`] layer, if one was
    /// installed. The search engine warms it serially over the canonical
    /// work-list, so key numbering and the queries the layer forwards
    /// are thread-count independent.
    pub interner: Option<Arc<StructuralInterner>>,
    /// Dispatch counters of the [`Batched`] layer, if one was installed.
    pub batch: Option<BatchHandle>,
    /// Counters of the [`Instrumented`] layer, if one was installed.
    pub metrics: Option<MetricsHandle>,
    /// Primary/secondary accounting of the [`Fallback`] layer, if one
    /// was installed.
    pub fallback: Option<FallbackHandle>,
    /// Injection counters of the [`FaultInject`] layer, if one was
    /// installed.
    pub fault: Option<FaultHandle>,
    /// Attempt accounting of the [`Retry`] layer, if one was installed.
    pub retry: Option<RetryHandle>,
    /// Overrun counters of the [`Deadline`] layer, if one was installed.
    pub deadline: Option<DeadlineHandle>,
    /// Disk hit/miss/write accounting of the [`crate::Persist`] layer,
    /// if one was installed.
    pub persist: Option<PersistHandle>,
}

/// The layers a [`ServiceBuilder`] installs, one slot each: naming a
/// layer again replaces its settings.
#[derive(Default)]
struct Layers {
    fault: Option<FaultConfig>,
    /// `Some(budget)` installs the layer; an unbounded one is `Some(None)`.
    deadline: Option<Option<f64>>,
    retry: Option<RetryPolicy>,
    persist: Option<(Arc<Store>, String)>,
    memoize: bool,
    batched: Option<usize>,
    instrumented: bool,
}

/// Builder for a latency-service middleware stack.
///
/// Each combinator names one layer and returns the builder, in any
/// order; [`finish`](Self::finish) wraps the named layers around the
/// base source in the canonical order of the [module docs](self). The
/// search stack
///
/// ```text
/// ServiceBuilder::new(&profiler)
///     .memoize_structural() // answer each structural class once
///     .batched(threads)     // fan batches across the worker pool
///     .instrumented()       // count what the caller sees
///     .finish()
/// ```
///
/// is `Instrumented(Batched(Memoize(profiler)))` whichever way round
/// the three calls come. Keeping [`Instrumented`] outside [`Batched`] is
/// what makes its latency accounting deterministic — it sums the
/// already-ordered batch replies instead of racing per-query.
pub struct ServiceBuilder<S> {
    base: S,
    fallback: Option<FallbackHandle>,
    layers: Layers,
}

impl<S: LatencyService> ServiceBuilder<S> {
    /// Start a stack from a base service.
    pub fn new(base: S) -> ServiceBuilder<S> {
        ServiceBuilder {
            base,
            fallback: None,
            layers: Layers::default(),
        }
    }

    /// Pair the base source with `secondary`, which answers every query
    /// the base fails. The pair is the new base, under every layer.
    pub fn or_fallback_to<T: LatencyService>(self, secondary: T) -> ServiceBuilder<Fallback<S, T>> {
        let base = Fallback::new(self.base, secondary);
        ServiceBuilder {
            fallback: Some(base.handle()),
            base,
            layers: self.layers,
        }
    }

    /// Memoize successful replies per *structural equivalence class*: a
    /// fresh [`StructuralInterner`] hash-conses each query's
    /// (stage, sub-mesh, configuration) structure, so isomorphic
    /// sub-problems — e.g. interior layer windows of equal length —
    /// share one cache entry and all but the first *hit*. Only sound
    /// over structure-pure sources (every in-tree provider; see
    /// [`Memoize`]). The interner rides along in
    /// [`StackHandles::interner`].
    pub fn memoize_structural(mut self) -> Self {
        self.layers.memoize = true;
        self
    }

    /// Back the stack with a persistent object store: replies are
    /// served from `store` when present (keyed by structural descriptor
    /// under `namespace`) and write-behind into it when not. The disk
    /// tier sits directly under the memoize layer and inside the
    /// batched one.
    pub fn persist(mut self, store: Arc<Store>, namespace: impl Into<String>) -> Self {
        self.layers.persist = Some((store, namespace.into()));
        self
    }

    /// Fan query batches across `threads` deterministic workers, one
    /// query per pool task.
    pub fn batched(mut self, threads: usize) -> Self {
        self.layers.batched = Some(threads);
        self
    }

    /// Inject deterministic hash-seeded transient errors directly over
    /// the base source, so every resilience layer gets exercised.
    pub fn inject_faults(mut self, config: FaultConfig) -> Self {
        self.layers.fault = Some(config);
        self
    }

    /// Enforce a per-query wall-clock budget in seconds (`None` installs
    /// the layer unbounded), converting overruns into
    /// [`ServiceError::DeadlineExceeded`].
    pub fn deadline(mut self, budget_seconds: Option<f64>) -> Self {
        self.layers.deadline = Some(budget_seconds);
        self
    }

    /// Re-attempt transient failures, with deterministic accounted
    /// exponential backoff.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.layers.retry = Some(policy);
        self
    }

    /// Count queries, batches, errors, and served seconds as the caller
    /// sees them.
    pub fn instrumented(mut self) -> Self {
        self.layers.instrumented = true;
        self
    }

    /// Wrap the named layers around the base source in the canonical
    /// order, innermost first, collecting each layer's handle.
    pub fn finish<'a>(self) -> ServiceStack<'a>
    where
        S: 'a,
    {
        let Layers {
            fault,
            deadline,
            retry,
            persist,
            memoize,
            batched,
            instrumented,
        } = self.layers;
        let mut handles = StackHandles {
            fallback: self.fallback,
            ..StackHandles::default()
        };
        let mut svc: Box<dyn LatencyService + 'a> = Box::new(self.base);
        if let Some(config) = fault {
            let layer = FaultInject::new(svc, config);
            handles.fault = Some(layer.handle());
            svc = Box::new(layer);
        }
        if let Some(budget_seconds) = deadline {
            let layer = Deadline::new(svc, budget_seconds);
            handles.deadline = Some(layer.handle());
            svc = Box::new(layer);
        }
        if let Some(policy) = retry {
            let layer = Retry::new(svc, policy);
            handles.retry = Some(layer.handle());
            svc = Box::new(layer);
        }
        if let Some((store, namespace)) = persist {
            let layer = Persist::new(svc, store, namespace);
            handles.persist = Some(layer.handle());
            svc = Box::new(layer);
        }
        if memoize {
            let interner = Arc::new(StructuralInterner::new());
            handles.interner = Some(Arc::clone(&interner));
            let layer = Memoize::new(svc, interner);
            handles.cache = Some(layer.handle());
            svc = Box::new(layer);
        }
        if let Some(threads) = batched {
            let layer = Batched::new(svc, threads);
            handles.batch = Some(layer.handle());
            svc = Box::new(layer);
        }
        if instrumented {
            let layer = Instrumented::new(svc);
            handles.metrics = Some(layer.handle());
            svc = Box::new(layer);
        }
        ServiceStack { svc, handles }
    }
}

/// A sealed middleware stack: the composed service plus
/// [`StackHandles`] to every installed layer's counters.
pub struct ServiceStack<'a> {
    svc: Box<dyn LatencyService + 'a>,
    handles: StackHandles,
}

impl ServiceStack<'_> {
    /// Handles to the installed layers' counters.
    pub fn handles(&self) -> &StackHandles {
        &self.handles
    }
}

impl LatencyService for ServiceStack<'_> {
    fn name(&self) -> &'static str {
        self.svc.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        self.svc.query(q)
    }

    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        self.svc.query_batch(qs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service, SyntheticProvider};
    use crate::CacheStats;
    use crate::ProviderService;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn queries(n: usize) -> Vec<LatencyQuery> {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = n;
        (0..n)
            .map(|i| {
                LatencyQuery::new(
                    StageSpec::new(m, i, i + 1),
                    MeshShape::new(1, 1),
                    ParallelConfig::SERIAL,
                )
            })
            .collect()
    }

    /// Every layer window of an `n`-layer model: enough structural
    /// classes that a fault layer under the cache sees real traffic.
    fn all_windows(n: usize) -> Vec<LatencyQuery> {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = n;
        (0..n)
            .flat_map(|start| (start + 1..=n).map(move |end| (start, end)))
            .map(|(start, end)| {
                LatencyQuery::new(
                    StageSpec::new(m, start, end),
                    MeshShape::new(1, 1),
                    ParallelConfig::SERIAL,
                )
            })
            .collect()
    }

    fn synthetic() -> ProviderService<SyntheticProvider> {
        ProviderService::new(SyntheticProvider, "simulator")
    }

    #[test]
    fn full_stack_is_transparent_and_all_handles_report() {
        let qs = queries(6);
        // ground truth straight from the provider
        let base = ServiceBuilder::new(synthetic()).finish();
        let expected: Vec<f64> = qs.iter().map(|q| base.query(q).unwrap().seconds).collect();

        let stack = ServiceBuilder::new(failing_service("predictor"))
            .or_fallback_to(synthetic())
            .memoize_structural()
            .batched(4)
            .instrumented()
            .finish();

        // two identical batches: second is all cache hits
        for _ in 0..2 {
            let replies = stack.query_batch(&qs);
            for (i, r) in replies.iter().enumerate() {
                let r = r.as_ref().unwrap();
                assert_eq!(r.seconds.to_bits(), expected[i].to_bits());
                assert_eq!(r.source, "simulator", "fallback attribution survives");
            }
        }

        // one miss per structural class (embedding, interior and head
        // windows), every other query of the two batches a hit
        let h = stack.handles();
        let distinct = h.interner.as_ref().unwrap().len();
        assert_eq!(distinct, 3);
        assert_eq!(
            h.cache.as_ref().unwrap().stats(),
            CacheStats {
                hits: 2 * qs.len() - distinct,
                misses: distinct
            }
        );
        // the fallback only saw the misses
        let fb = h.fallback.as_ref().unwrap().stats();
        assert_eq!(fb.primary_served, 0);
        assert_eq!(fb.fallback_served, distinct);
        // the instrument layer saw all twelve
        let m = h.metrics.as_ref().unwrap().metrics();
        assert_eq!(m.queries, 12);
        assert_eq!(m.batches, 2);
        assert_eq!(m.errors, 0);
        let expected_sum: f64 = expected.iter().sum::<f64>() * 2.0;
        assert!((m.served_seconds - expected_sum).abs() < 1e-12);
    }

    #[test]
    fn handles_default_to_none_when_layers_absent() {
        let (svc, _) = counting_service();
        let stack = ServiceBuilder::new(svc).batched(2).finish();
        assert!(stack.handles().cache.is_none());
        assert!(stack.handles().interner.is_none());
        assert!(stack.handles().metrics.is_none());
        assert!(stack.handles().fallback.is_none());
        assert!(stack.handles().fault.is_none());
        assert!(stack.handles().retry.is_none());
        assert!(stack.handles().deadline.is_none());
        assert!(stack.handles().persist.is_none());
        // batched itself was installed, so its handle is present
        assert!(stack.handles().batch.is_some());
    }

    #[test]
    fn structural_memoize_stack_hits_across_isomorphic_queries() {
        // six 1-layer stages: the four interior ones are isomorphic
        let qs = queries(6);
        let (svc, calls) = counting_service();
        let stack = ServiceBuilder::new(svc)
            .memoize_structural()
            .batched(2)
            .finish();
        let replies = stack.query_batch(&qs);
        assert!(replies.iter().all(|r| r.is_ok()));
        // classes: embedding-window, interior-window, head-window
        let h = stack.handles();
        let interner = h.interner.as_ref().unwrap();
        assert_eq!(interner.len(), 3);
        assert_eq!(
            h.cache.as_ref().unwrap().stats(),
            CacheStats { hits: 3, misses: 3 }
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(h.batch.is_some());
    }

    /// The persisted stack over a fresh counting source, its combinators
    /// called in canonical or in reverse order; plus the source's call
    /// counter.
    fn persisted_stack(
        store: Arc<Store>,
        reversed: bool,
    ) -> (ServiceStack<'static>, Arc<AtomicUsize>) {
        let (svc, calls) = counting_service();
        let builder = ServiceBuilder::new(svc);
        let builder = if reversed {
            builder
                .instrumented()
                .batched(2)
                .memoize_structural()
                .persist(store, "test:ns")
        } else {
            builder
                .persist(store, "test:ns")
                .memoize_structural()
                .batched(2)
                .instrumented()
        };
        (builder.finish(), calls)
    }

    /// A cold then a warm [`persisted_stack`] over one fresh store:
    /// memory absorbs in-run repeats, disk absorbs the second run.
    fn check_persisted_accounting(reversed: bool) {
        let dir = std::env::temp_dir().join(format!(
            "predtop-builder-persist-{reversed}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let qs = queries(6);

        let (cold, cold_calls) = persisted_stack(store.clone(), reversed);
        let cold_replies = cold.query_batch(&qs);
        assert!(cold_replies.iter().all(|r| r.is_ok()));
        // 3 structural classes: memoize absorbs repeats in-run, persist
        // sees only the 3 first-in-run misses and writes them.
        let p = cold.handles().persist.as_ref().unwrap().stats();
        assert_eq!(p.disk_misses, 3);
        assert_eq!(p.writes, 3);
        assert_eq!(cold_calls.load(Ordering::Relaxed), 3);

        // Warm stack over the same dir: the inner source is never
        // consulted and the replies are bit-identical.
        let (warm, warm_calls) = persisted_stack(store, reversed);
        let warm_replies = warm.query_batch(&qs);
        for (c, w) in cold_replies.iter().zip(&warm_replies) {
            assert_eq!(
                c.as_ref().unwrap().seconds.to_bits(),
                w.as_ref().unwrap().seconds.to_bits()
            );
        }
        let p = warm.handles().persist.as_ref().unwrap().stats();
        assert_eq!(p.disk_hits, 3);
        assert_eq!(p.disk_misses, 0);
        assert_eq!(warm_calls.load(Ordering::Relaxed), 0);
        assert!(p.disk_served_rate() > 0.99);
    }

    #[test]
    fn persisted_stack_spec_and_combined_hit_accounting() {
        check_persisted_accounting(false);
    }

    #[test]
    fn reversed_calls_build_the_same_persisted_stack() {
        check_persisted_accounting(true);
    }

    /// The chaos stack, its combinators called in canonical order or in
    /// reverse order with `.memoize_structural()` named twice.
    fn chaos_stack(reversed: bool) -> ServiceStack<'static> {
        let builder = ServiceBuilder::new(synthetic());
        let builder = if reversed {
            builder
                .memoize_structural()
                .instrumented()
                .batched(4)
                .memoize_structural()
                .retry(RetryPolicy::retries(16))
                .deadline(None)
                .inject_faults(FaultConfig::errors(11, 0.3))
        } else {
            builder
                .inject_faults(FaultConfig::errors(11, 0.3))
                .deadline(None)
                .retry(RetryPolicy::retries(16))
                .memoize_structural()
                .batched(4)
                .instrumented()
        };
        builder.finish()
    }

    #[test]
    fn chaos_stack_serves_clean_values_and_every_handle_reports() {
        let qs = all_windows(8);
        let base = ServiceBuilder::new(synthetic()).finish();
        let expected: Vec<f64> = qs.iter().map(|q| base.query(q).unwrap().seconds).collect();

        let stack = chaos_stack(false);
        let replies = stack.query_batch(&qs);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().seconds.to_bits(), expected[i].to_bits());
        }

        let h = stack.handles();
        let fault = h.fault.as_ref().unwrap().stats();
        assert!(fault.injected_errors > 0, "a 30% rate injects something");
        let retry = h.retry.as_ref().unwrap().stats();
        assert_eq!(retry.retries, fault.injected_errors);
        assert_eq!(retry.exhausted, 0);
        assert!(retry.backoff_seconds > 0.0);
        assert_eq!(h.deadline.as_ref().unwrap().stats().query_overruns, 0);
        assert_eq!(h.metrics.as_ref().unwrap().metrics().errors, 0);
    }

    #[test]
    fn reversed_and_repeated_calls_build_the_same_chaos_stack() {
        // both batches fan out over 4 workers; every counter, the retry
        // layer's accounted backoff included, is independent of the
        // order the workers finish in, so the ledgers compare exactly
        let qs = all_windows(8);
        let canonical = chaos_stack(false);
        let reversed = chaos_stack(true);
        let want = canonical.query_batch(&qs);
        let got = reversed.query_batch(&qs);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(
                w.as_ref().unwrap().seconds.to_bits(),
                g.as_ref().unwrap().seconds.to_bits()
            );
        }

        let (c, r) = (canonical.handles(), reversed.handles());
        let fault = r.fault.as_ref().unwrap().stats();
        let retry = r.retry.as_ref().unwrap().stats();
        let cache = r.cache.as_ref().unwrap().stats();
        let distinct = r.interner.as_ref().unwrap().len();
        let batch = r.batch.as_ref().unwrap().stats();
        let metrics = r.metrics.as_ref().unwrap().metrics();
        assert_eq!(fault, c.fault.as_ref().unwrap().stats());
        assert_eq!(retry, c.retry.as_ref().unwrap().stats());
        assert_eq!(
            r.deadline.as_ref().unwrap().stats(),
            c.deadline.as_ref().unwrap().stats()
        );
        assert_eq!(cache, c.cache.as_ref().unwrap().stats());
        assert_eq!(batch, c.batch.as_ref().unwrap().stats());
        assert_eq!(metrics, c.metrics.as_ref().unwrap().metrics());

        // the canonical order's own accounting: retries match injected
        // errors only if Retry wraps FaultInject; the one cache counts
        // each query once and misses once per structural class (misses
        // count successes, so this holds on either side of Retry);
        // Batched sees the caller's batch only if Memoize, whose batch
        // path is serial, sits inside it; and Instrumented counts the
        // caller's traffic only when outermost
        assert!(fault.injected_errors > 0);
        assert_eq!(
            retry.retries, fault.injected_errors,
            "Retry wraps FaultInject"
        );
        assert_eq!(
            cache,
            CacheStats {
                hits: qs.len() - distinct,
                misses: distinct
            },
            "one Memoize"
        );
        assert_eq!(batch.batches, 1, "Memoize sits inside Batched");
        assert_eq!(
            (metrics.queries, metrics.batches),
            (qs.len(), 1),
            "Instrumented is outermost"
        );
    }
}
