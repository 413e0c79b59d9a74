//! The memoization layer: answer each structural class of queries once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use predtop_parallel::{StructuralInterner, StructuralKey};

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Cache traffic counters of a [`Memoize`] layer, readable at any point
/// in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries forwarded to the inner service (one per structural class
    /// that has been answered).
    pub misses: usize,
}

impl CacheStats {
    /// Total queries observed (`hits + misses`).
    pub fn queries(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of queries answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.queries() == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries() as f64
        }
    }
}

/// One structural class's reply. The cell's lock is the class's
/// single-flight latch: whoever holds it either finds the reply or
/// computes it, and everyone else for the class waits behind it.
type Cell = Arc<Mutex<Option<LatencyReply>>>;

/// Shared cache state, owned jointly by the [`Memoize`] layer and any
/// [`CacheHandle`]s the builder handed out.
#[derive(Debug, Default)]
pub(crate) struct MemoizeState {
    cells: Mutex<HashMap<StructuralKey, Cell>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MemoizeState {
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Shared view of a [`Memoize`] layer's counters, usable after the layer
/// has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct CacheHandle(pub(crate) Arc<MemoizeState>);

impl CacheHandle {
    /// Hit/miss counters accumulated since the layer was built.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

/// Middleware that memoizes successful replies per *structural
/// equivalence class*: each query is interned through a
/// [`StructuralInterner`], so isomorphic sub-problems (e.g. interior
/// layer windows of equal length in a dense model) share one entry, and
/// a query the stack has never seen verbatim still hits when an
/// isomorphic one was answered before. That is only sound when the
/// inner service is a pure function of the stage *structure* — true of
/// every in-tree source (the simulator, the analytic model, and
/// graph-fed predictors all consume the built stage graph, which
/// isomorphic windows share bit-for-bit).
///
/// Transparency contract: wrapping a service never changes the reply a
/// query resolves to (the cached [`LatencyReply`] carries its original
/// source attribution), only how often the inner service is consulted.
/// Errors are never cached — a failing source is re-asked, so a
/// [`crate::Fallback`] below keeps attributing per query.
///
/// One map holds one cell per class; the map lock is held only to fetch
/// or insert a cell, and the cell's own lock is the single-flight
/// latch, so exactly one worker consults the inner service per class
/// while racers for the same class wait and then hit. An error leaves
/// the cell empty, so each waiter re-asks the inner service itself.
///
/// A miss forwards the class's [representative] — the first query the
/// interner saw for it — not the query that happened to take the latch.
/// The search engine warms the interner serially over its work-list, so
/// the inner traffic (what a simulator profiles and bills, what a fault
/// layer rolls for) and every hit/miss counter depend only on the
/// work-list, never on the thread schedule.
///
/// [representative]: StructuralInterner::representative
pub struct Memoize<S> {
    inner: S,
    state: Arc<MemoizeState>,
    interner: Arc<StructuralInterner>,
}

impl<S> Memoize<S> {
    /// Wrap `inner` with an empty cache keyed on structural equivalence
    /// classes from `interner` (see the type-level soundness note).
    pub fn new(inner: S, interner: Arc<StructuralInterner>) -> Memoize<S> {
        Memoize {
            inner,
            state: Arc::new(MemoizeState::default()),
            interner,
        }
    }

    /// A shareable handle onto this layer's counters.
    pub fn handle(&self) -> CacheHandle {
        CacheHandle(self.state.clone())
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.state.stats()
    }
}

impl<S: LatencyService> LatencyService for Memoize<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let key = self.interner.intern(&q.stage, q.mesh, q.config);
        let cell = self.state.cells.lock().entry(key).or_default().clone();
        let mut slot = cell.lock();
        if let Some(r) = *slot {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r);
        }
        let (stage, mesh, config) = self.interner.representative(key);
        let r = self.inner.query(&LatencyQuery::new(stage, mesh, config))?;
        self.state.misses.fetch_add(1, Ordering::Relaxed);
        *slot = Some(r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};

    fn q(start: usize, end: usize) -> LatencyQuery {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 4;
        LatencyQuery::new(
            StageSpec::new(m, start, end),
            MeshShape::new(1, 1),
            ParallelConfig::SERIAL,
        )
    }

    fn memoize<S>(inner: S) -> Memoize<S> {
        Memoize::new(inner, Arc::new(StructuralInterner::new()))
    }

    #[test]
    fn stats_arithmetic_is_exact() {
        let idle = CacheStats::default();
        assert_eq!(idle.queries(), 0);
        assert_eq!(idle.hit_rate(), 0.0);

        let busy = CacheStats { hits: 3, misses: 1 };
        assert_eq!(busy.queries(), 4);
        assert!((busy.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn second_query_hits_without_consulting_inner() {
        let (svc, calls) = counting_service();
        let memo = memoize(svc);
        let a = memo.query(&q(0, 2)).unwrap();
        let b = memo.query(&q(0, 2)).unwrap();
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1 });
        // attribution survives the cache
        assert_eq!(b.source, "counting");
    }

    #[test]
    fn distinct_queries_each_miss_once() {
        let (svc, calls) = counting_service();
        let interner = Arc::new(StructuralInterner::new());
        let memo = Memoize::new(svc, interner.clone());
        let windows: Vec<(usize, usize)> = (0..4)
            .flat_map(|start| (start + 1..=4).map(move |end| (start, end)))
            .collect();
        for &(start, end) in &windows {
            memo.query(&q(start, end)).unwrap();
        }
        // each structural class misses once; its other members hit
        let distinct = interner.len();
        assert!(distinct < windows.len(), "interior windows share classes");
        let first = CacheStats {
            hits: windows.len() - distinct,
            misses: distinct,
        };
        assert_eq!(memo.stats(), first);
        assert_eq!(calls.load(Ordering::Relaxed), distinct);
        // replay: all hits
        for &(start, end) in &windows {
            memo.query(&q(start, end)).unwrap();
        }
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: first.hits + windows.len(),
                misses: distinct
            }
        );
        assert_eq!(calls.load(Ordering::Relaxed), distinct);
    }

    #[test]
    fn structural_mode_hits_on_isomorphic_queries() {
        let (svc, calls) = counting_service();
        let interner = Arc::new(StructuralInterner::new());
        let memo = Memoize::new(svc, interner.clone());
        // two isomorphic interior 1-layer windows: second is a hit even
        // though the raw query was never seen before
        let a = memo.query(&q(1, 2)).unwrap();
        let b = memo.query(&q(2, 3)).unwrap();
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1 });
        // boundary windows are distinct classes and miss
        memo.query(&q(0, 1)).unwrap();
        memo.query(&q(3, 4)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 3 });
        assert_eq!(interner.stats().lookups, 4);
        assert_eq!(interner.len(), 3);
    }

    /// A service that records every query it is asked.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<LatencyQuery>>);

    impl LatencyService for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            self.0.lock().push(*q);
            Ok(LatencyReply {
                seconds: 1.0,
                source: "recorder",
            })
        }
    }

    /// A miss asks the inner service the class's first-interned query,
    /// whichever member of the class reached the cache first — so what
    /// the inner source profiles depends on the (warmed) work-list, not
    /// on which worker won the latch.
    #[test]
    fn a_miss_forwards_the_first_interned_query_of_its_class() {
        let interner = Arc::new(StructuralInterner::new());
        let memo = Memoize::new(Recorder::default(), interner.clone());
        // warm A then B, two structurally equal interior windows
        let (a, b) = (q(1, 2), q(2, 3));
        for x in [a, b] {
            interner.warm(&x.stage, x.mesh, x.config);
        }
        memo.query(&b).unwrap();
        assert_eq!(
            *memo.inner.0.lock(),
            vec![a],
            "the inner service was asked A"
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let memo = memoize(failing_service("flaky"));
        assert!(memo.query(&q(0, 1)).is_err());
        assert!(memo.query(&q(0, 1)).is_err());
        assert_eq!(memo.stats(), CacheStats { hits: 0, misses: 0 });
    }
}
