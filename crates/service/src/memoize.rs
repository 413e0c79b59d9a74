//! The memoization layer: answer repeated queries from a sharded cache.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use predtop_parallel::{CacheStats, StructuralInterner, StructuralKey};

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Number of independent map shards. A power of two so shard selection
/// is a mask; 16 comfortably exceeds any realistic `PREDTOP_THREADS`.
const SHARDS: usize = 16;

/// What a [`Memoize`] layer's cache is keyed on.
///
/// `Raw` is the historical behaviour: every distinct
/// (stage, mesh, config) query is its own entry. `Structural` routes the
/// query through a [`StructuralInterner`] first, so isomorphic
/// sub-problems (e.g. interior layer windows of equal length in a dense
/// model) collapse onto one entry — a query the stack has never seen
/// verbatim can still *hit* if an isomorphic one was answered before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    /// Raw query identity.
    Raw(LatencyQuery),
    /// Structural equivalence class from the layer's interner.
    Structural(StructuralKey),
}

/// Shared cache state, owned jointly by the [`Memoize`] layer and any
/// [`CacheHandle`]s the builder handed out.
#[derive(Debug)]
pub(crate) struct MemoizeState {
    shards: Vec<Mutex<HashMap<MemoKey, LatencyReply>>>,
    /// Single-flight latches: one lock per in-progress key, so
    /// concurrent workers racing on the same brand-new key block behind
    /// the first instead of consulting the inner service redundantly.
    inflight: Mutex<HashMap<MemoKey, Arc<Mutex<()>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MemoizeState {
    fn new() -> MemoizeState {
        MemoizeState {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn shard_of(k: &MemoKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        k.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
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

    /// Number of distinct queries currently cached.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }
}

/// Middleware that memoizes successful replies per [`LatencyQuery`] in a
/// sharded `parking_lot`-protected map — the service-stack
/// generalization of the old `parallel::cache::CachedProvider`.
///
/// Transparency contract: wrapping a service never changes the reply a
/// query resolves to (the cached [`LatencyReply`] carries its original
/// source attribution), only how often the inner service is consulted.
/// Errors are never cached — a failing source is re-asked, so a
/// [`crate::Fallback`] below keeps attributing per query.
///
/// Concurrency note: the inner service is consulted *outside* the shard
/// lock, behind a per-key single-flight latch — when several workers
/// race on the same brand-new key (which structural mode makes routine:
/// distinct raw queries in one batch can share a key), exactly one
/// consults the inner service and the rest block briefly and then hit.
/// So for successful queries the inner-consultation count — and with it
/// every hit/miss counter — is a pure function of the query multiset,
/// deterministic at any thread count. Errors release the latch without
/// caching, so each blocked waiter retries the inner service itself.
///
/// In *structural* mode ([`Memoize::structural`]) the cache keys on the
/// interned [`StructuralKey`] of each query instead of the query itself,
/// so isomorphic sub-problems share one entry. That is only sound when
/// the inner service is a pure function of the stage *structure* — true
/// of every in-tree provider (the simulator, the analytic model, and
/// graph-fed predictors all consume the built stage graph, which
/// isomorphic windows share bit-for-bit).
pub struct Memoize<S> {
    inner: S,
    state: Arc<MemoizeState>,
    interner: Option<Arc<StructuralInterner>>,
}

impl<S> Memoize<S> {
    /// Wrap `inner` with an empty cache keyed on raw query identity.
    pub fn new(inner: S) -> Memoize<S> {
        Memoize {
            inner,
            state: Arc::new(MemoizeState::new()),
            interner: None,
        }
    }

    /// Wrap `inner` with an empty cache keyed on structural equivalence
    /// classes from `interner` (see the type-level soundness note).
    pub fn structural(inner: S, interner: Arc<StructuralInterner>) -> Memoize<S> {
        Memoize {
            inner,
            state: Arc::new(MemoizeState::new()),
            interner: Some(interner),
        }
    }

    /// The structural interner, when this layer keys structurally.
    pub fn interner(&self) -> Option<&Arc<StructuralInterner>> {
        self.interner.as_ref()
    }

    fn key_of(&self, q: &LatencyQuery) -> MemoKey {
        match &self.interner {
            Some(i) => MemoKey::Structural(i.intern(&q.stage, q.mesh, q.config)),
            None => MemoKey::Raw(*q),
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
        let key = self.key_of(q);
        let shard = &self.state.shards[MemoizeState::shard_of(&key)];
        if let Some(&r) = shard.lock().get(&key) {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r);
        }
        // single-flight: one latch per key, so only one worker computes
        // a brand-new key while racers block behind it (and then hit on
        // the re-check) instead of duplicating inner work
        let latch = self
            .state
            .inflight
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone();
        let _guard = latch.lock();
        if let Some(&r) = shard.lock().get(&key) {
            self.state.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r);
        }
        // consult the inner service outside the shard lock: a slow inner
        // query (the simulator compiles the whole stage) must not stall
        // every other worker hashing into this shard
        let r = self.inner.query(q)?;
        self.state.misses.fetch_add(1, Ordering::Relaxed);
        shard.lock().insert(key, r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service};
    use crate::query::LatencyQuery;
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

    #[test]
    fn second_query_hits_without_consulting_inner() {
        let (svc, calls) = counting_service();
        let memo = Memoize::new(svc);
        let a = memo.query(&q(0, 2)).unwrap();
        let b = memo.query(&q(0, 2)).unwrap();
        assert_eq!(a, b);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(memo.handle().len(), 1);
        // attribution survives the cache
        assert_eq!(b.source, "counting");
    }

    #[test]
    fn distinct_queries_each_miss_once() {
        let (svc, calls) = counting_service();
        let memo = Memoize::new(svc);
        for start in 0..4 {
            for end in start + 1..=4 {
                memo.query(&q(start, end)).unwrap();
            }
        }
        let distinct = 4 * 5 / 2;
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 0,
                misses: distinct
            }
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), distinct);
        // replay: all hits
        for start in 0..4 {
            for end in start + 1..=4 {
                memo.query(&q(start, end)).unwrap();
            }
        }
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: distinct,
                misses: distinct
            }
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), distinct);
    }

    #[test]
    fn structural_mode_hits_on_isomorphic_queries() {
        let (svc, calls) = counting_service();
        let interner = Arc::new(StructuralInterner::new());
        let memo = Memoize::structural(svc, interner.clone());
        // two isomorphic interior 1-layer windows: second is a hit even
        // though the raw query was never seen before
        let a = memo.query(&q(1, 2)).unwrap();
        let b = memo.query(&q(2, 3)).unwrap();
        assert_eq!(a, b);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1 });
        // boundary windows are distinct classes and miss
        memo.query(&q(0, 1)).unwrap();
        memo.query(&q(3, 4)).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 3 });
        assert_eq!(memo.handle().len(), 3);
        assert_eq!(interner.stats().lookups, 4);
        assert_eq!(interner.len(), 3);
        assert!(memo.interner().is_some());
        assert!(Memoize::new(counting_service().0).interner().is_none());
    }

    #[test]
    fn errors_are_not_cached() {
        let memo = Memoize::new(failing_service("flaky"));
        assert!(memo.query(&q(0, 1)).is_err());
        assert!(memo.query(&q(0, 1)).is_err());
        assert_eq!(memo.stats(), CacheStats { hits: 0, misses: 0 });
        assert!(memo.handle().is_empty());
    }
}
