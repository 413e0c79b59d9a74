//! [`Persist`]: the disk tier of the memoization hierarchy.
//!
//! A [`crate::Memoize`] layer deduplicates queries *within* one run;
//! this layer extends the same idea *across* runs by backing the stack
//! with a content-addressed [`predtop_store::Store`]:
//!
//! * on a query, the layer first consults the store — a **disk hit**
//!   returns the persisted reply without touching the inner service, so
//!   the first run's simulator bill is never paid twice;
//! * on a disk miss, the inner service computes the reply and the layer
//!   **write-behinds** it (an atomic tempfile + rename `put`), warming
//!   the store for the next run;
//! * a damaged object (truncated file, flipped bit — any
//!   [`predtop_store::StoreError`] classified as corruption) or an
//!   undecodable payload is treated as a miss and *repaired in place*
//!   by the recompute-and-rewrite path, counted in
//!   [`PersistStats::corrupt_recovered`].
//!
//! **Keying.** Objects are addressed by the digest of a *namespace*
//! string plus the query's
//! [`StructuralDescriptor::canonical_bytes`] — not by
//! [`predtop_parallel::StructuralKey`] ids, which are dense
//! first-intern-order numbers and differ between runs. The namespace
//! must encode everything the latency value depends on *besides* the
//! descriptor — conventionally `"<source>:<platform>:<seed>"` — so a
//! store directory can be shared across platforms and chaos seeds
//! without cross-contamination.
//!
//! **Placement.** [`crate::ServiceBuilder::persist`] names the layer and
//! `finish` installs it in its fixed slot of the canonical order:
//! outside `Retry`, directly **inside [`crate::Memoize`]** — memory
//! absorbs in-run repeats, disk absorbs across-run repeats, and only
//! first-in-run misses reach the inner source — and **inside
//! [`crate::Batched`]** so the fan-out still parallelizes disk misses.
//!
//! Determinism contract: a disk hit returns bit-identical `seconds` to
//! the run that wrote it (payloads are IEEE-754 bit patterns), so warm
//! and cold searches choose bit-identical plans. Only
//! [`LatencyReply::source`] attribution may differ: replies whose
//! recorded source is not a known static name come back as `"store"`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use predtop_parallel::StructuralDescriptor;
use predtop_store::{ByteReader, ByteWriter, ObjectKind, Store};

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Payload encoding version for latency objects.
const LATENCY_ENCODING_VERSION: u8 = 1;

/// Known reply sources, restored verbatim on decode; anything else
/// comes back attributed to `"store"`.
const KNOWN_SOURCES: [&str; 4] = ["simulator", "analytic", "predictor", "provider"];

/// Counters of one [`Persist`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Queries served from the store without consulting the inner
    /// service.
    pub disk_hits: usize,
    /// Queries that fell through to the inner service.
    pub disk_misses: usize,
    /// Replies written behind to the store.
    pub writes: usize,
    /// Write-behind attempts the store rejected (the reply was still
    /// served; the object is simply not persisted).
    pub write_errors: usize,
    /// Damaged or undecodable objects repaired by recompute-and-rewrite.
    pub corrupt_recovered: usize,
}

impl PersistStats {
    /// Store lookups observed (hits + misses).
    pub fn lookups(&self) -> usize {
        self.disk_hits + self.disk_misses
    }

    /// Fraction of lookups served from disk (0 when idle).
    pub fn disk_served_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.disk_hits as f64 / self.lookups() as f64
        }
    }
}

#[derive(Debug)]
pub(crate) struct PersistState {
    store: Arc<Store>,
    namespace: String,
    disk_hits: AtomicUsize,
    disk_misses: AtomicUsize,
    writes: AtomicUsize,
    write_errors: AtomicUsize,
    corrupt_recovered: AtomicUsize,
}

impl PersistState {
    fn snapshot(&self) -> PersistStats {
        PersistStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            corrupt_recovered: self.corrupt_recovered.load(Ordering::Relaxed),
        }
    }

    /// Store key for one query: length-prefixed namespace, then the
    /// descriptor's canonical bytes.
    fn key_for(&self, q: &LatencyQuery) -> Vec<u8> {
        let desc = StructuralDescriptor::of(&q.stage, q.mesh, q.config);
        let mut w = ByteWriter::new();
        w.str(&self.namespace);
        w.raw(&desc.canonical_bytes());
        w.into_bytes()
    }
}

/// Shared view of a [`Persist`] layer's counters, usable after the
/// layer has been consumed by outer layers of the stack.
#[derive(Debug, Clone)]
pub struct PersistHandle(pub(crate) Arc<PersistState>);

impl PersistHandle {
    /// Counters accumulated since the layer was built.
    pub fn stats(&self) -> PersistStats {
        self.0.snapshot()
    }

    /// The namespace this layer keys under.
    pub fn namespace(&self) -> &str {
        &self.0.namespace
    }
}

/// Middleware that backs the stack with a persistent object store —
/// see the module docs for keying, placement, and the determinism
/// contract.
pub struct Persist<S> {
    inner: S,
    state: Arc<PersistState>,
}

impl<S> Persist<S> {
    /// Wrap `inner`, keying objects under `namespace` in `store`.
    pub fn new(inner: S, store: Arc<Store>, namespace: impl Into<String>) -> Persist<S> {
        Persist {
            inner,
            state: Arc::new(PersistState {
                store,
                namespace: namespace.into(),
                disk_hits: AtomicUsize::new(0),
                disk_misses: AtomicUsize::new(0),
                writes: AtomicUsize::new(0),
                write_errors: AtomicUsize::new(0),
                corrupt_recovered: AtomicUsize::new(0),
            }),
        }
    }

    /// Shared handle to this layer's counters.
    pub fn handle(&self) -> PersistHandle {
        PersistHandle(self.state.clone())
    }
}

/// Canonical latency-object payload: version byte, the reply's exact
/// `f64` bit pattern, and its source attribution string.
fn encode_reply(reply: &LatencyReply) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(LATENCY_ENCODING_VERSION);
    w.f64_bits(reply.seconds);
    w.str(reply.source);
    w.into_bytes()
}

/// Decode a latency payload; `None` on any structural problem (the
/// caller treats it as corruption and rewrites).
fn decode_reply(payload: &[u8]) -> Option<LatencyReply> {
    let mut r = ByteReader::new(payload);
    if r.u8("latency version").ok()? != LATENCY_ENCODING_VERSION {
        return None;
    }
    let seconds = r.f64_bits("latency seconds").ok()?;
    let source = r.str("latency source").ok()?;
    r.finish().ok()?;
    let source = KNOWN_SOURCES
        .iter()
        .copied()
        .find(|k| *k == source)
        .unwrap_or("store");
    Some(LatencyReply { seconds, source })
}

impl<S: LatencyService> LatencyService for Persist<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let key = self.state.key_for(q);
        let mut damaged = false;
        match self.state.store.get(ObjectKind::Latency, &key) {
            Ok(Some(payload)) => match decode_reply(&payload) {
                Some(reply) => {
                    self.state.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(reply);
                }
                None => damaged = true,
            },
            Ok(None) => {}
            Err(e) if e.is_corruption() => damaged = true,
            // The store itself is unreachable (I/O): serve from the
            // inner source and try the write-behind anyway.
            Err(_) => {}
        }
        let reply = self.inner.query(q)?;
        self.state.disk_misses.fetch_add(1, Ordering::Relaxed);
        if damaged {
            self.state.corrupt_recovered.fetch_add(1, Ordering::Relaxed);
        }
        match self
            .state
            .store
            .put(ObjectKind::Latency, &key, &encode_reply(&reply))
        {
            Ok(_) => {
                self.state.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.state.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::counting_service;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig};
    use std::sync::atomic::Ordering as AtomicOrdering;

    fn store_dir(name: &str) -> Arc<Store> {
        let dir = std::env::temp_dir().join(format!(
            "predtop-persist-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(Store::open(dir).unwrap())
    }

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

    #[test]
    fn cold_run_writes_warm_run_serves_from_disk() {
        let store = store_dir("warm");
        let qs = queries(6);

        // Cold: every structural class misses disk and is written.
        let (svc, calls) = counting_service();
        let cold = Persist::new(svc, store.clone(), "test:sim:0");
        let cold_replies: Vec<_> = qs.iter().map(|q| cold.query(q).unwrap()).collect();
        let cold_stats = cold.handle().stats();
        // six 1-layer windows: embedding, 4 isomorphic interior, head —
        // interior windows share one structural key, so 3 distinct
        // objects absorb the other 3 queries as disk hits already.
        assert_eq!(cold_stats.disk_misses, 3);
        assert_eq!(cold_stats.disk_hits, 3);
        assert_eq!(cold_stats.writes, 3);
        assert_eq!(calls.load(AtomicOrdering::Relaxed), 3);

        // Warm: a fresh layer over the same store dir serves everything
        // from disk, bit-identically, without touching the inner source.
        let (svc2, calls2) = counting_service();
        let warm = Persist::new(svc2, store, "test:sim:0");
        let warm_replies: Vec<_> = qs.iter().map(|q| warm.query(q).unwrap()).collect();
        let warm_stats = warm.handle().stats();
        assert_eq!(warm_stats.disk_hits, 6);
        assert_eq!(warm_stats.disk_misses, 0);
        assert_eq!(calls2.load(AtomicOrdering::Relaxed), 0);
        assert!((warm_stats.disk_served_rate() - 1.0).abs() < f64::EPSILON);
        for (c, w) in cold_replies.iter().zip(&warm_replies) {
            assert_eq!(c.seconds.to_bits(), w.seconds.to_bits());
        }
    }

    #[test]
    fn namespaces_do_not_cross_contaminate() {
        let store = store_dir("ns");
        let qs = queries(2);
        let (svc, _) = counting_service();
        let a = Persist::new(svc, store.clone(), "platform-a");
        for q in &qs {
            a.query(q).unwrap();
        }
        // Same store, different namespace: everything misses.
        let (svc2, calls2) = counting_service();
        let b = Persist::new(svc2, store, "platform-b");
        for q in &qs {
            b.query(q).unwrap();
        }
        assert_eq!(b.handle().stats().disk_hits, 0);
        assert!(calls2.load(AtomicOrdering::Relaxed) > 0);
    }

    #[test]
    fn corrupt_object_recovers_by_recompute_and_rewrite() {
        // cut mid-file, or followed by bytes the header does not count
        for trailing in [false, true] {
            let store = store_dir(&format!("corrupt-{trailing}"));
            let qs = queries(1);
            let (svc, _) = counting_service();
            let layer = Persist::new(svc, store.clone(), "ns");
            let original = layer.query(&qs[0]).unwrap();

            // Damage every loose object.
            let objects = store.root().join("objects");
            let mut mangled = 0;
            for fan in std::fs::read_dir(&objects).unwrap() {
                let fan = fan.unwrap().path();
                if !fan.is_dir() {
                    continue;
                }
                for f in std::fs::read_dir(&fan).unwrap() {
                    let p = f.unwrap().path();
                    let bytes = std::fs::read(&p).unwrap();
                    let damaged = if trailing {
                        [&bytes[..], b"trailing"].concat()
                    } else {
                        bytes[..bytes.len() / 2].to_vec()
                    };
                    std::fs::write(&p, damaged).unwrap();
                    mangled += 1;
                }
            }
            assert!(mangled > 0);

            // A fresh layer re-queries: the damage is detected, the value
            // recomputed bit-identically, and the object rewritten.
            let (svc2, _) = counting_service();
            let repaired = Persist::new(svc2, store.clone(), "ns");
            let reply = repaired.query(&qs[0]).unwrap();
            assert_eq!(reply.seconds.to_bits(), original.seconds.to_bits());
            let stats = repaired.handle().stats();
            assert_eq!(stats.corrupt_recovered, 1, "trailing bytes: {trailing}");
            assert_eq!(stats.writes, 1);
            assert!(store.verify().unwrap().is_clean());

            // And the rewrite really stuck: next layer hits disk.
            let (svc3, calls3) = counting_service();
            let warm = Persist::new(svc3, store, "ns");
            warm.query(&qs[0]).unwrap();
            assert_eq!(warm.handle().stats().disk_hits, 1);
            assert_eq!(calls3.load(AtomicOrdering::Relaxed), 0);
        }
    }

    #[test]
    fn unknown_sources_come_back_as_store() {
        let reply = LatencyReply {
            seconds: 1.25,
            source: "counting",
        };
        let decoded = decode_reply(&encode_reply(&reply)).unwrap();
        assert_eq!(decoded.seconds.to_bits(), reply.seconds.to_bits());
        assert_eq!(decoded.source, "store");
        let sim = LatencyReply {
            seconds: 0.5,
            source: "simulator",
        };
        assert_eq!(
            decode_reply(&encode_reply(&sim)).unwrap().source,
            "simulator"
        );
    }

    #[test]
    fn errors_are_not_persisted() {
        let store = store_dir("errors");
        let qs = queries(1);
        let failing = crate::bridge::tests::failing_service("predictor");
        let layer = Persist::new(failing, store, "ns");
        assert!(layer.query(&qs[0]).is_err());
        let stats = layer.handle().stats();
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.disk_misses, 0, "an error is not a served miss");
    }
}
