//! Integration tests for the object database: round trips, corruption
//! surfacing, gc generations, and concurrent writers.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use predtop_store::{ObjectKind, Store, StoreError};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "predtop-store-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The single loose object file under `objects/` (panics unless exactly
/// one exists).
fn sole_loose_object(store: &Store) -> PathBuf {
    let mut found = Vec::new();
    for fan in fs::read_dir(store.root().join("objects")).unwrap() {
        let fan = fan.unwrap().path();
        if fan.is_dir() {
            for f in fs::read_dir(&fan).unwrap() {
                found.push(f.unwrap().path());
            }
        }
    }
    assert_eq!(found.len(), 1, "expected exactly one loose object");
    found.pop().unwrap()
}

#[test]
fn put_get_round_trip_and_overwrite() {
    let store = Store::open(fresh_dir("roundtrip")).unwrap();
    assert_eq!(store.get(ObjectKind::Latency, b"k").unwrap(), None);
    store.put(ObjectKind::Latency, b"k", b"v1").unwrap();
    assert_eq!(
        store.get(ObjectKind::Latency, b"k").unwrap().as_deref(),
        Some(&b"v1"[..])
    );
    // Same key, different kind: distinct object.
    assert_eq!(store.get(ObjectKind::Plan, b"k").unwrap(), None);
    store.put(ObjectKind::Plan, b"k", b"plan").unwrap();
    assert_eq!(
        store.get(ObjectKind::Plan, b"k").unwrap().as_deref(),
        Some(&b"plan"[..])
    );
    // Overwrite is atomic and last-write-wins.
    store.put(ObjectKind::Latency, b"k", b"v2").unwrap();
    assert_eq!(
        store.get(ObjectKind::Latency, b"k").unwrap().as_deref(),
        Some(&b"v2"[..])
    );
    let stats = store.stats().unwrap();
    assert_eq!(stats.loose_objects, 2);
    assert_eq!(stats.packed_objects, 0);
    assert!(store.verify().unwrap().is_clean());
}

#[test]
fn truncated_object_is_a_short_read() {
    // cut in half, or followed by bytes the header does not count
    for trailing in [false, true] {
        let store = Store::open(fresh_dir(&format!("truncate-{trailing}"))).unwrap();
        store
            .put(ObjectKind::Outcome, b"key", &vec![7u8; 256])
            .unwrap();
        let path = sole_loose_object(&store);
        let bytes = fs::read(&path).unwrap();
        let damaged = if trailing {
            [&bytes[..], b"trailing"].concat()
        } else {
            bytes[..bytes.len() / 2].to_vec()
        };
        fs::write(&path, damaged).unwrap();
        match store.get(ObjectKind::Outcome, b"key") {
            Err(e @ StoreError::ShortRead { .. }) => assert!(e.is_corruption()),
            other => panic!("trailing bytes {trailing}: expected ShortRead, got {other:?}"),
        }
        // verify reports it instead of failing.
        let report = store.verify().unwrap();
        assert_eq!(report.corrupt.len(), 1);
        // Recompute-and-rewrite repairs it.
        store
            .put(ObjectKind::Outcome, b"key", &vec![7u8; 256])
            .unwrap();
        assert!(store.verify().unwrap().is_clean());
    }
}

#[test]
fn objects_around_the_read_buffer_round_trip() {
    // a loose read takes 4096 bytes at first; the header is 48, so these
    // files end one byte short of it, on it, one past it, and pages on
    let store = Store::open(fresh_dir("buffer")).unwrap();
    for len in [4047, 4048, 4049, 3 * 4096 + 5] {
        let key = format!("model-{len}");
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        store
            .put(ObjectKind::Model, key.as_bytes(), &payload)
            .unwrap();
        assert_eq!(
            store.get(ObjectKind::Model, key.as_bytes()).unwrap(),
            Some(payload),
            "{len}-byte payload"
        );
    }
    assert!(store.verify().unwrap().is_clean());
}

#[test]
fn bit_flip_is_a_hash_mismatch() {
    let store = Store::open(fresh_dir("bitflip")).unwrap();
    store
        .put(ObjectKind::Model, b"weights", b"abcdefgh")
        .unwrap();
    let path = sole_loose_object(&store);
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40; // flip a payload bit
    fs::write(&path, &bytes).unwrap();
    match store.get(ObjectKind::Model, b"weights") {
        Err(e @ StoreError::HashMismatch { .. }) => assert!(e.is_corruption()),
        other => panic!("expected HashMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_kind_is_a_kind_mismatch() {
    let store = Store::open(fresh_dir("kind")).unwrap();
    store.put(ObjectKind::Plan, b"x", b"p").unwrap();
    // Reading the same *address* under another kind is a miss (the kind
    // tag is part of the digest)…
    assert_eq!(store.get(ObjectKind::Outcome, b"x").unwrap(), None);
    // …but a header whose kind byte disagrees with the request is
    // structural corruption.
    let path = sole_loose_object(&store);
    let mut bytes = fs::read(&path).unwrap();
    bytes[6] = ObjectKind::Outcome.as_u8();
    fs::write(&path, &bytes).unwrap();
    match store.get(ObjectKind::Plan, b"x") {
        Err(e @ StoreError::KindMismatch { .. }) => assert!(e.is_corruption()),
        other => panic!("expected KindMismatch, got {other:?}"),
    }
}

#[test]
fn gc_packs_objects_and_reads_survive() {
    let store = Store::open(fresh_dir("gc")).unwrap();
    for i in 0..50u64 {
        let key = i.to_le_bytes();
        // Half the payloads are identical to exercise blob dedup.
        let payload = if i % 2 == 0 {
            b"shared-payload".to_vec()
        } else {
            format!("unique-{i}").into_bytes()
        };
        store.put(ObjectKind::Latency, &key, &payload).unwrap();
    }
    let report = store.gc().unwrap();
    assert_eq!(report.packed, 50);
    assert_eq!(report.loose_removed, 50);
    assert_eq!(report.generation, 1);
    assert_eq!(
        report.duplicates_folded, 24,
        "25 identical payloads share one blob"
    );
    assert!(report.bytes_after < report.bytes_before);

    let stats = store.stats().unwrap();
    assert_eq!(stats.loose_objects, 0);
    assert_eq!(stats.packed_objects, 50);
    assert_eq!(stats.generation, 1);
    for i in 0..50u64 {
        let got = store.get(ObjectKind::Latency, &i.to_le_bytes()).unwrap();
        assert!(got.is_some(), "object {i} lost by gc");
    }
    assert!(store.verify().unwrap().is_clean());

    // New writes after gc are loose and shadow the pack; a second gc
    // folds them into generation 2.
    store
        .put(ObjectKind::Latency, &3u64.to_le_bytes(), b"updated")
        .unwrap();
    assert_eq!(
        store
            .get(ObjectKind::Latency, &3u64.to_le_bytes())
            .unwrap()
            .as_deref(),
        Some(&b"updated"[..])
    );
    let report2 = store.gc().unwrap();
    assert_eq!(report2.generation, 2);
    assert_eq!(report2.packs_removed, 1);
    assert_eq!(
        store
            .get(ObjectKind::Latency, &3u64.to_le_bytes())
            .unwrap()
            .as_deref(),
        Some(&b"updated"[..])
    );
}

#[test]
fn gc_drops_corrupt_objects() {
    let store = Store::open(fresh_dir("gc-corrupt")).unwrap();
    store.put(ObjectKind::Latency, b"good", b"fine").unwrap();
    store
        .put(ObjectKind::Latency, b"bad", b"doomed-payload")
        .unwrap();
    // Corrupt the second object.
    let bad = {
        let mut found = None;
        for fan in fs::read_dir(store.root().join("objects")).unwrap() {
            let fan = fan.unwrap().path();
            if !fan.is_dir() {
                continue;
            }
            for f in fs::read_dir(&fan).unwrap() {
                let p = f.unwrap().path();
                let bytes = fs::read(&p).unwrap();
                if bytes.ends_with(b"doomed-payload") {
                    found = Some(p.clone());
                }
            }
        }
        found.expect("doomed object on disk")
    };
    let mut bytes = fs::read(&bad).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    fs::write(&bad, &bytes).unwrap();

    let report = store.gc().unwrap();
    assert_eq!(report.packed, 1);
    assert_eq!(report.corrupt_dropped, 1);
    // The dropped object is now a clean miss, ready for recompute.
    assert_eq!(store.get(ObjectKind::Latency, b"bad").unwrap(), None);
    assert_eq!(
        store.get(ObjectKind::Latency, b"good").unwrap().as_deref(),
        Some(&b"fine"[..])
    );
}

#[test]
fn second_handle_sees_packs_written_by_first() {
    let dir = fresh_dir("twohandle");
    let writer = Store::open(&dir).unwrap();
    let reader = Store::open(&dir).unwrap(); // opened before any packs exist
    writer.put(ObjectKind::Plan, b"p", b"payload").unwrap();
    writer.gc().unwrap();
    // The reader's pack index predates the gc; the miss-path rescan
    // must find the new pack.
    assert_eq!(
        reader.get(ObjectKind::Plan, b"p").unwrap().as_deref(),
        Some(&b"payload"[..])
    );
}

#[test]
fn two_writers_hammering_one_store_dir() {
    let dir = fresh_dir("concurrent");
    let a = Arc::new(Store::open(&dir).unwrap());
    let b = Arc::new(Store::open(&dir).unwrap());
    let spawn = |store: Arc<Store>, salt: u64| {
        std::thread::spawn(move || {
            for round in 0..40u64 {
                let key = (round % 8).to_le_bytes();
                // Canonical encodings make concurrent writers of one key
                // byte-identical; mirror that here.
                let payload = format!("payload-{}", round % 8).into_bytes();
                store.put(ObjectKind::Latency, &key, &payload).unwrap();
                if let Some(got) = store.get(ObjectKind::Latency, &key).unwrap() {
                    assert_eq!(got, payload, "torn read in writer {salt}");
                }
            }
        })
    };
    let ta = spawn(a.clone(), 1);
    let tb = spawn(b.clone(), 2);
    ta.join().unwrap();
    tb.join().unwrap();
    let stats = a.stats().unwrap();
    assert_eq!(stats.loose_objects, 8);
    assert!(a.verify().unwrap().is_clean());
    // tmp/ must hold no abandoned staging files.
    assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0);
}

#[test]
fn empty_store_gc_and_verify_are_noops() {
    let store = Store::open(fresh_dir("empty")).unwrap();
    let report = store.gc().unwrap();
    assert_eq!(report.packed, 0);
    assert_eq!(report.generation, 0);
    let verify = store.verify().unwrap();
    assert_eq!(verify.checked, 0);
    assert!(verify.is_clean());
}
