//! Property tests for the canonical encodings and the object store:
//! encode→hash→decode is the identity, digests are pure functions of
//! the bytes, put→get round-trips arbitrary payloads, and mangled
//! object and pack headers never panic the store.

use predtop_store::hash::digest_bytes;
use predtop_store::{ByteReader, ByteWriter, ObjectKind, Store};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every primitive the typed encoders compose round-trips exactly,
    /// and the encoded bytes (hence the digest) are a pure function of
    /// the values.
    #[test]
    fn primitives_round_trip_and_hash_stably(
        a in any::<u64>(),
        b in any::<u32>(),
        f_bits in any::<u64>(),
        g_bits in any::<u32>(),
        flag in any::<bool>(),
        s in vec(any::<u8>(), 0..64),
        opt in any::<u64>(),
        tag in any::<bool>(),
    ) {
        let build = || {
            let mut w = ByteWriter::new();
            w.u64(a);
            w.u32(b);
            w.f64_bits(f64::from_bits(f_bits));
            w.f32_bits(f32::from_bits(g_bits));
            w.bool(flag);
            w.bytes(&s);
            w.opt_u64(if tag { Some(opt) } else { None });
            w.into_bytes()
        };
        let bytes = build();
        // Deterministic encode: same values, same bytes, same digest.
        prop_assert_eq!(&bytes, &build());
        prop_assert_eq!(digest_bytes(&bytes), digest_bytes(&build()));

        let mut r = ByteReader::new(&bytes);
        prop_assert_eq!(r.u64("a").unwrap(), a);
        prop_assert_eq!(r.u32("b").unwrap(), b);
        prop_assert_eq!(r.f64_bits("f").unwrap().to_bits(), f_bits);
        prop_assert_eq!(r.f32_bits("g").unwrap().to_bits(), g_bits);
        prop_assert_eq!(r.bool("flag").unwrap(), flag);
        prop_assert_eq!(r.bytes("s").unwrap(), &s[..]);
        prop_assert_eq!(r.opt_u64("opt").unwrap(), if tag { Some(opt) } else { None });
        r.finish().unwrap();
    }

    /// Truncating an encoded buffer anywhere never panics the reader:
    /// it either still decodes a prefix or reports a structured error.
    #[test]
    fn truncation_never_panics(
        payload in vec(any::<u8>(), 0..48),
        cut in any::<u64>(),
    ) {
        let mut w = ByteWriter::new();
        w.u64(payload.len() as u64);
        w.bytes(&payload);
        let bytes = w.into_bytes();
        let cut = (cut as usize) % (bytes.len() + 1);
        let mut r = ByteReader::new(&bytes[..cut]);
        let _ = r.u64("len").and_then(|_| r.bytes("payload").map(|_| ()));
    }

    /// put → get returns the exact payload for arbitrary keys and
    /// payloads, before and after gc.
    #[test]
    fn store_round_trips_arbitrary_objects(
        key in vec(any::<u8>(), 0..32),
        payload in vec(any::<u8>(), 0..256),
        kind_i in 0usize..4,
    ) {
        let kind = ObjectKind::ALL[kind_i];
        let dir = std::env::temp_dir().join(format!(
            "predtop-store-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        store.put(kind, &key, &payload).unwrap();
        let loose = store.get(kind, &key).unwrap();
        prop_assert_eq!(loose.as_deref(), Some(&payload[..]));
        store.gc().unwrap();
        let packed = store.get(kind, &key).unwrap();
        prop_assert_eq!(packed.as_deref(), Some(&payload[..]));
        prop_assert!(store.verify().unwrap().is_clean());
    }

    /// Overwriting header bytes of a valid store's pack and loose
    /// objects — one byte, or eight at once so counts, offsets and
    /// lengths take huge values — never panics `open`, `get` or
    /// `verify`: each returns a value or a structured error.
    #[test]
    fn mangled_headers_never_panic(
        edits in vec((0usize..3, any::<u16>(), any::<bool>(), any::<u64>()), 1..8),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "predtop-store-mangle-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 3]).collect();
        {
            let store = Store::open(&dir).unwrap();
            for (i, key) in keys.iter().enumerate() {
                if i == 3 {
                    // the first three objects go into a pack, the rest
                    // stay loose
                    store.gc().unwrap();
                }
                store.put(ObjectKind::Latency, key, &vec![i as u8; 8 + 5 * i]).unwrap();
            }
        }
        let pack = std::fs::read_dir(dir.join("packs")).unwrap().next().unwrap().unwrap().path();
        let mut files = vec![(pack, PACK_HEADER_AND_INDEX)];
        for fan in std::fs::read_dir(dir.join("objects")).unwrap() {
            for obj in std::fs::read_dir(fan.unwrap().path()).unwrap() {
                files.push((obj.unwrap().path(), LOOSE_HEADER));
            }
        }
        prop_assert_eq!(files.len(), 3);

        for (target, at, wide, value) in edits {
            let (path, header) = &files[target];
            let mut bytes = std::fs::read(path).unwrap();
            let at = at as usize % header;
            let width = if wide { 8 } else { 1 };
            let end = (at + width).min(bytes.len());
            bytes[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
            std::fs::write(path, &bytes).unwrap();
        }

        if let Ok(store) = Store::open(&dir) {
            for key in &keys {
                let _ = store.get(ObjectKind::Latency, key);
            }
            let _ = store.verify();
        }
    }
}

/// Pack header (20 bytes) plus the index of its three entries (49
/// bytes each).
const PACK_HEADER_AND_INDEX: usize = 20 + 3 * 49;
/// Loose object header length.
const LOOSE_HEADER: usize = 48;
