//! The object database: loose objects, packs, gc.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::hash::{digest_bytes, Digest, Fnv1a128};
use crate::lock::{LockError, Lockfile};

/// Loose object file magic.
const LOOSE_MAGIC: &[u8; 4] = b"PTOB";
/// Pack file magic.
const PACK_MAGIC: &[u8; 4] = b"PTPK";
/// On-disk format version for both loose objects and packs.
const FORMAT_VERSION: u16 = 1;
/// Loose header: magic(4) version(2) kind(1) reserved(1) key_digest(16)
/// payload_len(8) payload_digest(16).
const LOOSE_HEADER_LEN: usize = 48;
/// Pack header: magic(4) version(2) reserved(2) generation(4) count(8).
const PACK_HEADER_LEN: usize = 20;
/// Pack index entry: digest(16) kind(1) offset(8) len(8) payload_digest(16).
const PACK_ENTRY_LEN: usize = 49;
/// Bytes a loose read takes in its first `read`: an object file this
/// small or smaller is read whole by that one call.
const LOOSE_READ_BUF: usize = 4096;
/// A gc lock untouched for this long is presumed abandoned.
const GC_LOCK_STALE: Duration = Duration::from_secs(300);

/// The kinds of object the workspace persists. The tag byte is mixed
/// into the key digest, so two kinds can never collide even with equal
/// key bytes, and it is stored in the object header so a read with the
/// wrong kind fails structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// One latency reply, keyed by structural-descriptor bytes.
    Latency,
    /// A `PipelinePlan` snapshot.
    Plan,
    /// A `SearchOutcome` snapshot (plan + accounting).
    Outcome,
    /// A trained model snapshot (`ParamStore` weights + fingerprints).
    Model,
}

impl ObjectKind {
    /// All kinds, for iteration in stats/verify output.
    pub const ALL: [ObjectKind; 4] = [
        ObjectKind::Latency,
        ObjectKind::Plan,
        ObjectKind::Outcome,
        ObjectKind::Model,
    ];

    /// The stable tag byte.
    pub fn as_u8(self) -> u8 {
        match self {
            ObjectKind::Latency => 1,
            ObjectKind::Plan => 2,
            ObjectKind::Outcome => 3,
            ObjectKind::Model => 4,
        }
    }

    /// Inverse of [`ObjectKind::as_u8`].
    pub fn from_u8(tag: u8) -> Option<ObjectKind> {
        match tag {
            1 => Some(ObjectKind::Latency),
            2 => Some(ObjectKind::Plan),
            3 => Some(ObjectKind::Outcome),
            4 => Some(ObjectKind::Model),
            _ => None,
        }
    }

    /// Human-readable kind name (stats output).
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Latency => "latency",
            ObjectKind::Plan => "plan",
            ObjectKind::Outcome => "outcome",
            ObjectKind::Model => "model",
        }
    }
}

/// Structured store failure. Corruption (mismatched digests, truncated
/// files, mangled headers) is distinguished from plain I/O so callers
/// can fall back to recompute-and-rewrite.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error outside any object's content.
    Io {
        /// What the store was doing.
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// An object's payload bytes no longer match their stored digest.
    HashMismatch {
        /// The object's address.
        digest: Digest,
    },
    /// An object file is shorter than its header claims.
    ShortRead {
        /// The object's address.
        digest: Digest,
        /// Bytes the header promised.
        wanted: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// Magic, version, or key-digest field of an object is mangled.
    BadHeader {
        /// The object's address.
        digest: Digest,
        /// What was wrong.
        reason: &'static str,
    },
    /// The object exists but was written under a different kind tag.
    KindMismatch {
        /// The object's address.
        digest: Digest,
        /// The kind the caller asked for.
        expected: u8,
        /// The kind on disk.
        found: u8,
    },
    /// The gc lock is held by a live process.
    Locked(LockError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} {}: {source}", path.display())
            }
            StoreError::HashMismatch { digest } => {
                write!(f, "object {digest}: payload digest mismatch")
            }
            StoreError::ShortRead {
                digest,
                wanted,
                have,
            } => write!(f, "object {digest}: short read ({have} of {wanted} bytes)"),
            StoreError::BadHeader { digest, reason } => {
                write!(f, "object {digest}: bad header ({reason})")
            }
            StoreError::KindMismatch {
                digest,
                expected,
                found,
            } => write!(f, "object {digest}: kind {found}, expected {expected}"),
            StoreError::Locked(e) => write!(f, "store locked: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Locked(e) => Some(e),
            _ => None,
        }
    }
}

impl StoreError {
    /// True for errors that mean "this object is damaged" (as opposed
    /// to the store being unreachable or locked) — the cases a caller
    /// should treat as a miss and repair by rewriting.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::HashMismatch { .. }
                | StoreError::ShortRead { .. }
                | StoreError::BadHeader { .. }
                | StoreError::KindMismatch { .. }
        )
    }

    fn io(op: &'static str, path: &Path, source: io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

/// One pack index entry held in memory.
#[derive(Debug, Clone, Copy)]
struct PackEntry {
    digest: u128,
    kind: u8,
    offset: u64,
    len: u64,
    payload_digest: u128,
}

/// One immutable pack file with its index loaded.
#[derive(Debug)]
struct Pack {
    path: PathBuf,
    generation: u32,
    /// Sorted by digest for binary search.
    entries: Vec<PackEntry>,
}

impl Pack {
    fn lookup(&self, digest: u128) -> Option<&PackEntry> {
        self.entries
            .binary_search_by_key(&digest, |e| e.digest)
            .ok()
            .map(|i| &self.entries[i])
    }
}

/// Aggregate store accounting for `predtop store stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loose objects on disk.
    pub loose_objects: u64,
    /// Objects reachable through pack indexes.
    pub packed_objects: u64,
    /// Bytes under `objects/`.
    pub loose_bytes: u64,
    /// Bytes under `packs/`.
    pub pack_bytes: u64,
    /// Number of pack files.
    pub pack_files: u64,
    /// Highest gc generation present (0 before the first gc).
    pub generation: u32,
}

/// Outcome of a full [`Store::verify`] sweep.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Objects whose digests were re-checked.
    pub checked: u64,
    /// Of those, loose objects.
    pub loose: u64,
    /// Of those, packed objects.
    pub packed: u64,
    /// Damaged objects: address plus a human-readable reason.
    pub corrupt: Vec<(Digest, String)>,
}

impl VerifyReport {
    /// True when no object failed verification.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Outcome of one [`Store::gc`] compaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Distinct objects in the new pack.
    pub packed: u64,
    /// Objects whose identical payload bytes were folded onto one blob.
    pub duplicates_folded: u64,
    /// Loose files removed after packing.
    pub loose_removed: u64,
    /// Prior pack files superseded and removed.
    pub packs_removed: u64,
    /// Damaged objects dropped (they can be recomputed on demand).
    pub corrupt_dropped: u64,
    /// Generation number of the pack this gc wrote (unchanged if the
    /// store was empty).
    pub generation: u32,
    /// Store bytes before compaction.
    pub bytes_before: u64,
    /// Store bytes after compaction.
    pub bytes_after: u64,
}

/// A content-addressed object store rooted at one directory.
///
/// Cheap to open; safe to share across threads (`&Store` is `Sync`) and
/// to open concurrently from several processes pointed at the same
/// directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    packs: Mutex<Vec<Pack>>,
}

/// Sequence number of staged object files. Process-wide, not per
/// [`Store`]: two handles on one directory in one process would
/// otherwise stage the same key under the same `tmp/` name, and one
/// writer's rename would take the other's file.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Open (creating if necessary) the store at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = root.as_ref().to_path_buf();
        for sub in ["objects", "packs", "tmp"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| StoreError::io("create dir", &dir, e))?;
        }
        let packs = load_packs(&root.join("packs"))?;
        Ok(Store {
            root,
            packs: Mutex::new(packs),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The address of (`kind`, `key`): FNV-1a/128 over the kind tag
    /// byte followed by the caller's canonical key bytes.
    pub fn key_digest(kind: ObjectKind, key: &[u8]) -> Digest {
        let mut h = Fnv1a128::new();
        h.write_bytes(&[kind.as_u8()]);
        h.write_bytes(key);
        h.finish()
    }

    fn loose_path(&self, digest: Digest) -> PathBuf {
        let hex = digest.to_hex();
        self.root.join("objects").join(&hex[..2]).join(&hex[2..])
    }

    /// Write (or overwrite) the object at (`kind`, `key`). Atomic:
    /// the object is staged in `tmp/` and renamed into place, so a
    /// concurrent reader sees either the old object or the new one,
    /// never a torn write.
    pub fn put(&self, kind: ObjectKind, key: &[u8], payload: &[u8]) -> Result<Digest, StoreError> {
        let digest = Store::key_digest(kind, key);
        let mut file = Vec::with_capacity(LOOSE_HEADER_LEN + payload.len());
        file.extend_from_slice(LOOSE_MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.push(kind.as_u8());
        file.push(0);
        file.extend_from_slice(&digest.0.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&digest_bytes(payload).0.to_le_bytes());
        file.extend_from_slice(payload);

        let final_path = self.loose_path(digest);
        let fan_dir = final_path.parent().expect("loose path has a fanout dir");
        fs::create_dir_all(fan_dir).map_err(|e| StoreError::io("create fanout", fan_dir, e))?;
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
            &digest.to_hex()[..12],
        ));
        fs::write(&tmp, &file).map_err(|e| StoreError::io("stage object", &tmp, e))?;
        fs::rename(&tmp, &final_path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError::io("commit object", &final_path, e)
        })?;
        Ok(digest)
    }

    /// Read the object at (`kind`, `key`). `Ok(None)` means absent;
    /// a damaged object is an `Err` whose [`StoreError::is_corruption`]
    /// is true (callers recompute and [`Store::put`] over it).
    pub fn get(&self, kind: ObjectKind, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let digest = Store::key_digest(kind, key);
        // Loose first: anything written after the last gc shadows packs.
        let path = self.loose_path(digest);
        match read_loose(&path, |bytes| parse_loose(bytes, digest)) {
            Ok(parsed) => {
                let (found_kind, payload) = parsed?;
                if found_kind != kind.as_u8() {
                    return Err(StoreError::KindMismatch {
                        digest,
                        expected: kind.as_u8(),
                        found: found_kind,
                    });
                }
                return Ok(Some(payload));
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io("read object", &path, e)),
        }
        if let Some(hit) = self.pack_get(kind, digest)? {
            return Ok(Some(hit));
        }
        // A gc in another process may have packed the object since this
        // handle loaded its pack indexes: rescan once on a miss.
        if self.refresh_packs()? {
            return self.pack_get(kind, digest);
        }
        Ok(None)
    }

    /// True if the object exists and is readable without corruption.
    pub fn contains(&self, kind: ObjectKind, key: &[u8]) -> bool {
        matches!(self.get(kind, key), Ok(Some(_)))
    }

    fn pack_get(&self, kind: ObjectKind, digest: Digest) -> Result<Option<Vec<u8>>, StoreError> {
        let packs = self.packs.lock().expect("pack index lock");
        // Newest generation wins if a digest appears in several packs.
        for pack in packs.iter().rev() {
            if let Some(entry) = pack.lookup(digest.0) {
                if entry.kind != kind.as_u8() {
                    return Err(StoreError::KindMismatch {
                        digest,
                        expected: kind.as_u8(),
                        found: entry.kind,
                    });
                }
                let payload = read_pack_payload(&pack.path, entry)?;
                return Ok(Some(payload));
            }
        }
        Ok(None)
    }

    /// Reload pack indexes if the set of pack files on disk changed.
    /// Returns true when a reload happened.
    fn refresh_packs(&self) -> Result<bool, StoreError> {
        let dir = self.root.join("packs");
        let on_disk = list_pack_paths(&dir)?;
        let mut packs = self.packs.lock().expect("pack index lock");
        let loaded: Vec<&PathBuf> = packs.iter().map(|p| &p.path).collect();
        if on_disk.iter().collect::<Vec<_>>() == loaded {
            return Ok(false);
        }
        *packs = load_packs(&dir)?;
        Ok(true)
    }

    /// Walk every loose and packed object counting sizes.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        for path in list_loose_paths(&self.root.join("objects"))? {
            stats.loose_objects += 1;
            stats.loose_bytes += fs::metadata(&path)
                .map_err(|e| StoreError::io("stat object", &path, e))?
                .len();
        }
        self.refresh_packs()?;
        let packs = self.packs.lock().expect("pack index lock");
        for pack in packs.iter() {
            stats.pack_files += 1;
            stats.packed_objects += pack.entries.len() as u64;
            stats.pack_bytes += fs::metadata(&pack.path)
                .map_err(|e| StoreError::io("stat pack", &pack.path, e))?
                .len();
            stats.generation = stats.generation.max(pack.generation);
        }
        Ok(stats)
    }

    /// Re-hash every object (loose and packed) against its stored
    /// digest. Never fails on corruption — damage is collected in the
    /// report.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for path in list_loose_paths(&self.root.join("objects"))? {
            report.checked += 1;
            report.loose += 1;
            let digest = digest_from_loose_path(&path);
            match fs::read(&path) {
                Ok(bytes) => {
                    if let Err(e) = parse_loose(&bytes, digest) {
                        report.corrupt.push((digest, e.to_string()));
                    }
                }
                Err(e) => report.corrupt.push((digest, format!("unreadable: {e}"))),
            }
        }
        self.refresh_packs()?;
        let packs = self.packs.lock().expect("pack index lock");
        for pack in packs.iter() {
            for entry in &pack.entries {
                report.checked += 1;
                report.packed += 1;
                match read_pack_payload(&pack.path, entry) {
                    Ok(_) => {}
                    Err(e) => report.corrupt.push((Digest(entry.digest), e.to_string())),
                }
            }
        }
        Ok(report)
    }

    /// Compact: fold every readable loose object and prior pack entry
    /// into one new pack generation (deduplicating identical payload
    /// bytes), then remove the folded loose files and superseded packs.
    /// Damaged objects are dropped — they are recomputed on the next
    /// miss. Exclusive via the store lockfile; a lock untouched for
    /// 5 minutes is presumed abandoned and broken.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let _lock = Lockfile::acquire(self.root.join("gc.lock"), GC_LOCK_STALE)
            .map_err(StoreError::Locked)?;
        let before = self.stats()?;
        let mut report = GcReport {
            bytes_before: before.loose_bytes + before.pack_bytes,
            generation: before.generation,
            ..GcReport::default()
        };

        // Collect live objects. Later inserts win, so feed packs oldest
        // first, then loose objects (which shadow packs).
        let mut live: HashMap<u128, (u8, Vec<u8>)> = HashMap::new();
        self.refresh_packs()?;
        let old_pack_paths: Vec<PathBuf> = {
            let packs = self.packs.lock().expect("pack index lock");
            for pack in packs.iter() {
                for entry in &pack.entries {
                    match read_pack_payload(&pack.path, entry) {
                        Ok(payload) => {
                            live.insert(entry.digest, (entry.kind, payload));
                        }
                        Err(_) => report.corrupt_dropped += 1,
                    }
                }
            }
            packs.iter().map(|p| p.path.clone()).collect()
        };
        let loose_paths = list_loose_paths(&self.root.join("objects"))?;
        for path in &loose_paths {
            let digest = digest_from_loose_path(path);
            match fs::read(path).map_err(|e| StoreError::io("read object", path, e)) {
                Ok(bytes) => match parse_loose(&bytes, digest) {
                    Ok((kind, payload)) => {
                        live.insert(digest.0, (kind, payload));
                    }
                    Err(_) => report.corrupt_dropped += 1,
                },
                Err(_) => report.corrupt_dropped += 1,
            }
        }

        if !live.is_empty() {
            let generation = before.generation + 1;
            write_pack(&self.root, generation, &live, &mut report)?;
            report.generation = generation;
        }
        report.packed = live.len() as u64;

        // Remove exactly what was folded in; concurrently written new
        // loose objects survive.
        for path in &loose_paths {
            if fs::remove_file(path).is_ok() {
                report.loose_removed += 1;
            }
        }
        for path in &old_pack_paths {
            if fs::remove_file(path).is_ok() {
                report.packs_removed += 1;
            }
        }
        self.refresh_packs()?;
        let after = self.stats()?;
        report.bytes_after = after.loose_bytes + after.pack_bytes;
        Ok(report)
    }
}

/// `parse` applied to the whole of the loose object file at `path`:
/// open, one `read` into a stack buffer, close, for a file smaller than
/// the buffer. A read that fills the buffer goes on with `read_to_end`.
/// This skips the `statx` and the end-of-file probe of `fs::read`. A
/// short read that is not the end of the file shows as a truncated
/// object, a corruption the caller repairs by rewriting.
fn read_loose<T>(path: &Path, parse: impl FnOnce(&[u8]) -> T) -> io::Result<T> {
    let mut file = fs::File::open(path)?;
    let mut buf = [0u8; LOOSE_READ_BUF];
    let n = loop {
        match file.read(&mut buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    if n < buf.len() {
        return Ok(parse(&buf[..n]));
    }
    let mut bytes = buf.to_vec();
    file.read_to_end(&mut bytes)?;
    Ok(parse(&bytes))
}

/// Parse and fully verify a loose object file.
fn parse_loose(bytes: &[u8], digest: Digest) -> Result<(u8, Vec<u8>), StoreError> {
    if bytes.len() < LOOSE_HEADER_LEN {
        return Err(StoreError::ShortRead {
            digest,
            wanted: LOOSE_HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    }
    if &bytes[0..4] != LOOSE_MAGIC {
        return Err(StoreError::BadHeader {
            digest,
            reason: "bad magic",
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::BadHeader {
            digest,
            reason: "unsupported version",
        });
    }
    let kind = bytes[6];
    let key_digest = u128::from_le_bytes(bytes[8..24].try_into().unwrap());
    if key_digest != digest.0 {
        return Err(StoreError::BadHeader {
            digest,
            reason: "key digest mismatch",
        });
    }
    let payload_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let payload_digest = u128::from_le_bytes(bytes[32..48].try_into().unwrap());
    let have = (bytes.len() - LOOSE_HEADER_LEN) as u64;
    if have != payload_len {
        return Err(StoreError::ShortRead {
            digest,
            wanted: payload_len,
            have,
        });
    }
    let payload = &bytes[LOOSE_HEADER_LEN..];
    if digest_bytes(payload).0 != payload_digest {
        return Err(StoreError::HashMismatch { digest });
    }
    Ok((kind, payload.to_vec()))
}

/// Reconstruct an object's address from its fanout path.
fn digest_from_loose_path(path: &Path) -> Digest {
    let tail = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
    let fan = path
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|s| s.to_str())
        .unwrap_or("");
    Digest::from_hex(&format!("{fan}{tail}")).unwrap_or(Digest(0))
}

/// Every loose object path under `objects/`, sorted for determinism.
fn list_loose_paths(objects: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    let fans = match fs::read_dir(objects) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("list objects", objects, e)),
    };
    for fan in fans {
        let fan = fan.map_err(|e| StoreError::io("list objects", objects, e))?;
        if !fan.path().is_dir() {
            continue;
        }
        let entries =
            fs::read_dir(fan.path()).map_err(|e| StoreError::io("list fanout", &fan.path(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("list fanout", &fan.path(), e))?;
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Pack file paths in generation order.
fn list_pack_paths(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("list packs", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("list packs", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("pack-") && name.ends_with(".pack") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Load every pack index under `dir`. A mangled pack is skipped (its
/// objects read as misses and get recomputed) rather than wedging the
/// whole store.
fn load_packs(dir: &Path) -> Result<Vec<Pack>, StoreError> {
    let mut packs = Vec::new();
    for path in list_pack_paths(dir)? {
        if let Ok(Some(pack)) = load_pack(&path) {
            packs.push(pack);
        }
    }
    packs.sort_by_key(|p| p.generation);
    Ok(packs)
}

fn load_pack(path: &Path) -> Result<Option<Pack>, StoreError> {
    let bytes = fs::read(path).map_err(|e| StoreError::io("read pack", path, e))?;
    if bytes.len() < PACK_HEADER_LEN || &bytes[0..4] != PACK_MAGIC {
        return Ok(None);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Ok(None);
    }
    let generation = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    // the index must fit in the file: bounds the count before any
    // arithmetic or allocation sized by it
    let count = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let index_len = (bytes.len() - PACK_HEADER_LEN) / PACK_ENTRY_LEN;
    if count > index_len as u64 {
        return Ok(None);
    }
    let file_len = bytes.len() as u64;
    let mut entries = Vec::with_capacity(count as usize);
    for e in bytes[PACK_HEADER_LEN..]
        .chunks_exact(PACK_ENTRY_LEN)
        .take(count as usize)
    {
        let entry = PackEntry {
            digest: u128::from_le_bytes(e[0..16].try_into().unwrap()),
            kind: e[16],
            offset: u64::from_le_bytes(e[17..25].try_into().unwrap()),
            len: u64::from_le_bytes(e[25..33].try_into().unwrap()),
            payload_digest: u128::from_le_bytes(e[33..49].try_into().unwrap()),
        };
        // every payload must lie inside the file
        if entry
            .offset
            .checked_add(entry.len)
            .is_none_or(|end| end > file_len)
        {
            return Ok(None);
        }
        entries.push(entry);
    }
    // write_pack emits sorted entries; enforce for binary search.
    if !entries.windows(2).all(|w| w[0].digest < w[1].digest) {
        return Ok(None);
    }
    Ok(Some(Pack {
        path: path.to_path_buf(),
        generation,
        entries,
    }))
}

/// Read and verify one payload out of a pack file.
fn read_pack_payload(path: &Path, entry: &PackEntry) -> Result<Vec<u8>, StoreError> {
    let digest = Digest(entry.digest);
    let mut f = fs::File::open(path).map_err(|e| StoreError::io("open pack", path, e))?;
    // the file may have changed since its index was loaded: never
    // allocate more than it holds
    let file_len = f
        .metadata()
        .map_err(|e| StoreError::io("stat pack", path, e))?
        .len();
    let have = file_len.saturating_sub(entry.offset);
    if entry.len > have {
        return Err(StoreError::ShortRead {
            digest,
            wanted: entry.len,
            have,
        });
    }
    f.seek(SeekFrom::Start(entry.offset))
        .map_err(|e| StoreError::io("seek pack", path, e))?;
    let mut payload = vec![0u8; entry.len as usize];
    let mut read = 0usize;
    while read < payload.len() {
        let n = f
            .read(&mut payload[read..])
            .map_err(|e| StoreError::io("read pack", path, e))?;
        if n == 0 {
            return Err(StoreError::ShortRead {
                digest,
                wanted: entry.len,
                have: read as u64,
            });
        }
        read += n;
    }
    if digest_bytes(&payload).0 != entry.payload_digest {
        return Err(StoreError::HashMismatch { digest });
    }
    Ok(payload)
}

/// Write one pack generation atomically (tmp + rename), deduplicating
/// identical payload bytes onto one blob.
fn write_pack(
    root: &Path,
    generation: u32,
    live: &HashMap<u128, (u8, Vec<u8>)>,
    report: &mut GcReport,
) -> Result<(), StoreError> {
    let mut digests: Vec<u128> = live.keys().copied().collect();
    digests.sort_unstable();

    // Lay out blobs: identical payload bytes share one offset.
    let blobs_start = (PACK_HEADER_LEN + digests.len() * PACK_ENTRY_LEN) as u64;
    let mut blob_at: HashMap<u128, (u64, u64)> = HashMap::new();
    let mut blob_order: Vec<(u128, &Vec<u8>)> = Vec::new();
    let mut cursor = blobs_start;
    let mut entries = Vec::with_capacity(digests.len());
    for &d in &digests {
        let (kind, payload) = &live[&d];
        let pd = digest_bytes(payload).0;
        let (offset, len) = *blob_at.entry(pd).or_insert_with(|| {
            let at = (cursor, payload.len() as u64);
            cursor += payload.len() as u64;
            blob_order.push((pd, payload));
            at
        });
        entries.push((d, *kind, offset, len, pd));
    }
    report.duplicates_folded = (digests.len() - blob_at.len()) as u64;

    let mut file = Vec::with_capacity(cursor as usize);
    file.extend_from_slice(PACK_MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(&0u16.to_le_bytes());
    file.extend_from_slice(&generation.to_le_bytes());
    file.extend_from_slice(&(digests.len() as u64).to_le_bytes());
    for (d, kind, offset, len, pd) in &entries {
        file.extend_from_slice(&d.to_le_bytes());
        file.push(*kind);
        file.extend_from_slice(&offset.to_le_bytes());
        file.extend_from_slice(&len.to_le_bytes());
        file.extend_from_slice(&pd.to_le_bytes());
    }
    for (_, payload) in &blob_order {
        file.extend_from_slice(payload);
    }
    debug_assert_eq!(file.len() as u64, cursor);

    let final_path = root
        .join("packs")
        .join(format!("pack-{generation:08}.pack"));
    let tmp = root
        .join("tmp")
        .join(format!("pack-{generation:08}-{}.tmp", std::process::id()));
    let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io("stage pack", &tmp, e))?;
    f.write_all(&file)
        .map_err(|e| StoreError::io("stage pack", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, &final_path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        StoreError::io("commit pack", &final_path, e)
    })?;
    Ok(())
}
