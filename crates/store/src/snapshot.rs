//! Durable snapshots of a [`Db`] — the `AIMSNAP v1` codec and the
//! [`Checkpointer`] that executors drive every K committed steps.
//!
//! AI Metropolis keeps the authoritative simulation state (dependency
//! graph nodes, counters, per-step history) in the store; ScaleSim-style
//! long-horizon runs additionally need that state to be *durable*, so an
//! interrupted run can resume instead of replaying from step zero. This
//! module serializes a consistent image of the store — plus any number of
//! named side sections (world state, run metadata) — to a byte stream and
//! restores it.
//!
//! # `AIMSNAP v1` format
//!
//! All integers are big-endian. The layout, in order:
//!
//! ```text
//! magic      8 bytes   b"AIMSNAP1"
//! sections   u32       count of named sections
//!   per section:
//!     name   u32 len + UTF-8 bytes
//!     body   u32 len + raw bytes
//! records    repeated, ascending by key:
//!     key    u32 len + raw bytes        (len 0xFFFF_FFFF terminates)
//!     value  u32 len + raw bytes
//! checksum   u64       FNV-1a 64 over every preceding byte
//! ```
//!
//! Records are written in ascending key order, so the encoding of a given
//! database image is **canonical**: snapshot → restore → snapshot yields
//! the identical byte stream (hash-map iteration order never leaks into
//! the file), which the property tests pin down. The record stream comes
//! from one [`Db::scan_prefix`]: it holds refcounted handles to the
//! stored keys and values, never a second copy of their bytes.
//!
//! # Consistency
//!
//! Capturing is not itself transactional. Callers capture from a quiesced
//! writer — the threaded executor drains in-flight clusters before its
//! checkpoint hook runs, and the discrete-event executor checkpoints
//! between runs — so the image is a consistent commit-boundary cut.
//!
//! # Example
//!
//! ```
//! use aim_store::{Db, Snapshot, SnapshotBuilder};
//!
//! # fn main() -> Result<(), aim_store::StoreError> {
//! let db = Db::new();
//! db.set("agent:0", vec![1, 2, 3]);
//! let bytes = SnapshotBuilder::new()
//!     .section("meta", vec![9u8])
//!     .db(&db)
//!     .to_bytes()?;
//! let snap = Snapshot::from_bytes(bytes)?;
//! assert_eq!(snap.section("meta").unwrap().as_ref(), &[9u8][..]);
//! let restored = snap.restore_db();
//! assert_eq!(restored.get("agent:0"), db.get("agent:0"));
//! # Ok(())
//! # }
//! ```

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::codec::{get_u32, need};
use crate::db::Db;
use crate::error::StoreError;

/// File magic of the `AIMSNAP v1` format.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AIMSNAP1";

/// Key-length sentinel that terminates the record stream.
const END_OF_RECORDS: u32 = u32::MAX;

/// Incremental FNV-1a 64 — tiny, dependency-free, and plenty for
/// detecting truncation and bit rot in snapshot files (not a
/// cryptographic integrity guarantee).
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A writer adapter that hashes and counts everything passing through.
struct HashWriter<'a> {
    inner: &'a mut dyn Write,
    hash: Fnv64,
    written: u64,
}

impl<'a> HashWriter<'a> {
    fn new(inner: &'a mut dyn Write) -> Self {
        HashWriter {
            inner,
            hash: Fnv64::new(),
            written: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        self.hash.update(bytes);
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_be_bytes())
    }

    fn put_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        assert!(
            (bytes.len() as u64) < END_OF_RECORDS as u64,
            "snapshot chunk too large"
        );
        self.put_u32(bytes.len() as u32)?;
        self.put(bytes)
    }
}

/// Builds an `AIMSNAP v1` byte stream from named sections plus an
/// optional [`Db`] image (see the [module docs](self) for the format).
///
/// The builder only *borrows* its inputs; nothing is copied until
/// [`SnapshotBuilder::write_to`] streams the encoding out.
#[derive(Debug, Default)]
pub struct SnapshotBuilder<'a> {
    db: Option<&'a Db>,
    sections: Vec<(String, Bytes)>,
}

impl<'a> SnapshotBuilder<'a> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Includes every record of `db` in the snapshot.
    pub fn db(mut self, db: &'a Db) -> Self {
        self.db = Some(db);
        self
    }

    /// Appends a named side section (run metadata, world state, …).
    /// Section order is preserved; names should be unique.
    pub fn section(mut self, name: impl Into<String>, body: impl Into<Bytes>) -> Self {
        self.sections.push((name.into(), body.into()));
        self
    }

    /// Streams the snapshot into `w`, returning the total bytes written.
    ///
    /// Database records are written in ascending key order from one
    /// [`Db::scan_prefix`]; resident overhead is a refcounted handle per
    /// record, not a second copy of the store's bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut dyn Write) -> io::Result<u64> {
        let mut hw = HashWriter::new(w);
        hw.put(&SNAPSHOT_MAGIC)?;
        hw.put_u32(self.sections.len() as u32)?;
        for (name, body) in &self.sections {
            hw.put_chunk(name.as_bytes())?;
            hw.put_chunk(body)?;
        }
        if let Some(db) = self.db {
            for (k, v) in db.scan_prefix([]) {
                hw.put_chunk(&k)?;
                hw.put_chunk(&v)?;
            }
        }
        hw.put_u32(END_OF_RECORDS)?;
        let checksum = hw.hash.finish();
        let written = hw.written;
        hw.put(&checksum.to_be_bytes())?;
        Ok(written + 8)
    }

    /// Encodes into an in-memory buffer (tests and small snapshots).
    ///
    /// # Errors
    ///
    /// Never fails in practice (the sink is a `Vec`); the `Result` mirrors
    /// [`SnapshotBuilder::write_to`].
    pub fn to_bytes(&self) -> Result<Bytes, StoreError> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    /// Writes the snapshot to `path` atomically: the stream goes to a
    /// `.tmp` sibling first, is flushed and fsynced, and only then
    /// renamed into place — so an interrupted (or power-lost) checkpoint
    /// never leaves a truncated snapshot under the final name. A `.tmp`
    /// orphan from a killed writer may remain; [`Checkpointer`] sweeps
    /// those on rotation.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<u64> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        let mut file = io::BufWriter::new(std::fs::File::create(&tmp)?);
        let n = self.write_to(&mut file)?;
        file.flush()?;
        let file = file.into_inner().map_err(|e| e.into_error())?;
        // Data must be durable *before* the rename publishes the name:
        // rename-then-crash must not yield a complete-looking file with
        // unflushed tail pages.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(n)
    }
}

/// Summary of a parsed snapshot (`trace_tool snapshot` output).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SnapshotInfo {
    /// `(name, body length)` per named section, in file order.
    pub sections: Vec<(String, u64)>,
    /// Number of database records.
    pub db_records: u64,
    /// Total bytes of the encoded stream.
    pub total_bytes: u64,
    /// The verified FNV-1a 64 checksum.
    pub checksum: u64,
}

/// A parsed, checksum-verified `AIMSNAP v1` snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    sections: Vec<(String, Bytes)>,
    records: Vec<(Bytes, Bytes)>,
    info: SnapshotInfo,
}

impl Snapshot {
    /// Parses and verifies an encoded snapshot.
    ///
    /// Section bodies and record keys/values share the input buffer
    /// (zero-copy slices of `bytes`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] on a bad magic, truncation, or a
    /// checksum mismatch.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Result<Self, StoreError> {
        let full: Bytes = bytes.into();
        let total_bytes = full.len() as u64;
        if full.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(StoreError::Codec(format!(
                "snapshot too short ({} bytes)",
                full.len()
            )));
        }
        let (body, trailer) = (full.slice(..full.len() - 8), full.slice(full.len() - 8..));
        let declared = u64::from_be_bytes(trailer.as_ref().try_into().expect("8 bytes"));
        let mut hash = Fnv64::new();
        hash.update(body.as_ref());
        let checksum = hash.finish();
        if checksum != declared {
            return Err(StoreError::Codec(format!(
                "snapshot checksum mismatch: file says {declared:#018x}, content hashes to {checksum:#018x}"
            )));
        }
        let mut buf = body;
        // Long enough: checked against the length above.
        let magic = buf.split_to(SNAPSHOT_MAGIC.len());
        if magic.as_ref() != SNAPSHOT_MAGIC {
            return Err(StoreError::Codec(format!(
                "not an AIMSNAP v1 file (magic {:?})",
                magic.as_ref()
            )));
        }
        let n_sections = get_u32(&mut buf)?;
        // Capacity clamped by what the buffer could possibly hold (each
        // section costs ≥ 8 bytes of length prefixes): a corrupt count
        // with a matching checksum must fail with a Codec error below,
        // not abort on a absurd allocation here.
        let mut sections = Vec::with_capacity((n_sections as usize).min(buf.len() / 8));
        for _ in 0..n_sections {
            let name_len = get_u32(&mut buf)? as usize;
            need(&buf, name_len, "section name")?;
            let name_raw = buf.split_to(name_len);
            let name = std::str::from_utf8(name_raw.as_ref())
                .map_err(|e| StoreError::Codec(format!("section name not UTF-8: {e}")))?
                .to_string();
            let body_len = get_u32(&mut buf)? as usize;
            need(&buf, body_len, "section body")?;
            let body = buf.split_to(body_len);
            sections.push((name, body));
        }
        let mut records = Vec::new();
        loop {
            let klen = get_u32(&mut buf)?;
            if klen == END_OF_RECORDS {
                break;
            }
            need(&buf, klen as usize, "record key")?;
            let key = buf.split_to(klen as usize);
            let vlen = get_u32(&mut buf)? as usize;
            need(&buf, vlen, "record value")?;
            let value = buf.split_to(vlen);
            if let Some((last, _)) = records.last() {
                if *last >= key {
                    return Err(StoreError::Codec(
                        "snapshot records out of order (not canonical)".to_string(),
                    ));
                }
            }
            records.push((key, value));
        }
        if !buf.is_empty() {
            return Err(StoreError::Codec(format!(
                "{} trailing bytes after record terminator",
                buf.len()
            )));
        }
        let info = SnapshotInfo {
            sections: sections
                .iter()
                .map(|(n, b)| (n.clone(), b.len() as u64))
                .collect(),
            db_records: records.len() as u64,
            total_bytes,
            checksum,
        };
        Ok(Snapshot {
            sections,
            records,
            info,
        })
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem errors and
    /// [`StoreError::Codec`] on a malformed stream.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let data = std::fs::read(path.as_ref())?;
        Self::from_bytes(data)
    }

    /// The body of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&Bytes> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
    }

    /// Every `(name, body)` section whose name starts with `prefix`, in
    /// file order — how shard-aware consumers walk a checkpoint's
    /// `shard/<i>` membership family without knowing the shard count up
    /// front.
    pub fn sections_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Bytes)> + 'a {
        self.sections
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, b)| (n.as_str(), b))
    }

    /// Parsed summary: sections, record count, checksum.
    pub fn info(&self) -> &SnapshotInfo {
        &self.info
    }

    /// The database records, ascending by key.
    pub fn records(&self) -> &[(Bytes, Bytes)] {
        &self.records
    }

    /// Materializes a fresh [`Db`] holding exactly the snapshot's
    /// records.
    pub fn restore_db(&self) -> Db {
        let db = Db::with_capacity(self.records.len());
        for (k, v) in &self.records {
            db.set(k, v.clone());
        }
        db
    }
}

/// Writes rotating snapshot files.
///
/// The executor (or any run loop) owns the *cut* and its cadence — it
/// decides when the state is quiescent (an executor's `CheckpointHook`
/// fires every `every_steps` committed steps) and what goes into the
/// [`SnapshotBuilder`]; the checkpointer owns file naming
/// (`ckpt-<step:08>.aimsnap`), atomic writes, and rotation.
///
/// # Example
///
/// ```no_run
/// use aim_store::{Checkpointer, Db, SnapshotBuilder};
///
/// let db = Db::new();
/// let mut ckpt = Checkpointer::new("target/ckpts", 2);
/// for step in (50..200u32).step_by(50) {
///     // … advance the simulation to committed step `step` …
///     ckpt.write(step, &SnapshotBuilder::new().db(&db)).unwrap();
/// }
/// assert_eq!(ckpt.written(), 3); // steps 50, 100, 150; 100 and 150 kept
/// ```
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    keep: usize,
    written: u64,
    last: Option<PathBuf>,
}

impl Checkpointer {
    /// Creates a checkpointer writing into `dir` and retaining the `keep`
    /// most recent files.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        assert!(keep > 0, "must retain at least one checkpoint");
        Checkpointer {
            dir: dir.into(),
            keep,
            written: 0,
            last: None,
        }
    }

    /// Writes `builder` as `ckpt-<step:08>.aimsnap` and rotates old
    /// files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(
        &mut self,
        committed_step: u32,
        builder: &SnapshotBuilder<'_>,
    ) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("ckpt-{committed_step:08}.aimsnap"));
        builder.save(&path)?;
        self.written += 1;
        self.last = Some(path.clone());
        self.rotate()?;
        Ok(path)
    }

    /// Deletes all but the `keep` newest checkpoint files, plus any
    /// stale `ckpt-*.tmp` orphans an interrupted writer left behind (the
    /// just-written snapshot was already renamed, so every remaining
    /// `.tmp` is dead).
    fn rotate(&self) -> io::Result<()> {
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.starts_with("ckpt-") {
                continue;
            }
            if name.ends_with(".aimsnap") {
                files.push(path);
            } else if name.ends_with(".tmp") {
                std::fs::remove_file(&path)?;
            }
        }
        files.sort();
        if files.len() > self.keep {
            for old in &files[..files.len() - self.keep] {
                std::fs::remove_file(old)?;
            }
        }
        Ok(())
    }

    /// Path of the most recently written checkpoint, if any.
    pub fn last_path(&self) -> Option<&Path> {
        self.last.as_deref()
    }

    /// Number of checkpoints written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_db() -> Db {
        let db = Db::new();
        for i in 0..64u32 {
            db.set(format!("k:{i:04}"), i.to_be_bytes().to_vec());
        }
        db.set_i64("counter", 41);
        db
    }

    #[test]
    fn sections_with_prefix_walks_the_family() {
        let db = Db::new();
        let bytes = SnapshotBuilder::new()
            .section("meta", vec![1u8])
            .section("shard/0", vec![2u8])
            .section("shard/1", vec![3u8])
            .section("world", vec![4u8])
            .db(&db)
            .to_bytes()
            .unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        let family: Vec<(&str, u8)> = snap
            .sections_with_prefix("shard/")
            .map(|(n, b)| (n, b[0]))
            .collect();
        assert_eq!(family, vec![("shard/0", 2), ("shard/1", 3)]);
        assert_eq!(snap.sections_with_prefix("nope").count(), 0);
    }

    #[test]
    fn roundtrip_preserves_records_and_sections() {
        let db = demo_db();
        let bytes = SnapshotBuilder::new()
            .section("meta", vec![1, 2, 3])
            .section("world", vec![4])
            .db(&db)
            .to_bytes()
            .unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snap.info().db_records, 65);
        assert_eq!(
            snap.info().sections,
            vec![("meta".to_string(), 3), ("world".to_string(), 1)]
        );
        assert_eq!(snap.section("meta").unwrap().as_ref(), &[1, 2, 3][..]);
        assert!(snap.section("absent").is_none());
        let restored = snap.restore_db();
        assert_eq!(restored.len(), db.len());
        assert_eq!(restored.get_i64("counter").unwrap(), 41);
        assert_eq!(restored.scan_prefix(""), db.scan_prefix(""));
    }

    #[test]
    fn encoding_is_canonical_across_restore() {
        let db = demo_db();
        let first = SnapshotBuilder::new().db(&db).to_bytes().unwrap();
        let restored = Snapshot::from_bytes(first.clone()).unwrap().restore_db();
        let second = SnapshotBuilder::new().db(&restored).to_bytes().unwrap();
        assert_eq!(
            first.as_ref(),
            second.as_ref(),
            "snapshot -> restore -> snapshot must be byte-for-byte stable"
        );
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = SnapshotBuilder::new()
            .db(&demo_db())
            .to_bytes()
            .unwrap()
            .to_vec();
        // Flip one record byte: checksum must catch it.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(flipped),
            Err(StoreError::Codec(msg)) if msg.contains("checksum")
        ));
        // Truncation is caught too.
        let truncated = bytes[..bytes.len() - 3].to_vec();
        assert!(Snapshot::from_bytes(truncated).is_err());
        // And a wrong magic with a valid checksum shape.
        assert!(matches!(
            Snapshot::from_bytes(vec![0u8; 32]),
            Err(StoreError::Codec(_))
        ));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let bytes = SnapshotBuilder::new().to_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snap.info().db_records, 0);
        assert!(snap.info().sections.is_empty());
        assert!(snap.restore_db().is_empty());
    }

    #[test]
    fn save_and_load_via_file() {
        let dir = std::env::temp_dir().join(format!("aimsnap-test-{}", std::process::id()));
        let path = dir.join("one.aimsnap");
        let db = demo_db();
        let n = SnapshotBuilder::new().db(&db).save(&path).unwrap();
        assert_eq!(n, std::fs::metadata(&path).unwrap().len());
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.info().db_records, 65);
        assert!(matches!(
            Snapshot::load(dir.join("missing.aimsnap")),
            Err(StoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointer_cadence_and_rotation() {
        let dir = std::env::temp_dir().join(format!("aimsnap-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = demo_db();
        let mut ckpt = Checkpointer::new(&dir, 2);
        // A stale orphan from a previously killed writer must be swept.
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join("ckpt-00000003.tmp");
        std::fs::write(&orphan, b"dead").unwrap();
        let mut paths = Vec::new();
        for step in [10u32, 23, 31] {
            paths.push(ckpt.write(step, &SnapshotBuilder::new().db(&db)).unwrap());
        }
        assert!(!orphan.exists(), "stale .tmp must be rotated away");
        assert_eq!(ckpt.written(), 3);
        assert_eq!(ckpt.last_path(), Some(paths[2].as_path()));
        // keep = 2: the oldest file is rotated away.
        assert!(!paths[0].exists());
        assert!(paths[1].exists() && paths[2].exists());
        Snapshot::load(ckpt.last_path().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
