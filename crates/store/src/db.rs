use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::StoreError;
use crate::txn::{self, Txn};

/// The store's one key hash: a multiply-fold over the key bytes, eight at
/// a time (the `CellKeyHasher` idea of `aim-core`'s grid index, widened to
/// the full 128-bit product so high input bytes reach the low output bits).
///
/// It is the hasher of the store's map, so a key costs two or three
/// multiplies. Every byte and the length are mixed: the engine's keys are
/// sequential big-endian ids that differ only in their last bytes, and a
/// restored snapshot may hold any byte strings at all.
///
/// It is a fixed function, not a keyed one. Whoever knows it can compute
/// colliding keys offline, so it buys speed at the price of the flooding
/// resistance `RandomState` gave: a hostile `.aimsnap` can make its own
/// restore slow (long probe chains), never wrong.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // At most seven bytes, so the top byte is free to carry how
            // many there were ("ab" and "ab\0" must differ).
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// The length prefix `[u8]::hash` writes ahead of the bytes.
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes `key` exactly as the map does (length prefix included), so a
/// transaction can compute it once and use it both for comparing buffered
/// keys and for ordering its write set.
#[inline]
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    BuildHasherDefault::<KeyHasher>::default().hash_one(key)
}

/// Every key and value of a [`Db`].
pub(crate) type Map = HashMap<Bytes, Bytes, BuildHasherDefault<KeyHasher>>;

/// Stores `value` at `key`, overwriting an existing value in place: the
/// key is only copied when it is new to the map.
fn put(map: &mut Map, key: &[u8], value: Bytes) {
    match map.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            map.insert(Bytes::copy_from_slice(key), value);
        }
    }
}

/// Counters exposed by [`Db::stats`].
///
/// All counters are cumulative since the database was created and are
/// maintained with relaxed atomics (they are instrumentation, not
/// synchronization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DbStats {
    /// Number of keys currently stored.
    pub keys: usize,
    /// Cumulative successful point reads (`get`).
    pub gets: u64,
    /// Cumulative writes (`set`, `del`, `incr`, and one per distinct key
    /// of a committed [`Db::transaction`]).
    pub writes: u64,
    /// Cumulative committed [`Db::transaction`] batches.
    pub txn_commits: u64,
    /// Always 0. A [`Db::transaction`] is a write batch that reads
    /// nothing, so no batch can conflict with another; the field is kept
    /// for callers that report every counter.
    pub txn_conflicts: u64,
}

/// An in-memory key-value store: one hash map behind one lock.
///
/// `Db` is the embedded stand-in for the Redis instance the AI Metropolis
/// paper uses to hold the dependency graph and simulation state (§3.3,
/// §3.6). Like Redis, which executes commands on one thread, it serves one
/// writer: the controller thread, or the one `dist` worker that owns it.
/// The lock keeps it correct under any access pattern. It is cheap to
/// share: clone an `Arc<Db>` or borrow it; all methods take `&self`.
///
/// Keys and values are raw bytes ([`bytes::Bytes`]); use [`crate::codec`]
/// for structured values. Point operations are atomic per key;
/// multi-key atomicity is provided by [`Db::transaction`].
///
/// # Example
///
/// ```
/// use aim_store::Db;
///
/// let db = Db::new();
/// db.set("k", b"v".to_vec());
/// assert_eq!(db.get("k").as_deref(), Some(&b"v"[..]));
/// assert_eq!(db.incr("counter", 2).unwrap(), 2);
/// assert_eq!(db.incr("counter", -1).unwrap(), 1);
/// ```
pub struct Db {
    pub(crate) map: RwLock<Map>,
    gets: AtomicU64,
    writes: AtomicU64,
    txn_commits: AtomicU64,
}

impl fmt::Debug for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Db").field("stats", &self.stats()).finish()
    }
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

impl Db {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty database with room for `keys` keys, so a restore
    /// that knows its record count sizes the map once.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        Db {
            map: RwLock::new(Map::with_capacity_and_hasher(keys, Default::default())),
            gets: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            txn_commits: AtomicU64::new(0),
        }
    }

    /// Returns the value stored at `key`, if any.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.map.read().get(key.as_ref()).cloned()
    }

    /// Stores `value` at `key`, replacing any previous value.
    pub fn set(&self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let value = value.into();
        put(&mut self.map.write(), key.as_ref(), value);
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn del(&self, key: impl AsRef<[u8]>) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.map.write().remove(key.as_ref()).is_some()
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.map.read().contains_key(key.as_ref())
    }

    /// Atomically adds `delta` to the signed 64-bit integer at `key`
    /// (missing keys count as 0) and returns the new value.
    ///
    /// The integer is stored as 8 big-endian bytes, compatible with
    /// [`crate::codec::get_i64`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if an existing value is not exactly
    /// 8 bytes.
    pub fn incr(&self, key: impl AsRef<[u8]>, delta: i64) -> Result<i64, StoreError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let key_ref = key.as_ref();
        let mut map = self.map.write();
        let cur = match map.get(key_ref) {
            None => 0,
            Some(value) => crate::codec::i64_value(value)?,
        };
        let next = cur.wrapping_add(delta);
        put(
            &mut map,
            key_ref,
            Bytes::copy_from_slice(&crate::codec::i64_bytes(next)),
        );
        Ok(next)
    }

    /// Returns all `(key, value)` pairs whose key starts with `prefix`,
    /// sorted by key.
    ///
    /// One pass over the map under its read lock, then one sort; the
    /// pairs are refcounted handles, so the result holds no copy of the
    /// stored bytes. The read is uncounted: a checkpoint or eviction walk
    /// does not move [`DbStats::gets`].
    ///
    /// A scan sees each [`Db::transaction`] whole or not at all. Callers
    /// that pair it with other state (the snapshot writer's sections)
    /// still scan from a quiesced writer.
    pub fn scan_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<(Bytes, Bytes)> {
        let prefix = prefix.as_ref();
        let mut out: Vec<(Bytes, Bytes)> = self
            .map
            .read()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        // Keys are unique, so an unstable sort gives the one order and
        // needs no merge buffer beside `out`.
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Reads `key` as a big-endian `i64` (absent counts as 0): single-key
    /// metadata such as commit counters, eviction watermarks and
    /// checkpoint cursors.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the stored value is not 8 bytes.
    pub fn get_i64(&self, key: impl AsRef<[u8]>) -> Result<i64, StoreError> {
        match self.get(key) {
            None => Ok(0),
            Some(v) => crate::codec::i64_value(&v),
        }
    }

    /// Stores `value` as a big-endian `i64` readable by [`Db::get_i64`]
    /// and [`Db::incr`].
    pub fn set_i64(&self, key: impl AsRef<[u8]>, value: i64) {
        self.set(key, Bytes::copy_from_slice(&crate::codec::i64_bytes(value)));
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Returns `true` if the database holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Removes every key.
    pub fn clear(&self) {
        self.map.write().clear();
    }

    /// Snapshot of instrumentation counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            keys: self.len(),
            gets: self.gets.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            txn_commits: self.txn_commits.load(Ordering::Relaxed),
            txn_conflicts: 0,
        }
    }

    /// Counts one committed batch that wrote `keys` distinct keys.
    pub(crate) fn note_commit(&self, keys: u64) {
        self.writes.fetch_add(keys, Ordering::Relaxed);
        self.txn_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `body` once to fill a write batch, then applies the batch
    /// atomically and returns the body's result.
    ///
    /// The batch's writes become visible together: the map is write-locked
    /// once, each increment is resolved against the integer the key holds
    /// under that lock, and the last write of each key is applied. If `body` or an increment fails, nothing is
    /// applied. [`DbStats::writes`] grows by the distinct keys written and
    /// [`DbStats::txn_commits`] by one.
    ///
    /// The batch reads nothing, so it never conflicts or retries — the
    /// engine needs no more, because each `Db` has one writer: the
    /// controller thread that advances the dependency graph, or the one
    /// `dist` worker that owns it. Read what a batch must decide on before
    /// opening it.
    ///
    /// # Errors
    ///
    /// * [`StoreError::Codec`] if an increment meets a stored value that
    ///   is not an 8-byte integer (see [`Txn::incr_key`]).
    /// * Any error returned by `body`.
    ///
    /// # Example
    ///
    /// ```
    /// use aim_store::{Db, Key};
    /// # fn main() -> Result<(), aim_store::StoreError> {
    /// let db = Db::new();
    /// let commits = Key::new("commits");
    /// db.transaction(|txn| {
    ///     txn.set("a", vec![1]);
    ///     txn.set("b", vec![2]);
    ///     txn.incr_key(&commits, 1)
    /// })?;
    /// assert_eq!(db.get("b").as_deref(), Some(&[2u8][..]));
    /// assert_eq!(db.get_i64(&commits)?, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn transaction<T>(
        &self,
        body: impl FnOnce(&mut Txn) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        txn::run(self, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let db = Db::new();
        assert!(db.get("missing").is_none());
        db.set("k", b"hello".to_vec());
        assert_eq!(db.get("k").as_deref(), Some(&b"hello"[..]));
        db.set("k", b"world".to_vec());
        assert_eq!(db.get("k").as_deref(), Some(&b"world"[..]));
    }

    #[test]
    fn del_and_contains() {
        let db = Db::new();
        db.set("k", vec![1]);
        assert!(db.contains("k"));
        assert!(db.del("k"));
        assert!(!db.contains("k"));
        assert!(!db.del("k"));
    }

    #[test]
    fn incr_from_missing_and_existing() {
        let db = Db::new();
        assert_eq!(db.incr("c", 5).unwrap(), 5);
        assert_eq!(db.incr("c", -2).unwrap(), 3);
        db.set("bad", vec![1, 2, 3]);
        assert!(matches!(db.incr("bad", 1), Err(StoreError::Codec(_))));
    }

    #[test]
    fn scan_prefix_is_sorted_and_filtered() {
        let db = Db::new();
        db.set("agent:2", vec![2]);
        db.set("agent:1", vec![1]);
        db.set("agent:10", vec![10]);
        db.set("other:1", vec![0]);
        let got = db.scan_prefix("agent:");
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(
            keys,
            vec![&b"agent:1"[..], &b"agent:10"[..], &b"agent:2"[..]]
        );
    }

    #[test]
    fn db_level_i64_helpers_roundtrip_and_interop() {
        let db = Db::new();
        assert_eq!(db.get_i64("w").unwrap(), 0, "absent counts as zero");
        db.set_i64("w", -7);
        assert_eq!(db.get_i64("w").unwrap(), -7);
        // Same encoding as incr and the batched helpers.
        assert_eq!(db.incr("w", 10).unwrap(), 3);
        db.transaction(|txn| {
            txn.set_i64("v", 3);
            Ok(())
        })
        .unwrap();
        assert_eq!(db.get_i64("v").unwrap(), 3);
        db.set("bad", vec![1, 2]);
        assert!(matches!(db.get_i64("bad"), Err(StoreError::Codec(_))));
    }

    #[test]
    fn len_and_clear() {
        let db = Db::new();
        for i in 0..100u32 {
            db.set(format!("k{i}"), i.to_be_bytes().to_vec());
        }
        assert_eq!(db.len(), 100);
        assert!(!db.is_empty());
        db.clear();
        assert!(db.is_empty());
    }

    #[test]
    fn stats_track_operations() {
        let db = Db::new();
        db.set("a", vec![0]);
        db.get("a");
        db.get("b");
        db.incr("c", 1).unwrap();
        let s = db.stats();
        assert_eq!(s.keys, 2);
        assert_eq!(s.gets, 2);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn db_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Db>();
    }

    #[test]
    fn concurrent_incr_is_atomic() {
        use std::sync::Arc;
        let db = Arc::new(Db::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        db.incr("c", 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.incr("c", 0).unwrap(), 8000);
    }
}
