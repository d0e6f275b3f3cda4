use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::StoreError;
use crate::txn::{self, Txn};

/// Number of independent shards; a power of two so the shard index is a
/// cheap mask of the key hash. Sixteen keeps lock contention negligible for
/// the worker counts used by the engine (≤ CPU count) without bloating the
/// structure.
pub(crate) const SHARD_COUNT: usize = 16;

/// The store's one key hash: a multiply-fold over the key bytes, eight at
/// a time (the `CellKeyHasher` idea of `aim-core`'s grid index, widened to
/// the full 128-bit product so high input bytes reach the low output bits).
///
/// It picks the shard ([`Db::shard_index`]) and is the hasher of every
/// shard map, so a key costs two or three multiplies. Every byte and the
/// length are mixed: the engine's keys are
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

/// Hashes `key` exactly as the shard maps do (length prefix included), so
/// a transaction can compute it once and use it for the shard, for
/// comparing buffered keys, and for ordering its write set.
#[inline]
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    BuildHasherDefault::<KeyHasher>::default().hash_one(key)
}

/// Shard of a key whose [`key_hash`] is `hash`. Bits 32–35: the maps use
/// the low bits for the bucket and the top seven for the control tag, and
/// all keys of one shard share these.
#[inline]
pub(crate) fn shard_of_hash(hash: u64) -> usize {
    (hash >> 32) as usize & (SHARD_COUNT - 1)
}

/// One shard's keys and values.
pub(crate) type Shard = HashMap<Bytes, Bytes, BuildHasherDefault<KeyHasher>>;

/// Stores `value` at `key`, overwriting an existing value in place: the
/// key is only copied when it is new to the shard.
fn put(shard: &mut Shard, key: &[u8], value: Bytes) {
    match shard.get_mut(key) {
        Some(slot) => *slot = value,
        None => {
            shard.insert(Bytes::copy_from_slice(key), value);
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

/// A sharded, in-memory key-value store.
///
/// `Db` is the embedded stand-in for the Redis instance the AI Metropolis
/// paper uses to hold the dependency graph and simulation state (§3.3,
/// §3.6). It is cheap to share: clone an `Arc<Db>` or borrow it; all methods
/// take `&self`.
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
    pub(crate) shards: Vec<RwLock<Shard>>,
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
        Db {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            gets: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            txn_commits: AtomicU64::new(0),
        }
    }

    /// Index (`0..16`) of the shard that holds `key`.
    ///
    /// Computed from the store's fixed multiply-fold key hash — the same
    /// function the shard maps use, which mixes every key byte and the
    /// length, so sequential ids spread evenly. Public so tests can check
    /// that spread; it is a placement function and nothing more. It is
    /// not stable across versions of this crate (never persist it — a
    /// snapshot stores keys, not shards) and it is not collision-resistant
    /// (never use it to fingerprint or authenticate a key).
    pub fn shard_index(key: &[u8]) -> usize {
        shard_of_hash(key_hash(key))
    }

    /// Returns the value stored at `key`, if any.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let key = key.as_ref();
        let shard = self.shards[Self::shard_index(key)].read();
        shard.get(key).cloned()
    }

    /// Stores `value` at `key`, replacing any previous value.
    pub fn set(&self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let key = key.as_ref();
        let value = value.into();
        put(&mut self.shards[Self::shard_index(key)].write(), key, value);
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn del(&self, key: impl AsRef<[u8]>) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let key = key.as_ref();
        self.shards[Self::shard_index(key)]
            .write()
            .remove(key)
            .is_some()
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        let key = key.as_ref();
        self.shards[Self::shard_index(key)].read().contains_key(key)
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
        let mut shard = self.shards[Self::shard_index(key_ref)].write();
        let cur = match shard.get(key_ref) {
            None => 0,
            Some(value) => crate::codec::i64_value(value)?,
        };
        let next = cur.wrapping_add(delta);
        put(
            &mut shard,
            key_ref,
            Bytes::copy_from_slice(&crate::codec::i64_bytes(next)),
        );
        Ok(next)
    }

    /// Returns all `(key, value)` pairs whose key starts with `prefix`,
    /// sorted by key.
    ///
    /// Scans are *not* atomic: a concurrent [`Db::transaction`] may be
    /// observed partially. Large scans that only need to *visit* records
    /// should prefer [`Db::for_each_prefix`], which does not materialize
    /// the value handles up front.
    pub fn scan_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<(Bytes, Bytes)> {
        let prefix = prefix.as_ref();
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (k, v) in shard.iter() {
                if k.starts_with(prefix) {
                    out.push((k.clone(), v.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Visits every `(key, value)` pair whose key starts with `prefix`, in
    /// ascending key order, without materializing the result set.
    ///
    /// Only the (refcounted) key handles are gathered up front — an
    /// unavoidable O(total keys) sweep of the hash-sharded store plus a
    /// sort of the matches; each *value* is then fetched one at a time
    /// while `f` runs, and no shard lock is held during the callback, so
    /// `f` may freely read or write the database. Returning
    /// [`std::ops::ControlFlow::Break`] stops the walk early, skipping
    /// the remaining value fetches and callback work (the key gather has
    /// already happened). What this buys over [`Db::scan_prefix`] is
    /// peak memory — O(matching keys) handles instead of O(matching)
    /// key+value pairs held alive at once — not asymptotic scan cost.
    ///
    /// Like [`Db::scan_prefix`] the walk is not transactional: pairs
    /// deleted between the key gather and their visit are skipped, and
    /// concurrent writes may or may not be observed. The snapshot writer
    /// calls this from a quiesced controller thread, where the scan is
    /// exact.
    pub fn for_each_prefix(
        &self,
        prefix: impl AsRef<[u8]>,
        mut f: impl FnMut(&Bytes, &Bytes) -> std::ops::ControlFlow<()>,
    ) {
        let prefix = prefix.as_ref();
        let mut keys: Vec<Bytes> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for k in shard.keys() {
                if k.starts_with(prefix) {
                    keys.push(k.clone());
                }
            }
        }
        keys.sort_unstable();
        for k in keys {
            // Uncounted read: the scan is instrumentation-neutral so a
            // checkpoint pass does not distort the `gets` counter.
            let value = {
                let shard = self.shards[Self::shard_index(&k)].read();
                match shard.get(&k) {
                    Some(v) => v.clone(),
                    None => continue, // deleted since the key gather
                }
            };
            if f(&k, &value).is_break() {
                return;
            }
        }
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
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Returns `true` if the database holds no keys.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Removes every key.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
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
    /// The batch's writes become visible together: its shards are
    /// write-locked in ascending order, each increment is resolved against
    /// the integer the key holds under those locks, and the last write of
    /// each key is applied. If `body` or an increment fails, nothing is
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
    fn for_each_prefix_streams_in_order_and_breaks() {
        let db = Db::new();
        for i in 0..50u32 {
            db.set(format!("h:{i:04}"), i.to_be_bytes().to_vec());
        }
        db.set("other", vec![1]);
        let mut seen = Vec::new();
        db.for_each_prefix("h:", |k, v| {
            seen.push((k.clone(), v.clone()));
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
        assert_eq!(seen, db.scan_prefix("h:"), "same pairs as scan_prefix");
        // Early termination visits only the requested range.
        let mut visited = 0;
        db.for_each_prefix("h:", |_, _| {
            visited += 1;
            if visited == 7 {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        });
        assert_eq!(visited, 7);
    }

    #[test]
    fn for_each_prefix_skips_keys_deleted_mid_walk() {
        let db = Db::new();
        db.set("p:a", vec![1]);
        db.set("p:b", vec![2]);
        db.set("p:c", vec![3]);
        let mut seen = Vec::new();
        db.for_each_prefix("p:", |k, _| {
            if k.as_ref() == b"p:a" {
                db.del("p:b"); // the callback may write; b vanishes
            }
            seen.push(k.clone());
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].as_ref(), b"p:a");
        assert_eq!(seen[1].as_ref(), b"p:c");
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
