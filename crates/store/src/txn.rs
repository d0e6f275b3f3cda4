use std::cell::Cell;

use bytes::Bytes;
use parking_lot::RwLockWriteGuard;

use crate::codec::{i64_bytes, i64_value};
use crate::db::{key_hash, shard_of_hash, Db, ShardInner, SHARD_COUNT};
use crate::error::StoreError;
use crate::key::Key;

/// Default bound on optimistic retry attempts used by [`Db::transaction`].
///
/// The engine's dependency-graph transactions touch a handful of keys and
/// conflict only when two workers commit overlapping clusters, so in
/// practice one or two attempts suffice; the bound exists to convert a
/// pathological livelock into a reportable error.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 100;

/// Buffers above this many entries are freed when a transaction ends
/// instead of being kept for the thread's next one: a bulk load (initial
/// population, a migrating agent's history) must not pin its high-water
/// mark on every thread that ever ran one.
const RETAINED_ENTRIES: usize = 64;

/// One database read: the key and the version it had (0 = absent).
#[derive(Debug)]
struct Read {
    hash: u64,
    key: Bytes,
    version: u64,
}

#[derive(Debug)]
enum Op {
    Set(Bytes),
    Del,
    /// Add to whatever integer the key holds when the commit applies it.
    Incr(i64),
}

/// One buffered write, in program order.
#[derive(Debug)]
struct Write {
    hash: u64,
    key: Bytes,
    op: Op,
}

impl Write {
    fn is_for(&self, hash: u64, key: &[u8]) -> bool {
        self.hash == hash && self.key.as_ref() == key
    }
}

thread_local! {
    /// The emptied read and write sets of this thread's last transaction.
    static BUFFERS: Cell<(Vec<Read>, Vec<Write>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
}

/// Handle passed to the closure of [`Db::transaction`].
///
/// Reads performed through the handle are recorded in a *read set* together
/// with the version they observed; writes are buffered in a *write set* and
/// published atomically at commit. Reads observe the transaction's own
/// buffered writes (read-your-writes).
///
/// # Representation
///
/// Both sets are flat vectors, appended to in program order and handed
/// from one transaction to the next on the same thread, so a commit of a
/// few keys allocates nothing for its bookkeeping. Every entry carries the
/// key's hash, computed once when the key enters the set: it names the
/// shard, short-circuits key comparisons, and orders the write set at
/// commit.
///
/// Nothing is deduplicated on the way in, which keeps a bulk write of
/// 10⁵ distinct keys linear. A key written twice simply appears twice, so
/// a read looks for the key's *latest* buffered write by scanning the
/// write set backwards — the last write wins, as it will at commit. That
/// scan is linear in the writes buffered so far: transactions that mix
/// reads with writes are expected to hold a handful of keys, as the
/// engine's do. A key read twice is validated twice, which is the same
/// test. At commit the write set is stably sorted by key, so each key's
/// writes become one run whose last member is applied, and
/// [`Txn::write_set_len`] and [`crate::DbStats::writes`] count runs —
/// distinct keys — not calls.
///
/// # Increments
///
/// [`Txn::incr_key`] buffers "add `delta`" without reading the key — Redis
/// `INCRBY` inside `MULTI`, the transactional twin of [`Db::incr`]. The
/// addition happens under the commit locks against whatever integer the
/// key holds at that moment, so it needs no read-set entry and can never
/// cause a conflict: two workers that commit disjoint records and bump one
/// shared counter both succeed first time, and the counter loses nothing.
/// A read-modify-write through [`Txn::get_i64`]/[`Txn::set_i64`] gives the
/// same sum but serializes the workers on that key.
#[derive(Debug)]
pub struct Txn<'db> {
    db: &'db Db,
    reads: Vec<Read>,
    writes: Vec<Write>,
}

impl<'db> Txn<'db> {
    fn new(db: &'db Db) -> Self {
        let (reads, writes) = BUFFERS.take();
        Txn { db, reads, writes }
    }

    /// Reads `key`, recording it in the transaction's read set.
    pub fn get(&mut self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        let key = key.as_ref();
        self.read(key, || Bytes::copy_from_slice(key))
    }

    /// Like [`Txn::get`] for an interned [`Key`]: the key bytes are shared
    /// into the read set instead of copied.
    pub fn get_key(&mut self, key: &Key) -> Option<Bytes> {
        self.read(key.as_ref(), || key.bytes().clone())
    }

    fn read(&mut self, key: &[u8], owned_key: impl FnOnce() -> Bytes) -> Option<Bytes> {
        let hash = key_hash(key);
        let latest = self.writes.iter().rev().find(|w| w.is_for(hash, key));
        let pending = match latest.map(|w| &w.op) {
            Some(Op::Set(value)) => return Some(value.clone()),
            Some(Op::Del) => return None,
            Some(Op::Incr(delta)) => Some(*delta),
            None => None,
        };
        let found = self.db.versioned_get(shard_of_hash(hash), key);
        self.reads.push(Read {
            hash,
            key: owned_key(),
            version: found.as_ref().map_or(0, |(version, _)| *version),
        });
        let value = found.map(|(_, value)| value);
        let Some(delta) = pending else {
            return value;
        };
        // A pending increment on top of what the database holds now. The
        // read just recorded pins that base, so from here on this key can
        // conflict like any other read. A base that is not an integer is
        // returned as it is; the commit reports it.
        match value.as_deref().map_or(Ok(0), i64_value) {
            Ok(base) => Some(Bytes::copy_from_slice(&i64_bytes(base.wrapping_add(delta)))),
            Err(_) => value,
        }
    }

    fn write(&mut self, key: Bytes, op: Op) {
        let hash = key_hash(&key);
        self.writes.push(Write { hash, key, op });
    }

    /// Buffers a write of `value` to `key`.
    pub fn set(&mut self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        self.write(Bytes::copy_from_slice(key.as_ref()), Op::Set(value.into()));
    }

    /// Like [`Txn::set`] for an interned [`Key`]: neither the key nor a
    /// [`Bytes`] value is copied — both are refcount bumps, which is what
    /// keeps the per-record cost of the dependency-graph commit loop flat
    /// across transaction retries.
    pub fn set_key(&mut self, key: &Key, value: impl Into<Bytes>) {
        self.write(key.bytes().clone(), Op::Set(value.into()));
    }

    /// Buffers a deletion of `key`.
    pub fn del(&mut self, key: impl AsRef<[u8]>) {
        self.write(Bytes::copy_from_slice(key.as_ref()), Op::Del);
    }

    /// Buffers "add `delta` to the big-endian `i64` at `key`" (absent
    /// counts as 0, the sum wraps) without reading the key: see
    /// [the type docs](Txn#increments). On top of this transaction's own
    /// buffered write of `key` it folds into that write instead.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if this transaction's buffered value
    /// for `key` is not 8 bytes. If the *stored* value is not, the commit
    /// fails with that error and applies nothing (even when a later write
    /// of this transaction replaces the key: the increment came first).
    pub fn incr_key(&mut self, key: &Key, delta: i64) -> Result<(), StoreError> {
        let hash = key_hash(key.as_ref());
        let mut latest = self.writes.iter_mut().rev();
        let Some(write) = latest.find(|w| w.is_for(hash, key.as_ref())) else {
            self.writes.push(Write {
                hash,
                key: key.bytes().clone(),
                op: Op::Incr(delta),
            });
            return Ok(());
        };
        let sum = |base: i64| Bytes::copy_from_slice(&i64_bytes(base.wrapping_add(delta)));
        write.op = match &write.op {
            Op::Set(value) => Op::Set(sum(i64_value(value)?)),
            Op::Del => Op::Set(sum(0)),
            Op::Incr(earlier) => Op::Incr(earlier.wrapping_add(delta)),
        };
        Ok(())
    }

    /// Reads `key` as a big-endian `i64` (absent counts as 0).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the stored value is not 8 bytes.
    pub fn get_i64(&mut self, key: impl AsRef<[u8]>) -> Result<i64, StoreError> {
        match self.get(key) {
            None => Ok(0),
            Some(v) => i64_value(&v),
        }
    }

    /// Buffers a write of `value` as a big-endian `i64` (the same encoding
    /// as [`crate::Db::set_i64`], via [`crate::codec::i64_bytes`]).
    pub fn set_i64(&mut self, key: impl AsRef<[u8]>, value: i64) {
        self.set(key, Bytes::copy_from_slice(&i64_bytes(value)));
    }

    /// Aborts the transaction with a message; the caller should propagate
    /// the returned error.
    ///
    /// Aborting is not retried: [`Db::transaction`] returns the error to its
    /// caller and discards all buffered writes.
    ///
    /// # Example
    ///
    /// ```
    /// use aim_store::{Db, StoreError};
    /// let db = Db::new();
    /// let r: Result<(), _> = db.transaction(|txn| Err(txn.abort("nothing to do")));
    /// assert!(matches!(r, Err(StoreError::TxnAborted(_))));
    /// ```
    pub fn abort(&mut self, reason: impl Into<String>) -> StoreError {
        StoreError::TxnAborted(reason.into())
    }

    /// Number of distinct keys in the read set (diagnostics; sorts a copy).
    pub fn read_set_len(&self) -> usize {
        distinct(self.reads.iter().map(|r| (r.hash, r.key.as_ref())))
    }

    /// Number of distinct keys in the write set (diagnostics; sorts a copy).
    pub fn write_set_len(&self) -> usize {
        distinct(self.writes.iter().map(|w| (w.hash, w.key.as_ref())))
    }

    /// Attempts to commit: `Ok(true)` on success, `Ok(false)` on a
    /// validation conflict (the caller retries), `Err` if an increment
    /// found a stored value that is not an integer. Only `Ok(true)` has
    /// changed the database.
    fn commit(&mut self) -> Result<bool, StoreError> {
        let db = self.db;
        // Gather each key's writes into one run, in program order within
        // the run (the sort is stable): the last of a run is what counts.
        self.writes
            .sort_by(|a, b| a.hash.cmp(&b.hash).then_with(|| a.key.cmp(&b.key)));
        // Lock every involved shard in index order to stay deadlock-free.
        let involved = (self.reads.iter().map(|r| r.hash))
            .chain(self.writes.iter().map(|w| w.hash))
            .fold(0u32, |mask, hash| mask | 1 << shard_of_hash(hash));
        let mut guards: [Option<RwLockWriteGuard<'_, ShardInner>>; SHARD_COUNT] =
            [const { None }; SHARD_COUNT];
        for (id, guard) in guards.iter_mut().enumerate() {
            if involved & (1 << id) != 0 {
                *guard = Some(db.shards[id].write());
            }
        }
        // Validate the read set under the locks.
        for read in &self.reads {
            let shard = guards[shard_of_hash(read.hash)]
                .as_ref()
                .expect("shard locked");
            let current = shard.map.get(read.key.as_ref()).map_or(0, |e| e.version);
            if current != read.version {
                return Ok(false);
            }
        }
        // Turn each increment into the value it produces, before anything
        // is written: a stored non-integer must fail the whole commit.
        for write in &mut self.writes {
            let Op::Incr(delta) = write.op else {
                continue;
            };
            let shard = guards[shard_of_hash(write.hash)]
                .as_ref()
                .expect("shard locked");
            let base = match shard.map.get(write.key.as_ref()) {
                Some(entry) => i64_value(&entry.value)?,
                None => 0,
            };
            write.op = Op::Set(Bytes::copy_from_slice(&i64_bytes(base.wrapping_add(delta))));
        }
        // Apply the write set.
        let mut applied = 0u64;
        let mut writes = self.writes.drain(..).peekable();
        while let Some(Write { hash, key, op }) = writes.next() {
            if writes.peek().is_some_and(|next| next.is_for(hash, &key)) {
                continue; // overwritten later in this transaction
            }
            applied += 1;
            let shard = guards[shard_of_hash(hash)].as_mut().expect("shard locked");
            match op {
                Op::Set(value) => shard.put(&key, || key.clone(), value),
                Op::Del => {
                    shard.bump();
                    shard.map.remove(key.as_ref());
                }
                Op::Incr(_) => unreachable!("increments were resolved above"),
            }
        }
        db.note_write(applied);
        Ok(true)
    }
}

impl Drop for Txn<'_> {
    /// Hands the emptied sets to this thread's next transaction.
    fn drop(&mut self) {
        fn emptied<T>(set: &mut Vec<T>) -> Vec<T> {
            set.clear();
            if set.capacity() > RETAINED_ENTRIES {
                return Vec::new();
            }
            std::mem::take(set)
        }
        let sets = (emptied(&mut self.reads), emptied(&mut self.writes));
        // Fails only while the thread's locals are being torn down.
        let _ = BUFFERS.try_with(|slot| slot.set(sets));
    }
}

fn distinct<'a>(keys: impl Iterator<Item = (u64, &'a [u8])>) -> usize {
    let mut keys: Vec<_> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Waits a little after the `conflicts`-th consecutive conflict.
///
/// Without it, writers contending for one key behind a queueing lock can
/// convoy: every loser re-reads at once and queues again behind whoever
/// will commit next, so its read is stale before it gets its turn, and the
/// same thread can lose every one of its attempts. Yielding takes the
/// losers out of the queue; the spin, which grows with the losing streak
/// up to a few microseconds, spreads their next reads apart.
fn back_off(conflicts: u32) {
    std::thread::yield_now();
    for _ in 0..(1u32 << conflicts.min(8)) {
        std::hint::spin_loop();
    }
}

pub(crate) fn run<T>(
    db: &Db,
    max_attempts: u32,
    mut body: impl FnMut(&mut Txn<'_>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    use std::sync::atomic::Ordering;
    let max_attempts = max_attempts.max(1);
    let mut txn = Txn::new(db);
    for attempt in 1..=max_attempts {
        let out = body(&mut txn)?;
        if txn.commit()? {
            db.txn_commits.fetch_add(1, Ordering::Relaxed);
            return Ok(out);
        }
        db.txn_conflicts.fetch_add(1, Ordering::Relaxed);
        txn.reads.clear();
        txn.writes.clear();
        if attempt < max_attempts {
            back_off(attempt);
        }
    }
    Err(StoreError::TxnConflict {
        attempts: max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_your_writes() {
        let db = Db::new();
        db.transaction(|txn| {
            assert!(txn.get("k").is_none());
            txn.set("k", vec![7]);
            assert_eq!(txn.get("k").as_deref(), Some(&[7u8][..]));
            txn.del("k");
            assert!(txn.get("k").is_none());
            Ok(())
        })
        .unwrap();
        assert!(!db.contains("k"));
    }

    #[test]
    fn commit_publishes_atomically() {
        let db = Db::new();
        db.transaction(|txn| {
            txn.set("a", vec![1]);
            txn.set("b", vec![2]);
            Ok(())
        })
        .unwrap();
        assert_eq!(db.get("a").as_deref(), Some(&[1u8][..]));
        assert_eq!(db.get("b").as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn conflict_retries_and_succeeds() {
        let db = Arc::new(Db::new());
        db.set_i64_for_tests("c", 0);
        // Two threads transactionally increment the same key many times; the
        // final value must equal the total number of increments.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        db.transaction(|txn| {
                            let v = txn.get_i64("c")?;
                            txn.set_i64("c", v + 1);
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = db.transaction(|txn| txn.get_i64("c")).unwrap();
        assert_eq!(v, 2000);
    }

    #[test]
    fn disjoint_commits_bumping_one_counter_never_conflict() {
        // The dependency graph's commit shape from two workers at once:
        // each writes its own record and bumps the shared counter. Through
        // `incr_key` the counter is no read, so nobody ever retries —
        // the same program doing get_i64/set_i64 on it records conflicts.
        let db = Arc::new(Db::new());
        let counter = Key::new("dep:commits");
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2u32)
            .map(|t| {
                let (db, counter, start) = (Arc::clone(&db), counter.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let record = Key::tagged_u32(*b"dagt", t);
                    start.wait();
                    for i in 0..2_000u32 {
                        db.transaction(|txn| {
                            txn.set_key(&record, i.to_be_bytes().to_vec());
                            txn.incr_key(&counter, 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.get_i64(&counter).unwrap(), 4_000);
        let stats = db.stats();
        assert_eq!(stats.txn_conflicts, 0);
        assert_eq!(stats.txn_commits, 4_000);
        assert_eq!(stats.writes, 8_000);
    }

    #[test]
    fn increment_composes_with_buffered_writes_and_reads() {
        let db = Db::new();
        let (a, b, c, d) = (Key::new("a"), Key::new("b"), Key::new("c"), Key::new("d"));
        db.set_i64("a", 10);
        db.set_i64("d", 1);
        db.transaction(|txn| {
            txn.incr_key(&a, 1)?;
            txn.incr_key(&a, 2)?; // folds into the pending increment
            assert_eq!(txn.read_set_len(), 0, "an increment reads nothing");
            assert_eq!(txn.get_i64("a")?, 13, "stored 10 plus pending 3");
            assert_eq!(txn.read_set_len(), 1, "reading through it does");
            txn.set_i64("b", 5);
            txn.incr_key(&b, -7)?; // folds into the buffered set
            assert_eq!(txn.get_i64("b")?, -2);
            txn.incr_key(&c, 4)?; // absent counts as 0
            txn.del("d");
            txn.incr_key(&d, 9)?; // deleted counts as 0 too
            assert_eq!(txn.write_set_len(), 4);
            Ok(())
        })
        .unwrap();
        let stored = |k: &Key| db.get_i64(k).unwrap();
        assert_eq!(
            (stored(&a), stored(&b), stored(&c), stored(&d)),
            (13, -2, 4, 9)
        );
    }

    #[test]
    fn increment_of_a_non_integer_fails_the_commit_whole() {
        let db = Db::new();
        db.set("text", b"abc".to_vec());
        let text = Key::new("text");
        let r = db.transaction(|txn| {
            txn.set("other", vec![1]);
            txn.incr_key(&text, 1)
        });
        assert!(matches!(r, Err(StoreError::Codec(_))));
        assert!(!db.contains("other"), "nothing of the transaction landed");
        assert_eq!(db.get("text").as_deref(), Some(&b"abc"[..]));
        // Caught while buffering when the bad value is the transaction's own.
        let r = db.transaction(|txn| {
            txn.set("text", vec![1, 2]);
            txn.incr_key(&text, 1)
        });
        assert!(matches!(r, Err(StoreError::Codec(_))));
        assert_eq!(db.stats().txn_commits, 0);
    }

    #[test]
    fn last_write_to_a_key_wins_and_counts_once() {
        let db = Db::new();
        db.set("gone", vec![0]);
        let before = db.stats().writes;
        db.transaction(|txn| {
            txn.set("k", vec![1]);
            txn.set("gone", vec![5]);
            txn.set("k", vec![2]);
            txn.del("gone");
            txn.del("k");
            txn.set("k", vec![3]);
            assert_eq!(txn.write_set_len(), 2);
            Ok(())
        })
        .unwrap();
        assert_eq!(db.get("k").as_deref(), Some(&[3u8][..]));
        assert!(!db.contains("gone"));
        assert_eq!(db.stats().writes - before, 2, "distinct keys, not calls");
    }

    #[test]
    fn absent_read_is_validated() {
        // A transaction that read "absent" must conflict if the key appears.
        let db = Db::new();
        let mut first = true;
        let result = db.transaction_with_retries(2, |txn| {
            let _ = txn.get("k");
            if first {
                first = false;
                // Simulate a concurrent writer between read and commit.
                db.set("k", vec![9]);
            }
            txn.set("other", vec![1]);
            Ok(())
        });
        // Second attempt sees the key and commits cleanly.
        assert!(result.is_ok());
        assert_eq!(db.stats().txn_conflicts, 1);
    }

    #[test]
    fn user_error_is_not_retried() {
        let db = Db::new();
        let mut calls = 0;
        let r: Result<(), StoreError> = db.transaction(|txn| {
            calls += 1;
            Err(txn.abort("stop"))
        });
        assert!(matches!(r, Err(StoreError::TxnAborted(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn conflict_error_after_max_attempts() {
        let db = Db::new();
        db.set("k", vec![0]);
        let r: Result<(), StoreError> = db.transaction_with_retries(3, |txn| {
            let _ = txn.get("k");
            // Always invalidate our own read before commit.
            db.set("k", vec![1]);
            Ok(())
        });
        assert_eq!(r, Err(StoreError::TxnConflict { attempts: 3 }));
    }

    #[test]
    fn read_and_write_set_sizes() {
        let db = Db::new();
        db.set("a", vec![1]);
        db.transaction(|txn| {
            txn.get("a");
            txn.get("missing");
            txn.set("b", vec![2]);
            assert_eq!(txn.read_set_len(), 2);
            assert_eq!(txn.write_set_len(), 1);
            Ok(())
        })
        .unwrap();
    }

    impl Db {
        fn set_i64_for_tests(&self, key: &str, v: i64) {
            self.set(key, v.to_be_bytes().to_vec());
        }
    }
}
