use std::cell::Cell;

use bytes::Bytes;
use parking_lot::RwLockWriteGuard;

use crate::codec::{i64_bytes, i64_value};
use crate::db::{key_hash, shard_of_hash, Db, Shard, SHARD_COUNT};
use crate::error::StoreError;
use crate::key::Key;

/// Buffers above this many entries are freed when a batch ends instead of
/// being kept for the thread's next one: a bulk load (initial population,
/// a migrating agent's history) must not pin its high-water mark on every
/// thread that ever ran one.
const RETAINED_ENTRIES: usize = 64;

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
    /// The emptied write buffer of this thread's last batch.
    static BUFFER: Cell<Vec<Write>> = const { Cell::new(Vec::new()) };
}

/// An atomic write batch: the handle passed to the closure of
/// [`Db::transaction`].
///
/// Writes are buffered and published together when the closure returns
/// `Ok`; nothing is visible before, and a batch whose closure or commit
/// fails applies nothing. The handle cannot read: every caller in the
/// engine writes records it already holds, and a `Db` has one writer (the
/// controller thread, or one `dist` worker), so there is nothing a read
/// could be validated against.
///
/// # Representation
///
/// The batch is a flat vector, appended to in program order and handed
/// from one batch to the next on the same thread, so a commit of a few
/// keys allocates nothing for its bookkeeping. Every entry carries the
/// key's hash, computed once when the key enters the batch: it names the
/// shard, short-circuits key comparisons, and orders the batch at commit.
///
/// Nothing is deduplicated on the way in, which keeps a bulk write of
/// 10⁵ distinct keys linear. A key written twice simply appears twice. At
/// commit the batch is stably sorted by key, so each key's writes become
/// one run whose last member is applied, and [`crate::DbStats::writes`]
/// counts runs — distinct keys — not calls.
///
/// # Increments
///
/// [`Txn::incr_key`] buffers "add `delta`" without reading the key — Redis
/// `INCRBY` inside `MULTI`, the batched twin of [`Db::incr`]. The addition
/// happens under the commit locks against whatever integer the key holds
/// at that moment, so two batches that bump one shared counter lose
/// nothing.
#[derive(Debug)]
pub struct Txn {
    writes: Vec<Write>,
}

impl Txn {
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
    /// keeps the per-record cost of the dependency-graph commit loop flat.
    pub fn set_key(&mut self, key: &Key, value: impl Into<Bytes>) {
        self.write(key.bytes().clone(), Op::Set(value.into()));
    }

    /// Buffers a deletion of `key`.
    pub fn del(&mut self, key: impl AsRef<[u8]>) {
        self.write(Bytes::copy_from_slice(key.as_ref()), Op::Del);
    }

    /// Buffers "add `delta` to the big-endian `i64` at `key`" (absent
    /// counts as 0, the sum wraps) without reading the key: see
    /// [the type docs](Txn#increments). On top of this batch's own
    /// buffered write of `key` it folds into that write instead.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if this batch's buffered value for
    /// `key` is not 8 bytes. If the *stored* value is not, the commit
    /// fails with that error and applies nothing (even when a later write
    /// of this batch replaces the key: the increment came first).
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

    /// Buffers a write of `value` as a big-endian `i64` (the same encoding
    /// as [`crate::Db::set_i64`], via [`crate::codec::i64_bytes`]).
    pub fn set_i64(&mut self, key: impl AsRef<[u8]>, value: i64) {
        self.set(key, Bytes::copy_from_slice(&i64_bytes(value)));
    }

    /// Publishes the batch. `Err` if an increment found a stored value
    /// that is not an integer, in which case nothing was applied.
    fn commit(&mut self, db: &Db) -> Result<(), StoreError> {
        // Gather each key's writes into one run, in program order within
        // the run (the sort is stable): the last of a run is what counts.
        self.writes
            .sort_by(|a, b| a.hash.cmp(&b.hash).then_with(|| a.key.cmp(&b.key)));
        // Lock every involved shard in index order to stay deadlock-free.
        let involved = self
            .writes
            .iter()
            .fold(0u32, |mask, w| mask | 1 << shard_of_hash(w.hash));
        let mut guards: [Option<RwLockWriteGuard<'_, Shard>>; SHARD_COUNT] =
            [const { None }; SHARD_COUNT];
        for (id, guard) in guards.iter_mut().enumerate() {
            if involved & (1 << id) != 0 {
                *guard = Some(db.shards[id].write());
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
            let base = match shard.get(write.key.as_ref()) {
                Some(value) => i64_value(value)?,
                None => 0,
            };
            write.op = Op::Set(Bytes::copy_from_slice(&i64_bytes(base.wrapping_add(delta))));
        }
        let mut applied = 0u64;
        let mut writes = self.writes.drain(..).peekable();
        while let Some(Write { hash, key, op }) = writes.next() {
            if writes.peek().is_some_and(|next| next.is_for(hash, &key)) {
                continue; // overwritten later in this batch
            }
            applied += 1;
            let shard = guards[shard_of_hash(hash)].as_mut().expect("shard locked");
            match op {
                Op::Set(value) => {
                    shard.insert(key, value);
                }
                Op::Del => {
                    shard.remove(key.as_ref());
                }
                Op::Incr(_) => unreachable!("increments were resolved above"),
            }
        }
        db.note_commit(applied);
        Ok(())
    }
}

impl Drop for Txn {
    /// Hands the emptied buffer to this thread's next batch.
    fn drop(&mut self) {
        self.writes.clear();
        if self.writes.capacity() > RETAINED_ENTRIES {
            return;
        }
        let writes = std::mem::take(&mut self.writes);
        // Fails only while the thread's locals are being torn down.
        let _ = BUFFER.try_with(|slot| slot.set(writes));
    }
}

pub(crate) fn run<T>(
    db: &Db,
    body: impl FnOnce(&mut Txn) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let mut txn = Txn {
        writes: BUFFER.take(),
    };
    let out = body(&mut txn)?;
    txn.commit(db)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn disjoint_commits_bumping_one_counter_never_conflict() {
        // The dependency graph's commit shape from two writers at once:
        // each writes its own record and bumps the shared counter.
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
            Ok(())
        })
        .unwrap();
        assert_eq!(db.get("k").as_deref(), Some(&[3u8][..]));
        assert!(!db.contains("gone"));
        assert_eq!(db.stats().writes - before, 2, "distinct keys, not calls");
    }

    #[test]
    fn user_error_is_not_retried() {
        let db = Db::new();
        let mut runs = 0;
        let r: Result<(), StoreError> = db.transaction(|txn| {
            runs += 1;
            txn.set("k", vec![1]);
            Err(StoreError::TxnAborted("stop".into()))
        });
        assert!(matches!(r, Err(StoreError::TxnAborted(_))));
        assert_eq!(runs, 1);
        assert!(!db.contains("k"));
        assert_eq!(db.stats().txn_commits, 0);
    }
}
