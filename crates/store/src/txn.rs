use std::cell::Cell;

use bytes::Bytes;

use crate::blob::Blob;
use crate::codec::{i64_bytes, i64_value};
use crate::db::{key_hash, Db};
use crate::error::StoreError;
use crate::key::Key;

/// Buffers above this many bytes are freed when a batch ends instead of
/// being kept for the thread's next one: a bulk load (initial population,
/// a migrating agent's history) must not pin its high-water mark on every
/// thread that ever ran one. 32 KiB holds 409 entries, so the buffer of a
/// write-behind window — 32 calls, about 80 writes on a `dist` worker —
/// is kept from one batch to the next.
const RETAINED_BYTES: usize = 32 << 10;

#[derive(Debug)]
enum Op {
    Set(Blob),
    Del,
    /// Add to whatever integer the key holds when the commit applies it.
    Incr(i64),
}

/// One buffered write.
#[derive(Debug)]
struct Write {
    hash: u64,
    /// Its place in program order.
    seq: u32,
    key: Blob,
    op: Op,
}

impl Write {
    fn is_for(&self, hash: u64, key: &[u8]) -> bool {
        self.hash == hash && self.key.as_slice() == key
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
/// from one batch to the next on the same thread (up to 32 KiB of
/// entries, a write-behind window's worth), so a batch allocates nothing
/// for its bookkeeping. Each entry holds its key and value the way the
/// map does: inline up to 22 bytes, a shared [`Bytes`] above. So a batch
/// of short keys and values written through [`Txn::set_slice`] — every
/// record the engine writes — allocates nothing at all, and its commit
/// moves the entries into the map as they are. Every entry carries the
/// key's hash, computed once when the key enters the batch: it
/// short-circuits key comparisons and orders the batch at commit.
///
/// Nothing is deduplicated on the way in, which keeps a bulk write of
/// 10⁵ distinct keys linear. A key written twice simply appears twice. At
/// commit the batch is sorted in place by key, then by program order, so
/// each key's writes become one run whose last member is applied, and
/// [`crate::DbStats::writes`] counts runs — distinct keys — not calls.
///
/// # Increments
///
/// [`Txn::incr_key`] buffers "add `delta`" without reading the key — Redis
/// `INCRBY` inside `MULTI`, the batched twin of [`Db::incr`]. The addition
/// happens under the commit lock against whatever integer the key holds
/// at that moment, so two batches that bump one shared counter lose
/// nothing.
#[derive(Debug)]
pub struct Txn {
    writes: Vec<Write>,
}

impl Txn {
    fn write(&mut self, key: Blob, op: Op) {
        let hash = key_hash(key.as_slice());
        let seq = self.writes.len() as u32;
        self.writes.push(Write { hash, seq, key, op });
    }

    /// Buffers a write of `value` to `key`.
    pub fn set(&mut self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        let key = Blob::copy_from_slice(key.as_ref());
        self.write(key, Op::Set(Blob::from_bytes(value.into())));
    }

    /// Buffers a write of a copy of `value` to `key`: the slice write. A
    /// key and value of at most 22 bytes each are held inline, so the
    /// write allocates nothing; a caller can build both on the stack or
    /// in reused scratch.
    pub fn set_slice(&mut self, key: impl AsRef<[u8]>, value: &[u8]) {
        let key = Blob::copy_from_slice(key.as_ref());
        self.write(key, Op::Set(Blob::copy_from_slice(value)));
    }

    /// Like [`Txn::set`] for an interned [`Key`]: a long key or [`Bytes`]
    /// value is shared, not copied (a short one is held inline).
    pub fn set_key(&mut self, key: &Key, value: impl Into<Bytes>) {
        let key = Blob::from_shared(key.bytes());
        self.write(key, Op::Set(Blob::from_bytes(value.into())));
    }

    /// Buffers a deletion of `key`.
    pub fn del(&mut self, key: impl AsRef<[u8]>) {
        self.write(Blob::copy_from_slice(key.as_ref()), Op::Del);
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
                seq: self.writes.len() as u32,
                key: Blob::from_shared(key.bytes()),
                op: Op::Incr(delta),
            });
            return Ok(());
        };
        let sum = |base: i64| Blob::copy_from_slice(&i64_bytes(base.wrapping_add(delta)));
        write.op = match &write.op {
            Op::Set(value) => Op::Set(sum(i64_value(value.as_slice())?)),
            Op::Del => Op::Set(sum(0)),
            Op::Incr(earlier) => Op::Incr(earlier.wrapping_add(delta)),
        };
        Ok(())
    }

    /// Buffers a write of `value` as a big-endian `i64` (the same encoding
    /// as [`crate::Db::set_i64`], via [`crate::codec::i64_bytes`]).
    pub fn set_i64(&mut self, key: impl AsRef<[u8]>, value: i64) {
        self.set_slice(key, &i64_bytes(value));
    }

    /// Publishes the batch. `Err` if an increment found a stored value
    /// that is not an integer, in which case nothing was applied.
    fn commit(&mut self, db: &Db) -> Result<(), StoreError> {
        // Gather each key's writes into one run, in program order within
        // the run: the last of a run is what counts. The sort is in place
        // (a stable sort would allocate a merge buffer for a batch of more
        // than about 50 writes), ordered by program order within a run.
        self.writes.sort_unstable_by(|a, b| {
            (a.hash.cmp(&b.hash))
                .then_with(|| a.key.as_slice().cmp(b.key.as_slice()))
                .then(a.seq.cmp(&b.seq))
        });
        let mut map = db.map.write();
        // Turn each increment into the value it produces, before anything
        // is written: a stored non-integer must fail the whole commit.
        for write in &mut self.writes {
            let Op::Incr(delta) = write.op else {
                continue;
            };
            let base = match map.get(write.key.as_slice()) {
                Some(value) => i64_value(value.as_slice())?,
                None => 0,
            };
            write.op = Op::Set(Blob::copy_from_slice(&i64_bytes(base.wrapping_add(delta))));
        }
        let mut applied = 0u64;
        let mut writes = self.writes.drain(..).peekable();
        while let Some(Write { hash, key, op, .. }) = writes.next() {
            if writes
                .peek()
                .is_some_and(|next| next.is_for(hash, key.as_slice()))
            {
                continue; // overwritten later in this batch
            }
            applied += 1;
            match op {
                Op::Set(value) => {
                    map.insert(key, value);
                }
                Op::Del => {
                    map.remove(key.as_slice());
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
        if self.writes.capacity() * std::mem::size_of::<Write>() > RETAINED_BYTES {
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
