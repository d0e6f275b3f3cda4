//! Model-based property tests: the store behaves like a HashMap, the
//! priority queue like a stable sort, a write batch like a `BTreeMap`
//! edited in place, and concurrent batches lose no increment.

use aim_store::{Db, Key, PriorityQueue, Snapshot, SnapshotBuilder};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
enum Op {
    Set(u8, Vec<u8>),
    Del(u8),
    Incr(u8, i16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..8))
            .prop_map(|(k, v)| Op::Set(k, v)),
        any::<u8>().prop_map(Op::Del),
        (any::<u8>(), any::<i16>()).prop_map(|(k, d)| Op::Incr(k, d)),
    ]
}

/// One write of a batch. Keys come from a six-letter alphabet so that
/// double writes, delete-then-set and increments of buffered values all
/// occur; values are integers so an increment always applies.
#[derive(Debug, Clone)]
enum TxnOp {
    Set(u8, i64),
    SetKey(u8, i64),
    Del(u8),
    Incr(u8, i16),
}

fn arb_txn_op() -> impl Strategy<Value = TxnOp> {
    let key = 0u8..6;
    prop_oneof![
        (key.clone(), any::<i64>()).prop_map(|(k, v)| TxnOp::Set(k, v)),
        (key.clone(), any::<i64>()).prop_map(|(k, v)| TxnOp::SetKey(k, v)),
        key.clone().prop_map(TxnOp::Del),
        (key, any::<i16>()).prop_map(|(k, d)| TxnOp::Incr(k, d)),
    ]
}

fn txn_key(k: u8) -> [u8; 2] {
    [b'k', k]
}

/// Wall time of one batch writing `n` distinct history-shaped keys
/// (best of three, on a fresh database each time).
fn bulk_write_time(n: u32) -> Duration {
    let keys: Vec<Key> = (0..n)
        .map(|i| Key::tagged_u32_pair(*b"dhst", i / 100, i % 100))
        .collect();
    let value = bytes::Bytes::copy_from_slice(&[7u8; 12]);
    (0..3)
        .map(|_| {
            let db = Db::new();
            let t0 = Instant::now();
            db.transaction(|txn| {
                for key in &keys {
                    txn.set_key(key, value.clone());
                }
                Ok(())
            })
            .unwrap();
            let took = t0.elapsed();
            assert_eq!(db.len(), n as usize);
            assert_eq!(db.stats().writes, u64::from(n));
            took
        })
        .min()
        .expect("three runs")
}

/// A batch appends and sorts; nothing in it may compare
/// each key against every other (initial population writes 2n + 2 keys,
/// a `dist` migration ships an agent's whole history).
#[test]
fn bulk_write_transaction_is_near_linear() {
    let (small, large) = (bulk_write_time(100_000), bulk_write_time(200_000));
    assert!(
        large < small * 4,
        "2x the keys took {large:?} against {small:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A batch behaves like the same edits made to a `BTreeMap`: what it
    /// commits, and the distinct keys it adds to `DbStats::writes`. With
    /// `outside`, another write lands after the batch was filled and
    /// before it commits; the batch lands on top of it, so its own writes
    /// win and its increments add to the outside value.
    #[test]
    fn txn_matches_btreemap_model(
        initial in proptest::collection::vec((0u8..6, any::<i64>()), 0..6),
        ops in proptest::collection::vec(arb_txn_op(), 0..40),
        outside in (0u8..6, any::<i64>()),
        conflict in any::<bool>(),
    ) {
        let db = Db::new();
        let mut model: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
        for &(k, v) in &initial {
            db.set_i64(txn_key(k), v);
            model.insert(txn_key(k).to_vec(), v);
        }
        if conflict {
            model.insert(txn_key(outside.0).to_vec(), outside.1);
        }
        let mut written = BTreeSet::new();
        for op in &ops {
            match *op {
                TxnOp::Set(k, v) | TxnOp::SetKey(k, v) => {
                    model.insert(txn_key(k).to_vec(), v);
                    written.insert(k);
                }
                TxnOp::Del(k) => {
                    model.remove(&txn_key(k)[..]);
                    written.insert(k);
                }
                TxnOp::Incr(k, d) => {
                    let slot = model.entry(txn_key(k).to_vec()).or_insert(0);
                    *slot = slot.wrapping_add(i64::from(d));
                    written.insert(k);
                }
            }
        }

        let before = db.stats();
        let mut runs = 0;
        db.transaction(|txn| {
            runs += 1;
            for op in &ops {
                match *op {
                    TxnOp::Set(k, v) => txn.set_i64(txn_key(k), v),
                    TxnOp::SetKey(k, v) => {
                        txn.set_key(&Key::new(&txn_key(k)[..]), v.to_be_bytes().to_vec());
                    }
                    TxnOp::Del(k) => txn.del(txn_key(k)),
                    TxnOp::Incr(k, d) => {
                        txn.incr_key(&Key::new(&txn_key(k)[..]), i64::from(d))?;
                    }
                }
            }
            if conflict {
                db.set_i64(txn_key(outside.0), outside.1);
            }
            Ok(())
        }).unwrap();

        prop_assert_eq!(runs, 1);
        let after = db.stats();
        prop_assert_eq!(after.txn_conflicts, 0);
        prop_assert_eq!(after.txn_commits - before.txn_commits, 1);
        prop_assert_eq!(
            after.writes - before.writes,
            (written.len() + usize::from(conflict)) as u64
        );
        let committed: BTreeMap<Vec<u8>, i64> = db
            .scan_prefix("")
            .into_iter()
            .map(|(k, v)| (k.to_vec(), i64::from_be_bytes(v.as_ref().try_into().unwrap())))
            .collect();
        prop_assert_eq!(committed, model);
    }

    /// Db point operations match a HashMap model (incr keys are kept in a
    /// disjoint namespace so type confusion cannot arise).
    #[test]
    fn db_matches_hashmap_model(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let db = Db::new();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        let mut counters: HashMap<String, i64> = HashMap::new();
        for op in ops {
            match op {
                Op::Set(k, v) => {
                    let key = format!("kv:{k}");
                    db.set(&key, v.clone());
                    model.insert(key, v);
                }
                Op::Del(k) => {
                    let key = format!("kv:{k}");
                    let was = db.del(&key);
                    prop_assert_eq!(was, model.remove(&key).is_some());
                }
                Op::Incr(k, d) => {
                    let key = format!("ctr:{k}");
                    let got = db.incr(&key, d as i64).unwrap();
                    let c = counters.entry(key).or_insert(0);
                    *c += d as i64;
                    prop_assert_eq!(got, *c);
                }
            }
        }
        for (k, v) in &model {
            let got = db.get(k);
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        prop_assert_eq!(db.len(), model.len() + counters.len());
    }

    /// Pops come out sorted by (priority, insertion order).
    #[test]
    fn priority_queue_is_stable_sort(items in proptest::collection::vec(0u64..10, 0..100)) {
        let q = PriorityQueue::new();
        for (i, p) in items.iter().enumerate() {
            q.push(*p, i).unwrap();
        }
        let mut expect: Vec<(u64, usize)> =
            items.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        expect.sort();
        let mut got = Vec::new();
        while let Some(i) = q.try_pop() {
            got.push((items[i], i));
        }
        prop_assert_eq!(got, expect);
    }

    /// AIMSNAP v1 roundtrips any database byte-for-byte: restoring a
    /// snapshot and snapshotting again yields the identical stream, and
    /// the restored contents equal the original exactly. Sections ride
    /// along unchanged.
    #[test]
    fn snapshot_restore_roundtrips_byte_for_byte(
        pairs in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..12),
                proptest::collection::vec(any::<u8>(), 0..16),
            ),
            0..64
        ),
        section in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let entries: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
            pairs.into_iter().collect();
        let db = Db::new();
        for (k, v) in &entries {
            db.set(k, v.clone());
        }
        let bytes = SnapshotBuilder::new()
            .section("meta", section.clone())
            .db(&db)
            .to_bytes()
            .unwrap();
        let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(snap.info().db_records as usize, entries.len());
        prop_assert_eq!(snap.section("meta").unwrap().as_ref(), section.as_slice());
        let restored = snap.restore_db();
        prop_assert_eq!(restored.scan_prefix(""), db.scan_prefix(""));
        // Canonical encoding: the second snapshot is the same stream.
        let again = SnapshotBuilder::new()
            .section("meta", section)
            .db(&restored)
            .to_bytes()
            .unwrap();
        prop_assert_eq!(bytes.as_ref(), again.as_ref());
    }

    /// A prefix scan returns exactly the model's matching pairs, in
    /// ascending key order, on every prefix, including empty and
    /// non-matching ones.
    #[test]
    fn scan_prefix_matches_a_btreemap_model(
        keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..5), 0..50),
        prefix in proptest::collection::vec(0u8..4, 0..3),
    ) {
        let db = Db::new();
        let mut model = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            db.set(k, vec![i as u8]);
            model.insert(k.clone(), vec![i as u8]);
        }
        let want: Vec<(Vec<u8>, Vec<u8>)> = model
            .into_iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .collect();
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .scan_prefix(&prefix)
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Eight threads of blind `incr_key` batches over random key sets
    /// lose no update: each increment resolves under the commit lock.
    #[test]
    fn txn_increments_serialize(
        keysets in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 1..4), 8..=8
        )
    ) {
        let db = Db::new();
        let keys: Vec<Key> = (0..6u8).map(|k| Key::new(format!("c{k}"))).collect();
        let mut expected: HashMap<u8, i64> = HashMap::new();
        for ks in &keysets {
            for k in ks {
                *expected.entry(*k).or_insert(0) += 50;
            }
        }
        std::thread::scope(|s| {
            for ks in &keysets {
                let (db, keys) = (&db, &keys);
                s.spawn(move || {
                    for _ in 0..50 {
                        db.transaction(|txn| {
                            for k in ks {
                                txn.incr_key(&keys[usize::from(*k)], 1)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        for (k, v) in expected {
            let got = db.get_i64(&keys[usize::from(k)]).unwrap();
            prop_assert_eq!(got, v, "lost updates on key {}", k);
        }
        prop_assert_eq!(db.stats().txn_commits, 8 * 50);
    }
}
