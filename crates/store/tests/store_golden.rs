//! Golden for the store's write batches.
//!
//! A seeded sequence of [`Db::transaction`] batches — overwrites within
//! one batch, delete-then-set, increments folded onto a buffered `set`
//! and onto a committed integer, a batch that fails whole on a
//! non-integer increment, and one 10⁵-key bulk batch — is pinned by the
//! length and FNV-1a 64 of the resulting AIMSNAP bytes and by the literal
//! `DbStats` line. The literals were recorded before the commit path last
//! changed and are not to be edited: any commit path must land the same
//! bytes and count the same operations.

use aim_store::{Db, Key, SnapshotBuilder, StoreError};

/// SplitMix64: a seeded, dependency-free source of batch shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Integer-valued keys (`n:..`), the only ones ever incremented.
fn int_key(i: u64) -> Key {
    Key::new(format!("n:{i:02}"))
}

/// Byte-valued keys (`b:..`), never incremented.
fn blob_key(i: u64) -> String {
    format!("b:{i:02}")
}

fn run() -> (Db, Vec<&'static str>) {
    let db = Db::new();
    let mut outcomes = Vec::new();
    let mut rng = Rng(0x5eed_0032);

    // Seeded batches over 24 integer and 24 byte keys: double writes,
    // delete-then-set and increments of buffered and committed integers
    // all occur.
    for _ in 0..400 {
        let ops = 1 + rng.below(12);
        db.transaction(|txn| {
            for _ in 0..ops {
                let (n, b) = (rng.below(24), rng.below(24));
                match rng.below(6) {
                    0 => txn.set_i64(int_key(n), rng.next() as i64 >> 8),
                    1 => txn.set_key(&int_key(n), (rng.below(1000) as i64).to_be_bytes().to_vec()),
                    2 => txn.del(int_key(n)),
                    3 => txn.incr_key(&int_key(n), rng.below(200) as i64 - 100)?,
                    4 => {
                        let len = rng.below(20) as usize;
                        txn.set(blob_key(b), vec![rng.below(256) as u8; len]);
                    }
                    _ => txn.del(blob_key(b)),
                }
            }
            Ok(())
        })
        .unwrap();
    }

    // Overwrites within one batch: the last write of each key lands.
    db.transaction(|txn| {
        txn.set("o:a", vec![1]);
        txn.set("o:b", vec![2]);
        txn.set("o:a", vec![3, 3]);
        txn.del("o:b");
        txn.set("o:a", vec![4, 4, 4]);
        Ok(())
    })
    .unwrap();

    // Delete-then-set of a committed key, and set-then-delete of another.
    db.transaction(|txn| {
        txn.del(blob_key(3));
        txn.set(blob_key(3), b"again".to_vec());
        txn.set(blob_key(4), b"short-lived".to_vec());
        txn.del(blob_key(4));
        Ok(())
    })
    .unwrap();

    // Increments folded onto a buffered set, onto a committed integer,
    // onto a delete, and onto each other.
    db.set_i64("i:committed", 40);
    let (buffered, committed, deleted, twice) = (
        Key::new("i:buffered"),
        Key::new("i:committed"),
        Key::new("i:deleted"),
        Key::new("i:twice"),
    );
    db.transaction(|txn| {
        txn.set_i64(&buffered, 7);
        txn.incr_key(&buffered, 5)?;
        txn.incr_key(&committed, 2)?;
        txn.del(&deleted);
        txn.incr_key(&deleted, -9)?;
        txn.incr_key(&twice, 1)?;
        txn.incr_key(&twice, 10)
    })
    .unwrap();

    // A batch that increments a committed non-integer fails whole: none
    // of its other writes lands and it counts no commit.
    db.set("x:text", b"not an integer".to_vec());
    let text = Key::new("x:text");
    let failed = db.transaction(|txn| {
        txn.set("x:never", vec![1]);
        txn.set_i64(&committed, -1);
        txn.incr_key(&text, 1)
    });
    outcomes.push(match failed {
        Err(StoreError::Codec(_)) => "codec",
        Err(_) => "other error",
        Ok(()) => "committed",
    });

    // One bulk batch of 10⁵ history-shaped keys.
    let value = bytes::Bytes::from_static(&[7u8; 12]);
    db.transaction(|txn| {
        for i in 0..100_000u32 {
            txn.set_key(
                &Key::tagged_u32_pair(*b"dhst", i / 100, i % 100),
                value.clone(),
            );
        }
        Ok(())
    })
    .unwrap();

    (db, outcomes)
}

#[test]
fn write_batches_land_the_recorded_image() {
    let (db, outcomes) = run();
    assert_eq!(outcomes, ["codec"]);
    assert!(!db.contains("x:never"));
    assert_eq!(db.get_i64("i:committed").unwrap(), 42);
    assert_eq!(db.get_i64("i:buffered").unwrap(), 12);
    assert_eq!(db.get_i64("i:deleted").unwrap(), -9);
    assert_eq!(db.get_i64("i:twice").unwrap(), 11);
    assert_eq!(db.get("o:a").as_deref(), Some(&[4u8, 4, 4][..]));
    assert!(!db.contains("o:b"));

    let stats = format!("{:?}", db.stats());
    let bytes = SnapshotBuilder::new().db(&db).to_bytes().unwrap();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes), stats.as_str()),
        (
            3_200_845,
            0x22ae_f4f5_b7d8_0e5b,
            "DbStats { keys: 100041, gets: 5, writes: 102440, txn_commits: 404, txn_conflicts: 0 }"
        ),
        "AIMSNAP length, FNV-1a 64 and DbStats"
    );
}
