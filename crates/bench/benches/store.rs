//! Microbenchmarks of the embedded store (Redis substitute, §3.6): point
//! ops and the write batch the dependency graph commits with.

use std::hint::black_box;

use aim_store::{Db, Key};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_point_ops(c: &mut Criterion) {
    let db = Db::new();
    for i in 0..10_000u32 {
        db.set(format!("key:{i:06}"), i.to_be_bytes().to_vec());
    }
    c.bench_function("store/get", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let k = format!("key:{:06}", i % 10_000);
            black_box(db.get(black_box(&k)));
            i += 1;
        });
    });
    c.bench_function("store/set", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let k = format!("key:{:06}", i % 10_000);
            db.set(black_box(&k), i.to_be_bytes().to_vec());
            i += 1;
        });
    });
    c.bench_function("store/incr", |b| {
        b.iter(|| {
            black_box(db.incr("counter", 1).unwrap());
        });
    });
}

fn bench_transactions(c: &mut Criterion) {
    // Exactly what a singleton `DepGraph::advance` issues: one freshly
    // encoded record under an interned key, plus the buffered counter
    // bump.
    let db = Db::new();
    let records: Vec<Key> = (0..1_000u32)
        .map(|a| Key::tagged_u32(*b"dagt", a))
        .collect();
    let commits = Key::new("dep:commits");
    c.bench_function("store/txn_commit_interned", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let value = Bytes::copy_from_slice(&(i as u64).to_be_bytes());
            db.transaction(|txn| {
                txn.set_key(&records[i % records.len()], value.clone());
                txn.incr_key(&commits, 1)
            })
            .unwrap();
            i += 1;
        });
    });
}

criterion_group!(
    benches,
    bench_point_ops,
    bench_transactions,
    aim_bench::bench_calibration
);
criterion_main!(benches);
