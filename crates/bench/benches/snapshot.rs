//! Checkpoint-subsystem microbenchmarks: AIMSNAP encode/restore over a
//! long-horizon-shaped store (1000 agents × a 64-step history window),
//! the prefix scan the snapshot writer and eviction pass use,
//! and the eviction guard path that runs at every checkpoint.

use std::hint::black_box;
use std::sync::Arc;

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions};
use aim_core::prelude::*;
use aim_store::{Db, Snapshot, SnapshotBuilder};
use criterion::{criterion_group, criterion_main, Criterion};

const AGENTS: u32 = 1000;
const WINDOW: u32 = 64;

/// A store shaped like a checkpointed 1000-agent run: one authoritative
/// record per agent plus a 64-step resident history window (66k records
/// total, 12-byte binary keys, small binary values).
fn long_horizon_db() -> Db {
    let db = Db::new();
    for a in 0..AGENTS {
        let key = aim_store::Key::tagged_u32(*b"dagt", a);
        db.set(&key, vec![0u8; 12]);
        for s in 0..WINDOW {
            let key = aim_store::Key::tagged_u32_pair(*b"dhst", s, a);
            db.set(&key, vec![0u8; 12]);
        }
    }
    db.set_i64("dep:commits", WINDOW as i64);
    db.set_i64("dep:hist_floor", 0);
    db
}

fn bench_snapshot_codec(c: &mut Criterion) {
    let db = long_horizon_db();
    let n = db.len();
    c.bench_function("snapshot/encode_66k", |b| {
        b.iter(|| {
            let mut sink = std::io::sink();
            let written = SnapshotBuilder::new().db(&db).write_to(&mut sink).unwrap();
            black_box(written);
        });
    });
    let bytes = SnapshotBuilder::new().db(&db).to_bytes().unwrap();
    c.bench_function("snapshot/parse_66k", |b| {
        b.iter(|| {
            let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
            black_box(snap.info().db_records);
        });
    });
    c.bench_function("snapshot/restore_66k", |b| {
        let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
        b.iter(|| {
            let restored = snap.restore_db();
            black_box(restored.len());
        });
    });
    c.bench_function("snapshot/scan_prefix_66k", |b| {
        b.iter(|| {
            let all = db.scan_prefix([]);
            assert_eq!(all.len(), n);
            black_box(all.len());
        });
    });
}

fn bench_eviction_guard(c: &mut Criterion) {
    // The per-checkpoint steady state: eviction runs every cadence, but
    // when the committed floor has not moved past the watermark it must
    // return without walking history at all.
    let space = Arc::new(GridSpace::new(1000, 1000));
    let initial: Vec<Point> = (0..AGENTS)
        .map(|i| Point::new((i % 100) as i32 * 10, (i / 100) as i32 * 10))
        .collect();
    let mut graph = DepGraph::new_with_options(
        space,
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &initial,
        GraphOptions {
            edges: EdgeMode::Off,
            history: true,
        },
    )
    .unwrap();
    graph.evict_history().unwrap();
    c.bench_function("snapshot/evict_noop_1000", |b| {
        b.iter(|| {
            black_box(graph.evict_history().unwrap());
        });
    });
}

criterion_group!(
    benches,
    bench_snapshot_codec,
    bench_eviction_guard,
    aim_bench::bench_calibration,
);
criterion_main!(benches);
