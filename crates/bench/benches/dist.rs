//! Microbenchmarks of the distributed tracker (`aim_core::dist`): what
//! the typed message boundary costs relative to the shared-memory
//! sharded tracker, and what a protocol round-trip itself costs.
//!
//! One group per question (plus `dist/handle`, the per-message dispatch
//! floor):
//!
//! - `dist/roundtrip` — the floor: one no-payload request–reply cycle
//!   through a channel-backed worker (send + worker dispatch + reply).
//! - `dist/codec` — `AIMMSG v1` encode+decode of a realistic relink
//!   batch, the phase-2 per-message serialization cost.
//! - `dist/leader_commit_skewed` — steady-state advance+rollback of one
//!   leader in the skewed-straggler regime (the `shard` bench workload)
//!   on channel-isolated workers vs the shared-memory
//!   [`ShardedDepGraph`] at the same width: the price of full isolation
//!   on the hot path, where the owner is handed its queued writes once
//!   per `dist::WINDOW` of them.
//! - `dist/depart` — one agent's departure from a worker whose store
//!   holds 10³ or 10⁵ history records of other agents.

use std::hint::black_box;
use std::sync::Arc;

use aim_core::depgraph::{EdgeMode, GraphOptions};
use aim_core::dist::{codec, CtrlMsg, DistTracker, Probe, ShardMsg};
use aim_core::health::HealthBoard;
use aim_core::prelude::*;
use aim_core::shard::{ShardedDepGraph, StripShardMap};
use aim_core::space::{GridSpace, Point};
use aim_store::Db;
use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const MAP_W: u32 = 2_000;
const MAP_H: u32 = 600;

/// Steps the leaders run ahead of the straggler pocket (see the `shard`
/// bench for the workload's rationale).
const SKEW: u32 = 48;
const STRAGGLER_X: i32 = 100;

fn scatter(n: u32) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let x = (i as i64).wrapping_mul(2654435761).rem_euclid(MAP_W as i64) as i32;
            let y = (i as i64).wrapping_mul(40503).rem_euclid(MAP_H as i64) as i32;
            Point::new(x, y)
        })
        .collect()
}

fn options() -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        history: false,
    }
}

fn leaders(pts: &[Point]) -> Vec<(AgentId, Point)> {
    pts.iter()
        .enumerate()
        .filter(|(_, p)| p.x >= STRAGGLER_X)
        .map(|(i, p)| (AgentId(i as u32), *p))
        .collect()
}

fn mk_dist_skewed(n: u32, width: usize) -> DistTracker<GridSpace> {
    let pts = scatter(n);
    let mut g = DistTracker::new(
        Arc::new(GridSpace::new(MAP_W, MAP_H)),
        RuleParams::genagent(),
        &pts,
        Arc::new(StripShardMap::new(MAP_W, width)),
        options(),
    )
    .unwrap();
    let batch = leaders(&pts);
    for _ in 0..SKEW {
        g.advance(&batch).unwrap();
    }
    g
}

fn mk_shared_skewed(n: u32, width: usize) -> ShardedDepGraph<GridSpace> {
    let pts = scatter(n);
    let mut g = ShardedDepGraph::new_with_options(
        Arc::new(GridSpace::new(MAP_W, MAP_H)),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &pts,
        Arc::new(StripShardMap::new(MAP_W, width)),
        options(),
    )
    .unwrap();
    let batch = leaders(&pts);
    for _ in 0..SKEW {
        g.advance(&batch).unwrap();
    }
    g
}

/// One request–reply cycle through a channel-isolated worker, no
/// payload: the message boundary's latency floor.
fn bench_roundtrip(c: &mut Criterion) {
    let mut grp = c.benchmark_group("dist/roundtrip");
    // A one-worker tracker over a handful of agents with nothing
    // queued: a heartbeat poll is one request and one reply.
    let pts: Vec<Point> = (0..8).map(|i| Point::new(i * 8, 10)).collect();
    let mut g = DistTracker::new(
        Arc::new(GridSpace::new(64, 64)),
        RuleParams::genagent(),
        &pts,
        Arc::new(StripShardMap::new(64, 1)),
        options(),
    )
    .unwrap();
    let board = HealthBoard::new();
    grp.bench_function("heartbeat", |b| {
        b.iter(|| black_box(g.poll_heartbeats(&board)));
    });
    grp.finish();
}

/// `AIMMSG v1` encode+decode of a 64-probe relink query and its 64-edge
/// reply — the phase-2 serialization cost of one realistic exchange.
fn bench_codec(c: &mut Criterion) {
    let mut grp = c.benchmark_group("dist/codec");
    let space = GridSpace::new(MAP_W, MAP_H);
    let query: CtrlMsg<Point> = CtrlMsg::RelinkQuery {
        probes: (0..64)
            .map(|i| Probe {
                agent: i,
                step: i % 7,
                pos: Point::new(i as i32 * 3, i as i32 % 100),
            })
            .collect(),
    };
    let reply: ShardMsg<Point> = ShardMsg::Edges {
        edges: (0..64)
            .map(|i| aim_core::dist::WireEdge {
                coupled: i % 2 == 0,
                a: i,
                b: i + 1,
            })
            .collect(),
    };
    grp.bench_function("relink_exchange", |b| {
        b.iter(|| {
            let mut buf = BytesMut::new();
            codec::encode_ctrl(&space, black_box(&query), &mut buf);
            codec::encode_shard(&space, black_box(&reply), &mut buf);
            let mut rd = Bytes::from(buf.freeze());
            let q = codec::decode_ctrl(&space, &mut rd).unwrap();
            let r = codec::decode_shard(&space, &mut rd).unwrap();
            black_box((q, r))
        });
    });
    grp.finish();
}

/// Steady-state single-leader commit in the skewed regime: the
/// channel-isolated tracker against the shared-memory sharded tracker
/// at the same width (advance one leader, roll it straight back).
fn bench_leader_commit_skewed(c: &mut Criterion) {
    let mut grp = c.benchmark_group("dist/leader_commit_skewed");
    grp.sample_size(20);
    for n in [1_000u32, 10_000] {
        let width = 4usize;
        {
            let mut g = mk_dist_skewed(n, width);
            let a = (0..n)
                .find(|&i| g.pos(AgentId(i)).x >= MAP_W as i32 / 2)
                .map(AgentId)
                .expect("a leader exists");
            let pos = g.pos(a);
            let step = g.step(a);
            grp.bench_with_input(BenchmarkId::new(format!("{n}"), "dist-w4"), &n, |b, _| {
                b.iter(|| {
                    g.advance(black_box(&[(a, pos)])).unwrap();
                    g.rollback(&[(a, step, pos)]).unwrap();
                });
            });
        }
        {
            let mut g = mk_shared_skewed(n, width);
            let a = (0..n)
                .find(|&i| g.pos(AgentId(i)).x >= MAP_W as i32 / 2)
                .map(AgentId)
                .expect("a leader exists");
            let pos = g.pos(a);
            let step = g.step(a);
            grp.bench_with_input(BenchmarkId::new(format!("{n}"), "shared-w4"), &n, |b, _| {
                b.iter(|| {
                    g.advance(black_box(&[(a, pos)])).unwrap();
                    g.rollback(&[(a, step, pos)]).unwrap();
                });
            });
        }
    }
    grp.finish();
}

/// Per-message dispatch through [`ShardWorker::handle`] with no
/// telemetry installed: the path every protocol message pays. The sink
/// is cached behind a generation counter, so this is one relaxed atomic
/// load per message — not a mutex acquire plus an `Arc` clone. A
/// regression here means the lock crept back onto the per-message path.
fn bench_handle_no_telemetry(c: &mut Criterion) {
    use aim_core::dist::ShardWorker;
    let mut grp = c.benchmark_group("dist/handle");
    let pts: Vec<Point> = (0..8).map(|i| Point::new(i * 8, 10)).collect();
    let mut worker = ShardWorker::new(
        0,
        Arc::new(GridSpace::new(64, 64)),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        false,
        Arc::default(),
    );
    let records = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| aim_core::dist::NodeRecord {
            agent: i as u32,
            step: 0,
            pos: p,
            history: vec![],
        })
        .collect();
    assert_eq!(
        worker.handle(CtrlMsg::Arrive { records }),
        ShardMsg::Done,
        "worker populated"
    );
    grp.bench_function("quiesce_no_telemetry", |b| {
        b.iter(|| black_box(worker.handle(CtrlMsg::Quiesce)));
    });
    grp.finish();
}

/// One agent with 8 history records departing a worker and arriving
/// back, while the worker holds `n` history records of other agents: a
/// migration's worker-side cost, which reads only the departing agent's
/// records and so must not grow with the worker's store.
fn bench_depart(c: &mut Criterion) {
    use aim_core::dist::{NodeRecord, ShardWorker};
    const STEPS: u32 = 100;
    let mut grp = c.benchmark_group("dist/depart");
    for n in [1_000u32, 100_000] {
        let mut worker = ShardWorker::new(
            0,
            Arc::new(GridSpace::new(64, 64)),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            true,
            Arc::default(),
        );
        let record = |agent: u32, steps: u32| {
            let pos = Point::new((agent % 64) as i32, (agent / 64 % 64) as i32);
            NodeRecord {
                agent,
                step: steps - 1,
                pos,
                history: (0..steps).map(|s| (s, pos)).collect(),
            }
        };
        let mut records: Vec<_> = (1..=n / STEPS).map(|a| record(a, STEPS)).collect();
        records.push(record(0, 8));
        assert_eq!(worker.handle(CtrlMsg::Arrive { records }), ShardMsg::Done);
        grp.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let ShardMsg::Departed { records } =
                    worker.handle(CtrlMsg::Depart { agents: vec![0] })
                else {
                    panic!("the mover departs");
                };
                black_box(worker.handle(CtrlMsg::Arrive { records }))
            });
        });
    }
    grp.finish();
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_roundtrip,
    bench_codec,
    bench_leader_commit_skewed,
    bench_handle_no_telemetry,
    bench_depart
);
criterion_main!(benches);
