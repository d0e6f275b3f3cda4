//! Microbenchmarks of the live health plane.
//!
//! The plane's contract is that observation stays off the hot path: a
//! scrape renders from atomics and a short board lock, and the one new
//! hot-adjacent cost — the `CtrlMsg::Heartbeat` arm a worker answers
//! between applies — must be cheap enough that enabling heartbeats does
//! not move the `dist` baselines. These benches pin the render costs of
//! `/metrics` and `/status` and the worker-side heartbeat handle so
//! `bench_gate` holds all three to the 5% threshold.

use std::hint::black_box;
use std::sync::Arc;

use aim_core::dist::{CtrlMsg, NodeRecord, ShardWorker};
use aim_core::health::{HealthBoard, Watchdog, WorkerHealth};
use aim_core::prelude::*;
use aim_core::space::GridSpace;
use aim_core::telemetry::{SpanKind, Telemetry};
use aim_serve::RunStatus;
use aim_store::Db;
use criterion::{criterion_group, criterion_main, Criterion};

/// A populated source: a telemetry sink with commits on the watermark
/// plus a four-worker board and an idle watchdog — the shape a mid-run
/// scrape sees.
fn scrape_source() -> RunStatus {
    let telemetry = Arc::new(Telemetry::with_capacity(1 << 14));
    for i in 0..1_024u64 {
        telemetry.record_at(
            i * 100,
            i * 100 + 80,
            SpanKind::Commit {
                cluster: i % 8,
                step: (i / 8) as u32,
                members: 4,
            },
        );
    }
    let board = HealthBoard::new();
    for worker in 0..4u32 {
        board.record_heartbeat(WorkerHealth {
            worker,
            name: format!("worker {worker}"),
            alive: true,
            last_seen_us: board.now_us(),
            last_applied_step: Some(128),
            queue_depth: 1,
            members: 256,
            span_overflow: 0,
        });
    }
    RunStatus::new(
        "bench run",
        1_024,
        telemetry,
        Arc::new(board),
        Arc::new(Watchdog::new(u64::MAX)),
    )
}

/// `/metrics` render: the full Prometheus exposition — counters,
/// commit-age gauge, and the per-worker gauge block — as one scrape
/// costs it.
fn bench_prometheus_render(c: &mut Criterion) {
    let source = scrape_source();
    c.bench_function("serve/prometheus_render", |b| {
        b.iter(|| black_box(source.metrics().len()));
    });
}

/// `/status` render: the JSON digest including the scrape-time
/// decomposition (a flight-report drain) and the worker array.
fn bench_status_json(c: &mut Criterion) {
    let source = scrape_source();
    c.bench_function("serve/status_json", |b| {
        b.iter(|| black_box(source.status_json().len()));
    });
}

/// Worker-side heartbeat handle: the exact protocol arm a controller
/// poll exercises, on a worker holding 256 members. This is the cost
/// added *inside* the worker's message loop, so it is the number that
/// must not move for the `dist` baselines to stay inside the gate.
fn bench_heartbeat_handle(c: &mut Criterion) {
    let mut worker = ShardWorker::new(
        3,
        Arc::new(GridSpace::new(64, 64)),
        RuleParams::new(2, 1),
        Arc::new(Db::new()),
        true,
        Arc::default(),
    );
    let records: Vec<NodeRecord<Point>> = (0..256u32)
        .map(|agent| {
            let pos = Point::new((agent % 64) as i32, (agent / 64) as i32);
            NodeRecord {
                agent,
                step: 0,
                pos,
                history: vec![(0, pos)],
            }
        })
        .collect();
    worker.handle(CtrlMsg::Arrive { records });
    let mut now = 0u64;
    c.bench_function("serve/heartbeat_handle", |b| {
        b.iter(|| {
            now += 1;
            black_box(worker.handle(CtrlMsg::Heartbeat {
                now_us: black_box(now),
            }))
        });
    });
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_prometheus_render,
    bench_status_json,
    bench_heartbeat_handle
);
criterion_main!(benches);
