//! Live per-worker health over a real process boundary: a
//! [`ShardWorker`] in a **separate OS process** answers
//! `CtrlMsg::Heartbeat` polls over the `AIMMSG v1` socket transport,
//! the replies feed a [`HealthBoard`], and the HTTP `/status` endpoint
//! exposes the worker's liveness, lag, and queue depth live — then
//! flips it to not-alive once the link is severed.
//!
//! Same re-exec topology as `crates/core/tests/dist_socket.rs`: the
//! controller test spawns its own test binary filtered to
//! [`status_worker_child`] with the listener address in an environment
//! variable.

use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::Arc;

use aim_core::dist::socket::{serve_connection, SocketLink};
use aim_core::dist::{CtrlMsg, NodeRecord, ShardMsg, ShardWorker, WorkerLink};
use aim_core::health::{HealthBoard, Watchdog, WorkerHealth};
use aim_core::prelude::*;
use aim_core::space::GridSpace;
use aim_core::telemetry::Telemetry;
use aim_serve::{RunStatus, StatusServer};
use aim_store::Db;
use aim_trace::telemetry::validate_json;

mod common;
use common::get;

const ADDR_VAR: &str = "AIM_SERVE_WORKER_ADDR";

fn space() -> Arc<GridSpace> {
    Arc::new(GridSpace::new(64, 64))
}

/// The worker half; a no-op under a plain `cargo test` run.
#[test]
fn status_worker_child() {
    let Ok(addr) = std::env::var(ADDR_VAR) else {
        return;
    };
    let stream = TcpStream::connect(addr).expect("child connects to controller");
    let mut worker = ShardWorker::new(
        7,
        space(),
        RuleParams::new(2, 1),
        Arc::new(Db::new()),
        true,
        Arc::default(),
    );
    serve_connection(stream, &mut worker).expect("serve loop");
}

#[test]
fn status_endpoint_tracks_a_remote_worker_live() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["--exact", "status_worker_child", "--nocapture"])
        .env(ADDR_VAR, &addr)
        .spawn()
        .expect("spawn worker process");

    let (stream, _) = listener.accept().expect("worker connects");
    let mut link = SocketLink::connect(7, space(), stream).expect("AIMMSG handshake");

    // Populate two agents, then commit one step for agent 0 so the
    // worker has a nonzero last-applied step to report.
    let records: Vec<NodeRecord<Point>> = [(0u32, 10i32, 10i32), (1, 11, 10)]
        .into_iter()
        .map(|(agent, x, y)| NodeRecord {
            agent,
            step: 0,
            pos: Point::new(x, y),
            history: vec![(0, Point::new(x, y))],
        })
        .collect();
    link.send(CtrlMsg::Arrive { records }).unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);
    link.send(CtrlMsg::Commit {
        updates: vec![(0, Point::new(10, 11))],
    })
    .unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);
    let mut sent: u64 = 2;

    // Poll one heartbeat over the wire and feed the board, deriving
    // queue depth controller-side exactly as DistTracker::poll_heartbeats
    // does (sent − handled ≈ 0 on a healthy lock-step link).
    let board = Arc::new(HealthBoard::new());
    link.send(CtrlMsg::Heartbeat {
        now_us: board.now_us(),
    })
    .unwrap();
    sent += 1;
    let ShardMsg::Heartbeat {
        worker,
        handled,
        last_step,
        members,
        dropped,
        ..
    } = link.recv().unwrap()
    else {
        panic!("expected a Heartbeat reply");
    };
    assert_eq!(worker, 7);
    assert_eq!(last_step, 1, "the committed step is visible over the wire");
    assert_eq!(members, 2);
    board.record_heartbeat(WorkerHealth {
        worker,
        name: format!("worker {worker}"),
        alive: true,
        last_seen_us: board.now_us(),
        last_applied_step: (last_step != u32::MAX).then_some(last_step),
        queue_depth: sent.saturating_sub(handled),
        members,
        span_overflow: dropped,
    });

    let source = Arc::new(RunStatus::new(
        "dist run",
        2,
        Arc::new(Telemetry::new()),
        Arc::clone(&board),
        // Idle: a budget no run reaches, so the watchdog never fires.
        Arc::new(Watchdog::new(u64::MAX)),
    ));
    let server =
        StatusServer::start(0, Arc::clone(&source)).expect("bind an ephemeral loopback port");

    let (code, status) = get(server.addr(), "/status");
    assert_eq!(code, 200);
    validate_json(&status).expect("/status is valid JSON");
    assert!(status.contains("\"worker\":7"), "{status}");
    assert!(status.contains("\"alive\":true"), "{status}");
    assert!(status.contains("\"last_applied_step\":1"), "{status}");
    assert!(status.contains("\"queue_depth\":0"), "{status}");
    assert!(status.contains("\"members\":2"), "{status}");
    assert!(status.contains("\"lag_us\":"), "{status}");

    let (_, metrics) = get(server.addr(), "/metrics");
    assert!(
        metrics.contains("aim_worker_alive{worker=\"worker 7\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("aim_worker_lag_microseconds{worker=\"worker 7\"}"),
        "{metrics}"
    );

    // Sever: shut the worker down, mark the board, and watch /status
    // flip the same worker to not-alive without restarting the server.
    link.send(CtrlMsg::Shutdown).unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);
    let exit = child.wait().expect("child exit status");
    assert!(exit.success(), "worker process failed: {exit}");
    board.mark_severed(7);

    let (code, status) = get(server.addr(), "/status");
    assert_eq!(code, 200);
    assert!(status.contains("\"alive\":false"), "{status}");
    let (_, metrics) = get(server.addr(), "/metrics");
    assert!(
        metrics.contains("aim_worker_alive{worker=\"worker 7\"} 0\n"),
        "{metrics}"
    );
    drop(server);
}
