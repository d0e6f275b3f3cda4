//! Two-process smoke test for the `AIMMSG v1` socket transport
//! (`dist-socket` feature): a [`ShardWorker`] served from a **separate
//! OS process** answers the full protocol — arrive, commit, relink,
//! quiesce, history eviction, recover, shutdown — over a TCP stream.
//!
//! Topology: the controller (this test) binds a loopback listener and
//! re-executes its own test binary filtered to [`socket_worker_child`]
//! with the address in an environment variable; the child connects back
//! and serves the connection, so no port discovery is needed. When the
//! child test runs as part of a normal `cargo test` pass (no variable
//! set) it is a no-op.
//!
//! The hand-off tests below it stay in one process: a worker thread
//! behind [`serve_connection`], or a hand-written peer where the test
//! needs to see the bytes or break the stream.
#![cfg(feature = "dist-socket")]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::Arc;

use aim_core::dist::codec::{decode_ctrl, encode_shard, PREAMBLE};
use aim_core::dist::socket::{serve_connection, SocketLink};
use aim_core::dist::{CtrlMsg, NodeRecord, Probe, ShardMsg, ShardWorker, WireEdge, WorkerLink};
use aim_core::prelude::*;
use aim_core::scheduler::SchedStats;
use aim_core::space::GridSpace;
use aim_core::telemetry::{BoundaryOp, SpanKind, Telemetry};
use aim_store::{Db, StoreError};
use bytes::{Bytes, BytesMut};

const ADDR_VAR: &str = "AIM_DIST_WORKER_ADDR";

fn space() -> Arc<GridSpace> {
    Arc::new(GridSpace::new(64, 64))
}

fn params() -> RuleParams {
    RuleParams::new(2, 1)
}

/// The worker half: only active when re-executed by the controller test
/// with [`ADDR_VAR`] set; a plain `cargo test` run sees it pass as a
/// no-op.
#[test]
fn socket_worker_child() {
    let Ok(addr) = std::env::var(ADDR_VAR) else {
        return;
    };
    let stream = TcpStream::connect(addr).expect("child connects to controller");
    let mut worker = ShardWorker::new(
        7,
        space(),
        params(),
        Arc::new(Db::new()),
        true,
        Arc::default(),
    );
    serve_connection(stream, &mut worker).expect("serve loop");
}

#[test]
fn worker_in_a_separate_process_serves_the_full_protocol() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["--exact", "socket_worker_child", "--nocapture"])
        .env(ADDR_VAR, &addr)
        .spawn()
        .expect("spawn worker process");

    let (stream, _) = listener.accept().expect("worker connects");
    let s = space();
    let mut link = SocketLink::connect(7, Arc::clone(&s), stream).expect("AIMMSG handshake");

    // Arm the worker's local telemetry buffer: the process boundary makes
    // the in-process SharedTelemetry cell unreachable, so the first
    // harvest enables worker-side recording (and returns nothing — the
    // worker recorded nothing before it).
    let telemetry = Telemetry::new();
    link.send(CtrlMsg::HarvestTelemetry {
        now_us: telemetry.now_us(),
    })
    .unwrap();
    match link.recv().unwrap() {
        ShardMsg::Telemetry {
            worker: 7,
            spans,
            dropped: 0,
            ..
        } => assert!(spans.is_empty(), "nothing recorded before arming"),
        other => panic!("expected an empty Telemetry reply, got {other:?}"),
    }

    // Populate: three agents, two adjacent (they will couple), one far.
    let records: Vec<NodeRecord<Point>> = [(0, 10, 10), (1, 11, 10), (2, 50, 50)]
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

    // Commit one step for agent 0 across the wire.
    link.send(CtrlMsg::Commit {
        updates: vec![(0, Point::new(10, 11))],
    })
    .unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);

    // Relink probe for agent 1 (still at step 0): agent 2 is far away,
    // agent 0 is one step ahead — a blocking edge with the lower-step
    // agent 1 as the blocker.
    link.send(CtrlMsg::RelinkQuery {
        probes: vec![Probe {
            agent: 1,
            step: 0,
            pos: Point::new(11, 10),
        }],
    })
    .unwrap();
    let reply = link.recv().unwrap();
    assert_eq!(
        reply,
        ShardMsg::Edges {
            edges: vec![WireEdge {
                coupled: false,
                a: 1,
                b: 0,
            }],
        },
        "expected agent 1 to block run-ahead agent 0"
    );

    // Quiesce: the worker's ground truth reflects the commit.
    link.send(CtrlMsg::Quiesce).unwrap();
    assert_eq!(
        link.recv().unwrap(),
        ShardMsg::Quiesced {
            states: vec![
                (0, 1, Point::new(10, 11)),
                (1, 0, Point::new(11, 10)),
                (2, 0, Point::new(50, 50)),
            ],
        }
    );

    // A protocol-level failure crosses the wire as Failed, not a panic
    // or a dropped connection.
    link.send(CtrlMsg::Commit {
        updates: vec![(99, Point::new(0, 0))],
    })
    .unwrap();
    match link.recv().unwrap() {
        ShardMsg::Failed { message } => {
            assert!(message.contains("not a member"), "{message}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // Recover rebuilds in-memory state from the worker's own database —
    // the same handshake a respawn after a crash uses.
    link.send(CtrlMsg::Recover {
        expected: vec![0, 1, 2],
    })
    .unwrap();
    assert_eq!(
        link.recv().unwrap(),
        ShardMsg::Recovered {
            states: vec![
                (0, 1, Point::new(10, 11)),
                (1, 0, Point::new(11, 10)),
                (2, 0, Point::new(50, 50)),
            ],
        }
    );

    // History eviction over the wire (floor 1 drops the three step-0
    // records; agent 0's step-1 record survives).
    link.send(CtrlMsg::EvictHistory { floor: 1 }).unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Evicted { removed: 3 });

    // Second harvest: everything the armed worker applied above crosses
    // the wire as spans on its own clock; the midpoint-of-RTT offset
    // rebases them onto the controller's timeline.
    let t_send = telemetry.now_us();
    link.send(CtrlMsg::HarvestTelemetry { now_us: t_send })
        .unwrap();
    let reply = link.recv().unwrap();
    let t_recv = telemetry.now_us();
    let ShardMsg::Telemetry {
        worker,
        now_us,
        spans,
        counters,
        dropped,
    } = reply
    else {
        panic!("expected Telemetry, got {reply:?}");
    };
    assert_eq!(worker, 7);
    assert!(
        !spans.is_empty(),
        "the armed worker recorded its protocol applies"
    );
    assert!(
        spans.iter().all(|sp| matches!(
            sp.kind,
            SpanKind::Boundary {
                worker: 7,
                op: BoundaryOp::Apply,
                ..
            }
        )),
        "worker-side spans are all remote applies: {spans:?}"
    );
    assert!(
        counters
            .iter()
            .any(|&(c, n)| c == aim_core::telemetry::Counter::BoundaryMessages && n > 0),
        "worker counts its own boundary messages: {counters:?}"
    );

    // Merge into the controller sink exactly as DistTracker::
    // harvest_telemetry does, then check the remote applies survive into
    // the finished report on their own named track.
    let midpoint = t_send + (t_recv - t_send) / 2;
    let offset = midpoint as i64 - now_us as i64;
    let track = telemetry.remote_track("worker 7 (remote)");
    telemetry.ingest(track, &spans, offset);
    telemetry.set_remote_dropped(track, dropped);
    let wire_spans = spans.len();

    link.send(CtrlMsg::Shutdown).unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);

    let end = telemetry.now_us();
    let rt = telemetry.finish(0, end, 3, SchedStats::default(), None);
    assert_eq!(rt.track_name(track), Some("worker 7 (remote)"));
    let remote_applies = rt
        .spans
        .iter()
        .filter(|sp| {
            sp.track == track
                && matches!(
                    sp.kind,
                    SpanKind::Boundary {
                        worker: 7,
                        op: BoundaryOp::Apply,
                        ..
                    }
                )
        })
        .count();
    assert_eq!(
        remote_applies, wire_spans,
        "every harvested remote apply lands in the merged report"
    );

    let status = child.wait().expect("child exit status");
    assert!(status.success(), "worker process failed: {status}");
}

/// A loopback connection: the controller's link, and the peer's raw
/// stream with the preamble already exchanged.
fn link_and_raw_peer() -> (SocketLink<GridSpace>, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("controller connects");
        stream.write_all(PREAMBLE).unwrap();
        let mut got = [0u8; PREAMBLE.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(&got, PREAMBLE);
        stream
    });
    let stream = TcpStream::connect(addr).expect("connect to peer");
    let link = SocketLink::connect(7, space(), stream).expect("AIMMSG handshake");
    (link, peer.join().expect("peer handshake"))
}

/// The `[Commit, RelinkQuery]` hand-off of an owner.
fn queue_commit_and_query(link: &mut SocketLink<GridSpace>) {
    link.send(CtrlMsg::Commit {
        updates: vec![(0, Point::new(10, 11))],
    })
    .unwrap();
    link.send(CtrlMsg::RelinkQuery {
        probes: vec![Probe {
            agent: 0,
            step: 1,
            pos: Point::new(10, 11),
        }],
    })
    .unwrap();
}

#[test]
fn a_hand_off_is_one_write_answered_in_order() {
    let (mut link, mut peer) = link_and_raw_peer();
    queue_commit_and_query(&mut link);
    link.hand_off().expect("one write");

    // Both frames are there on the peer's first read: they left the
    // controller together.
    let mut buf = vec![0u8; 1 << 16];
    let n = peer.read(&mut buf).expect("first read");
    let mut frames = Bytes::from(buf[..n].to_vec());
    let s = space();
    let first = decode_ctrl(s.as_ref(), &mut frames).expect("first frame");
    let second = decode_ctrl(s.as_ref(), &mut frames).expect("second frame, same read");
    assert!(matches!(first, CtrlMsg::Commit { .. }), "{first:?}");
    assert!(matches!(second, CtrlMsg::RelinkQuery { .. }), "{second:?}");
    assert_eq!(frames.len(), 0, "nothing but the two frames");

    // The replies come back as one write too, and are read in order.
    let edges = ShardMsg::Edges {
        edges: vec![WireEdge {
            coupled: true,
            a: 0,
            b: 1,
        }],
    };
    let mut out = BytesMut::new();
    encode_shard(s.as_ref(), &ShardMsg::Done, &mut out);
    encode_shard(s.as_ref(), &edges, &mut out);
    peer.write_all(&out).unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);
    assert_eq!(link.recv().unwrap(), edges);

    // Nothing more is owed: a further receive is an error, not a hang.
    assert!(matches!(link.recv(), Err(StoreError::Codec(_))));
}

#[test]
fn a_stream_closed_inside_a_hand_off_is_an_error_not_a_hang() {
    let (mut link, mut peer) = link_and_raw_peer();
    queue_commit_and_query(&mut link);
    // `recv` hands the queue over first.
    let waiting = std::thread::spawn(move || {
        let first = link.recv();
        let second = link.recv();
        (first, second)
    });
    let mut buf = vec![0u8; 1 << 16];
    assert!(peer.read(&mut buf).expect("the hand-off arrives") > 0);
    // Answer the first request only, then close between the two frames.
    let mut out = BytesMut::new();
    encode_shard(space().as_ref(), &ShardMsg::Done, &mut out);
    peer.write_all(&out).unwrap();
    drop(peer);
    let (first, second) = waiting.join().expect("receiver thread");
    assert_eq!(first.unwrap(), ShardMsg::Done);
    assert!(
        matches!(second, Err(StoreError::Codec(_) | StoreError::Io(_))),
        "{second:?}"
    );
}

#[test]
fn a_served_hand_off_stops_at_its_first_failure() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let db = Arc::new(Db::new());
    let worker_db = Arc::clone(&db);
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("controller connects");
        let mut worker = ShardWorker::new(7, space(), params(), worker_db, true, Arc::default());
        serve_connection(stream, &mut worker)
    });
    let stream = TcpStream::connect(addr).expect("connect to worker");
    let mut link = SocketLink::connect(7, space(), stream).expect("AIMMSG handshake");

    let home = Point::new(10, 10);
    link.send(CtrlMsg::Arrive {
        records: vec![NodeRecord {
            agent: 0,
            step: 0,
            pos: home,
            history: vec![(0, home)],
        }],
    })
    .unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);
    let stored = db.scan_prefix("");

    // A commit for a stranger, and behind it the departure of a member:
    // the refused commit must stop the departure.
    link.send(CtrlMsg::Commit {
        updates: vec![(99, home)],
    })
    .unwrap();
    link.send(CtrlMsg::Depart { agents: vec![0] }).unwrap();
    link.hand_off().unwrap();
    for cause in ["not a member", "earlier request"] {
        match link.recv().unwrap() {
            ShardMsg::Failed { message } => assert!(message.contains(cause), "{message}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }
    link.send(CtrlMsg::Quiesce).unwrap();
    assert_eq!(
        link.recv().unwrap(),
        ShardMsg::Quiesced {
            states: vec![(0, 0, home)],
        }
    );
    assert_eq!(db.scan_prefix(""), stored, "the store was touched");

    link.send(CtrlMsg::Shutdown).unwrap();
    assert_eq!(link.recv().unwrap(), ShardMsg::Done);
    server
        .join()
        .expect("server thread")
        .expect("serve loop ends cleanly");
}
