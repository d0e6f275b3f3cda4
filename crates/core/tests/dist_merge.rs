//! Merge determinism for distributed telemetry: identical seeded dist
//! runs must yield identical order-normalized merged span structure, and
//! the stall-decomposition coverage gate must hold on the merged report.
//!
//! Two layers are pinned:
//!
//! * **Tracker layer** — two [`DistTracker`] runs fed the same seeded
//!   operation script produce the same multiset of span kinds after the
//!   end-of-run harvest (timestamps differ run to run; structure must
//!   not).
//! * **Transport layer** (the socket transport) — the same request
//!   script driven through a [`ChannelLink`] and through a TCP
//!   [`SocketLink`](aim_core::dist::socket::SocketLink), each followed by
//!   a wire harvest + merge, produces the same order-normalized merged
//!   span structure. The transport may change the clock domain, never
//!   what was observed.

use std::sync::Arc;

use aim_core::depgraph::{EdgeMode, GraphOptions};
use aim_core::dist::DistTracker;
use aim_core::prelude::*;
use aim_core::scheduler::SchedStats;
use aim_core::shard::StripShardMap;
use aim_core::space::{GridSpace, Point};
use aim_core::telemetry::{RunTelemetry, Telemetry};

const W: u32 = 64;

/// Order-normalized span structure: the multiset of span kinds, with
/// timestamps and buffer-assignment tracks erased.
fn normalized_kinds(rt: &RunTelemetry) -> Vec<String> {
    let mut kinds: Vec<String> = rt.spans.iter().map(|s| format!("{:?}", s.kind)).collect();
    kinds.sort_unstable();
    kinds
}

/// One seeded dist run: a fixed op script over a strip-sharded tracker
/// with telemetry attached, harvested and finished into a merged report.
fn seeded_channel_run() -> RunTelemetry {
    let space = Arc::new(GridSpace::new(W, W));
    let initial: Vec<Point> = (0..12)
        .map(|i| Point::new((i * 5) % W as i32, (i * 7) % W as i32))
        .collect();
    let mut tracker = DistTracker::new(
        Arc::clone(&space),
        RuleParams::new(2, 1),
        &initial,
        Arc::new(StripShardMap::new(W, 4)),
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: true,
        },
    )
    .expect("tracker");
    let telemetry = Arc::new(Telemetry::new());
    tracker.set_telemetry(Arc::clone(&telemetry));
    let start = telemetry.now_us();

    // A fixed LCG drives the script so both runs replay the same ops.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for round in 0..40 {
        let a = AgentId(rng() % 12);
        let pos = tracker.pos(a);
        let dx = (rng() % 3) as i32 - 1;
        let dy = (rng() % 3) as i32 - 1;
        let next = Point::new(
            (pos.x + dx).clamp(0, W as i32 - 1),
            (pos.y + dy).clamp(0, W as i32 - 1),
        );
        tracker.advance(&[(a, next)]).expect("advance");
        if round % 10 == 9 {
            tracker.evict_history().expect("evict");
        }
    }
    tracker.harvest_telemetry().expect("harvest");
    let end = telemetry.now_us();
    drop(tracker); // workers release their Arc<Telemetry> clones
    Arc::try_unwrap(telemetry)
        .ok()
        .map(|t| t.finish(start, end, 12, SchedStats::default(), None))
        .unwrap_or_else(|| panic!("telemetry sink still shared at finish"))
}

#[test]
fn seeded_dist_runs_merge_identically() {
    let a = seeded_channel_run();
    let b = seeded_channel_run();
    let ka = normalized_kinds(&a);
    assert!(!ka.is_empty(), "the run recorded protocol spans");
    assert_eq!(
        ka,
        normalized_kinds(&b),
        "identical seeded runs must merge to identical span structure"
    );
    // The ≥95% stall-coverage gate holds on the merged decomposition.
    assert!(
        a.decomposition.coverage() >= 0.95,
        "coverage {:.3} below the gate",
        a.decomposition.coverage()
    );
}

mod transports {
    use super::*;

    use std::net::{TcpListener, TcpStream};

    use aim_core::dist::socket::{serve_connection, SocketLink};
    use aim_core::dist::{
        ChannelLink, CtrlMsg, NodeRecord, Probe, ShardMsg, ShardWorker, WorkerLink,
    };
    use aim_store::Db;

    fn space() -> Arc<GridSpace> {
        Arc::new(GridSpace::new(W, W))
    }

    /// Drives the fixed request script through `link`, harvesting the
    /// worker's wire telemetry into a fresh controller sink, and returns
    /// the finished merged report.
    fn drive(link: &mut dyn WorkerLink<Point>) -> RunTelemetry {
        let telemetry = Telemetry::new();
        let start = telemetry.now_us();

        // Arming harvest: enables worker-local recording.
        link.send(CtrlMsg::HarvestTelemetry {
            now_us: telemetry.now_us(),
        })
        .unwrap();
        assert!(matches!(
            link.recv().unwrap(),
            ShardMsg::Telemetry { worker: 7, .. }
        ));

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

        link.send(CtrlMsg::Commit {
            updates: vec![(0, Point::new(10, 11))],
        })
        .unwrap();
        assert_eq!(link.recv().unwrap(), ShardMsg::Done);

        link.send(CtrlMsg::RelinkQuery {
            probes: vec![Probe {
                agent: 1,
                step: 0,
                pos: Point::new(11, 10),
            }],
        })
        .unwrap();
        assert!(matches!(link.recv().unwrap(), ShardMsg::Edges { .. }));

        link.send(CtrlMsg::Quiesce).unwrap();
        assert!(matches!(link.recv().unwrap(), ShardMsg::Quiesced { .. }));

        link.send(CtrlMsg::EvictHistory { floor: 1 }).unwrap();
        assert!(matches!(link.recv().unwrap(), ShardMsg::Evicted { .. }));

        // Final harvest with the clock-offset handshake, then merge.
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
        let midpoint = t_send + (t_recv - t_send) / 2;
        let offset = midpoint as i64 - now_us as i64;
        let track = telemetry.remote_track("worker 7 (remote)");
        telemetry.ingest(track, &spans, offset);
        telemetry.set_remote_dropped(track, dropped);
        for (c, n) in counters {
            telemetry.counter_add(c, n);
        }

        link.send(CtrlMsg::Shutdown).unwrap();
        assert_eq!(link.recv().unwrap(), ShardMsg::Done);

        let end = telemetry.now_us();
        telemetry.finish(start, end, 3, SchedStats::default(), None)
    }

    #[test]
    fn channel_and_socket_transports_merge_identically() {
        // Channel transport: no shared sink installed, so the worker
        // records locally and everything crosses as wire telemetry —
        // the same path the socket transport is forced onto.
        let mut channel = ChannelLink::spawn(
            7,
            space(),
            RuleParams::new(2, 1),
            Arc::new(Db::new()),
            true,
            Arc::default(),
        );
        let via_channel = drive(&mut channel);

        // Socket transport: the same worker served over a TCP stream by
        // another thread (the OS-process variant lives in dist_socket.rs;
        // the framing and clock domains are identical).
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut worker = ShardWorker::new(
                7,
                space(),
                RuleParams::new(2, 1),
                Arc::new(Db::new()),
                true,
                Arc::default(),
            );
            serve_connection(stream, &mut worker).expect("serve");
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut socket = SocketLink::connect(7, space(), stream).expect("handshake");
        let via_socket = drive(&mut socket);
        server.join().expect("server thread");

        let kinds = normalized_kinds(&via_channel);
        assert!(!kinds.is_empty(), "the script recorded spans");
        assert_eq!(
            kinds,
            normalized_kinds(&via_socket),
            "transport must not change the merged span structure"
        );
        assert_eq!(
            via_channel.worker_tracks, via_socket.worker_tracks,
            "same named tracks and drop accounting on both transports"
        );
        assert!(via_channel.decomposition.coverage() >= 0.95);
        assert!(via_socket.decomposition.coverage() >= 0.95);
    }
}
