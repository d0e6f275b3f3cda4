//! End-to-end tests for the HTTP health plane: a healthy observed run
//! serves all three routes, a wedged run (completed waits, no commits)
//! trips the stall watchdog via the server's own ticker — `/healthz`
//! flips to 503 and `/status` names the blocking edge — a request line
//! that never ends is refused at its cap, and a client that connects and
//! sends nothing does not hold up anyone else's probe.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aim_core::health::{HealthBoard, Watchdog, WorkerHealth};
use aim_core::telemetry::{BlockReason, SpanKind, Telemetry};
use aim_serve::{RunStatus, StatusServer};
use aim_trace::telemetry::validate_json;

mod common;
use common::get;

#[test]
fn healthy_run_serves_all_three_routes() {
    let telemetry = Arc::new(Telemetry::new());
    telemetry.record(
        telemetry.now_us(),
        SpanKind::Commit {
            cluster: 0,
            step: 3,
            members: 2,
        },
    );
    let board = Arc::new(HealthBoard::new());
    board.record_heartbeat(WorkerHealth {
        worker: 0,
        name: "worker 0".into(),
        alive: true,
        last_seen_us: board.now_us(),
        last_applied_step: Some(3),
        queue_depth: 0,
        members: 2,
        span_overflow: 0,
    });
    let source = Arc::new(RunStatus::new(
        "observed run",
        2,
        Arc::clone(&telemetry),
        Arc::clone(&board),
        Arc::new(Watchdog::new(60_000_000)),
    ));
    let server =
        StatusServer::start(0, Arc::clone(&source)).expect("bind an ephemeral loopback port");

    let (code, body) = get(server.addr(), "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    let (code, metrics) = get(server.addr(), "/metrics");
    assert_eq!(code, 200);
    assert!(metrics.contains("aim_spans_total"), "{metrics}");
    assert!(metrics.contains("aim_stalled 0\n"), "{metrics}");
    assert!(
        metrics.contains("aim_worker_alive{worker=\"worker 0\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("aim_worker_members{worker=\"worker 0\"} 2\n"),
        "{metrics}"
    );
    // Well-formed exposition: every line is `# TYPE <name>
    // (counter|gauge)` or `<name>[{labels}] <u64>`, and every sample's
    // name is typed exactly once, before its first sample.
    let is_name = |n: &str| !n.is_empty() && n.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
    let mut typed = HashSet::new();
    for line in metrics.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').unwrap_or_default();
            assert!(
                is_name(name) && matches!(kind, "counter" | "gauge"),
                "malformed type line {line:?}"
            );
            assert!(typed.insert(name), "{name} typed twice");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_default();
        let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
        let labels_close = labels.strip_suffix('}').is_some_and(|l| !l.contains('}'));
        assert!(
            is_name(name) && labels_close && value.parse::<u64>().is_ok(),
            "malformed sample line {line:?}"
        );
        assert!(typed.contains(name), "{name} sampled before its type line");
    }

    let (code, status) = get(server.addr(), "/status");
    assert_eq!(code, 200);
    validate_json(&status).expect("/status is valid JSON");
    assert!(status.contains("\"label\":\"observed run\""), "{status}");
    assert!(status.contains("\"healthy\":true"), "{status}");
    assert!(status.contains("\"last_commit\":{\"us\":"), "{status}");
    assert!(status.contains("\"stall\":null"), "{status}");
    assert!(status.contains("\"worker\":0"), "{status}");
    assert!(status.contains("\"last_applied_step\":3"), "{status}");

    let (code, _) = get(server.addr(), "/nope");
    assert_eq!(code, 404);

    // Satellite check: a healthy run's watchdog never fires, no matter
    // how many ticks and scrapes have run it.
    assert!(source.stall_report().is_none());
    drop(server);
}

#[test]
fn wedged_run_flips_healthz_and_names_the_blocking_edge() {
    let telemetry = Arc::new(Telemetry::new());
    // Completed waits but no commit, ever: agent 4 waited on agent 6.
    let start = telemetry.now_us();
    telemetry.record_at(
        start,
        start + 800,
        SpanKind::Blocked {
            agent: 4,
            blocker: 6,
            step: 2,
            reason: BlockReason::Dependency,
        },
    );
    let source = Arc::new(RunStatus::new(
        "wedged run",
        8,
        Arc::clone(&telemetry),
        Arc::new(HealthBoard::new()),
        Arc::new(Watchdog::new(1_000)),
    ));
    std::thread::sleep(Duration::from_millis(5));
    let server =
        StatusServer::start(0, Arc::clone(&source)).expect("bind an ephemeral loopback port");

    // The server's own ticker must run the watchdog — no /status scrape
    // before the flip, only the passive health probe.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (code, _) = get(server.addr(), "/healthz");
        if code == 503 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never fired within its budget"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (code, status) = get(server.addr(), "/status");
    assert_eq!(code, 200);
    validate_json(&status).expect("/status is valid JSON");
    assert!(status.contains("\"healthy\":false"), "{status}");
    assert!(status.contains("\"stall\":{\"stalled_us\":"), "{status}");
    assert!(status.contains("\"last_step\":null"), "{status}");
    assert!(
        status.contains("\"agent\":4,\"blocker\":6,\"reason\":\"dependency\""),
        "{status}"
    );

    let (_, metrics) = get(server.addr(), "/metrics");
    assert!(metrics.contains("aim_stalled 1\n"), "{metrics}");

    let report = source.stall_report().expect("report cached for /status");
    assert!(report.stalled_us >= 1_000);
    drop(server);
}

#[test]
fn an_unterminated_request_line_is_refused_at_its_cap() {
    let source = Arc::new(RunStatus::new(
        "observed run",
        1,
        Arc::new(Telemetry::new()),
        Arc::new(HealthBoard::new()),
        Arc::new(Watchdog::new(60_000_000)),
    ));
    let server = StatusServer::start(0, source).expect("bind an ephemeral loopback port");

    // 64 KiB and no newline, with the socket kept open: the server must
    // answer at its 8 KiB cap rather than wait for the rest of the line.
    let mut stream = TcpStream::connect(server.addr()).expect("connect to status server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    // The server may close before taking every byte; the answer is what
    // counts, so a write cut short by that close is not a failure.
    let _ = stream.write_all(&vec![b'a'; 64 * 1024]);
    let mut raw = Vec::new();
    // Bytes the server never read make its close a reset, which surfaces
    // here as an error after the response has been read.
    let _ = stream.read_to_end(&mut raw);
    let raw = String::from_utf8_lossy(&raw);
    assert!(
        raw.starts_with("HTTP/1.1 414 URI Too Long\r\n"),
        "expected a 414 status line, got {raw:?}"
    );

    let (code, body) = get(server.addr(), "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    drop(stream);
    drop(server);
}

#[test]
fn an_idle_connection_does_not_hold_up_healthz() {
    let source = Arc::new(RunStatus::new(
        "observed run",
        1,
        Arc::new(Telemetry::new()),
        Arc::new(HealthBoard::new()),
        Arc::new(Watchdog::new(60_000_000)),
    ));
    let server = StatusServer::start(0, source).expect("bind an ephemeral loopback port");

    // Connected first and silent: the server may wait out its read
    // timeout on this socket, but not before answering the next one.
    let idle = TcpStream::connect(server.addr()).expect("connect to status server");
    let started = Instant::now();
    let (code, body) = get(server.addr(), "/healthz");
    let waited = started.elapsed();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    assert!(
        waited < Duration::from_millis(500),
        "/healthz waited {waited:?} behind an idle connection"
    );
    drop(idle);
    drop(server);
}

#[test]
fn connections_past_the_cap_are_answered_busy() {
    let source = Arc::new(RunStatus::new(
        "observed run",
        1,
        Arc::new(Telemetry::new()),
        Arc::new(HealthBoard::new()),
        Arc::new(Watchdog::new(60_000_000)),
    ));
    let server = StatusServer::start(0, source).expect("bind an ephemeral loopback port");

    // Four silent clients fill every serving slot; the fifth connection
    // is answered by the accept thread itself.
    let idle: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(server.addr()).expect("connect to status server"))
        .collect();
    let (code, body) = get(server.addr(), "/healthz");
    assert_eq!((code, body.as_str()), (503, "busy\n"));

    // Closing them frees the slots again.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(5);
    while get(server.addr(), "/healthz").0 != 200 {
        assert!(Instant::now() < deadline, "slots never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(server);
}
