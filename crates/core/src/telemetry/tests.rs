use std::sync::Arc;

use aim_llm::{CallKind, InstantBackend, LlmBackend, LlmRequest, RequestId, VirtualTime};

use super::*;
use crate::ids::{AgentId, Step};
use crate::scheduler::SchedStats;

fn span(start: u64, end: u64, kind: SpanKind) -> Span {
    Span {
        start_us: start,
        end_us: end,
        track: 0,
        kind,
    }
}

fn llm(agent: u32, start: u64, end: u64) -> Span {
    span(
        start,
        end,
        SpanKind::LlmCall {
            agent,
            step: 0,
            request: 0,
            kind: CallKind::Plan,
        },
    )
}

#[test]
fn disabled_sink_records_nothing() {
    let tel = Arc::new(Telemetry::new());
    tel.set_enabled(false);
    assert_eq!(tel.start(), None);
    tel.record(0, SpanKind::Checkpoint { step: 0 });
    tel.counter_add(Counter::LlmCalls, 5);
    let rec = tel.recorder();
    assert_eq!(rec.start(), None);
    rec.record(0, SpanKind::Checkpoint { step: 0 });
    assert!(tel.drain_spans().is_empty());
    assert_eq!(tel.counter(Counter::LlmCalls), 0);
}

#[test]
fn spans_record_and_drain_sorted() {
    let tel = Arc::new(Telemetry::new());
    let rec = tel.recorder();
    tel.record_at(10, 20, SpanKind::Checkpoint { step: 1 });
    rec.record_at(
        0,
        5,
        SpanKind::Relink {
            agents: 3,
            workers: 1,
        },
    );
    let spans = tel.drain_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].start_us, 0);
    assert_eq!(spans[0].track, 1, "recorder writes its own track");
    assert_eq!(spans[1].track, 0, "shared buffer is track 0");
    assert_eq!(tel.dropped(), 0);
}

#[test]
fn overflow_drops_and_counts() {
    let tel = Arc::new(Telemetry::with_capacity(2));
    for i in 0..5 {
        tel.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
    }
    assert_eq!(tel.drain_spans().len(), 2);
    assert_eq!(tel.dropped(), 3);
}

#[test]
fn flight_ring_retains_overflow_tail() {
    let tel = Arc::new(Telemetry::with_capacity(2));
    for i in 0..10u64 {
        tel.record_at(i * 10, i * 10 + 5, SpanKind::Checkpoint { step: i as u32 });
    }
    assert_eq!(tel.dropped(), 8);
    assert_eq!(tel.flight_missed(), 0);
    // Buffered head plus every overflow span is retained.
    assert_eq!(tel.flight_tail(usize::MAX).len(), 10);
    // The limit keeps the *latest* spans, not the earliest.
    let tail = tel.flight_tail(3);
    assert_eq!(tail.len(), 3);
    assert_eq!(tail[0].start_us, 70);
    assert_eq!(tail[2].start_us, 90);
    // The crash report rebases to the earliest retained span.
    let report = tel.flight_report(4);
    assert_eq!(report.spans.len(), 10);
    assert_eq!(report.spans[0].start_us, 0);
    assert_eq!(report.agents, 4);
    assert_eq!(report.dropped, 8);
}

#[test]
fn flight_ring_is_bounded_to_latest() {
    let tel = Arc::new(Telemetry::with_capacity(1));
    for i in 0..(DEFAULT_FLIGHT_SPANS as u64 + 100) {
        tel.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
    }
    let tail = tel.flight_tail(usize::MAX);
    // 1 buffered + a full ring of the most recent overflow spans.
    assert_eq!(tail.len(), 1 + DEFAULT_FLIGHT_SPANS);
    assert_eq!(
        tail.last().unwrap().start_us,
        DEFAULT_FLIGHT_SPANS as u64 + 99
    );
}

#[test]
fn commit_watermark_tracks_every_record_path() {
    let tel = Arc::new(Telemetry::new());
    assert_eq!(tel.last_commit(), None);
    tel.record_at(
        5,
        9,
        SpanKind::Commit {
            cluster: 1,
            step: 3,
            members: 2,
        },
    );
    assert_eq!(tel.last_commit(), Some((9, 3)));
    // Commits flow through per-thread recorders in the threaded
    // executor — the watermark must see those too.
    let rec = tel.recorder();
    rec.record_at(
        10,
        20,
        SpanKind::Commit {
            cluster: 2,
            step: 7,
            members: 1,
        },
    );
    assert_eq!(tel.last_commit(), Some((20, 7)));
    // Non-commit spans never move the watermark.
    tel.record_at(30, 40, SpanKind::Checkpoint { step: 9 });
    assert_eq!(tel.last_commit(), Some((20, 7)));
}

#[test]
fn overflow_accounting_is_consistent_across_harvests() {
    // Worker side: a small local buffer harvested incrementally.
    let worker = Arc::new(Telemetry::with_capacity(4));
    let mut cursor = Vec::new();
    for i in 0..3u64 {
        worker.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
    }
    let first = worker.drain_new_spans(&mut cursor);
    assert_eq!(first.len(), 3);
    assert_eq!(worker.dropped(), 0);
    // Overflow between harvests: one more slot fits, three drop.
    for i in 3..7u64 {
        worker.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
    }
    let second = worker.drain_new_spans(&mut cursor);
    assert_eq!(second.len(), 1, "incremental drain never re-ships");
    assert_eq!(worker.dropped(), 3, "dropped is an absolute total");
    let third = worker.drain_new_spans(&mut cursor);
    assert!(third.is_empty());
    assert_eq!(worker.dropped(), 3, "absolute total is monotone");

    // Controller side: repeated absolute reports never double-count.
    let ctrl = Arc::new(Telemetry::new());
    let track = ctrl.remote_track("worker 0 (remote)");
    ctrl.ingest(track, &first, 0);
    ctrl.set_remote_dropped(track, 0);
    ctrl.ingest(track, &second, 0);
    ctrl.set_remote_dropped(track, 3);
    ctrl.set_remote_dropped(track, 3); // next harvest, unchanged
    assert_eq!(ctrl.dropped(), 3);
    assert_eq!(ctrl.drain_spans().len(), 4);
}

#[test]
fn concurrent_producers_lose_nothing_within_capacity() {
    let tel = Arc::new(Telemetry::with_capacity(1 << 12));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let tel = Arc::clone(&tel);
            std::thread::spawn(move || {
                for i in 0..256u64 {
                    tel.record_at(
                        i,
                        i + 1,
                        SpanKind::LlmCall {
                            agent: t,
                            step: 0,
                            request: i,
                            kind: CallKind::Plan,
                        },
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(tel.drain_spans().len(), 8 * 256);
    assert_eq!(tel.dropped(), 0);
}

#[test]
fn histogram_buckets_and_percentiles() {
    let mut h = PhaseHistogram::default();
    for us in [1, 2, 4, 1000] {
        h.record(us);
    }
    assert_eq!(h.count, 4);
    assert_eq!(h.total_us, 1007);
    assert_eq!(h.max_us, 1000);
    assert_eq!(h.mean_us(), 251);
    assert!(h.p99_us() >= 1000);
    assert_eq!(h.percentile_us(25), 2, "1µs lands in bucket [1,2)");
}

#[test]
fn decomposition_covers_full_budget() {
    // Agent 0: 40µs llm + 30µs blocked; agent 1: 20µs llm.
    // 10µs checkpoint charged to both. Wall 100µs.
    let spans = vec![
        llm(0, 0, 40),
        span(
            40,
            70,
            SpanKind::Blocked {
                agent: 0,
                blocker: 1,
                step: 0,
                reason: BlockReason::Dependency,
            },
        ),
        llm(1, 0, 20),
        span(80, 90, SpanKind::Checkpoint { step: 1 }),
    ];
    let rt = RunTelemetry::from_spans(spans, 100, 2, 0, Vec::new(), SchedStats::default(), None);
    let d = rt.decomposition;
    assert_eq!(d.llm_us, 60);
    assert_eq!(d.blocked_us, 30);
    assert_eq!(d.checkpoint_us, 20, "charged to every agent");
    assert_eq!(d.overhead_us, 200 - 60 - 30 - 20);
    assert!((d.coverage() - 1.0).abs() < 1e-9);
    let per = rt.per_agent();
    assert_eq!(per[0].llm_us, 40);
    assert_eq!(per[1].overhead_us, 100 - 20 - 10);
}

#[test]
fn stall_edges_aggregate_and_rank() {
    let blocked = |agent, blocker, start, end| {
        span(
            start,
            end,
            SpanKind::Blocked {
                agent,
                blocker,
                step: 0,
                reason: BlockReason::Dependency,
            },
        )
    };
    let rt = RunTelemetry::from_spans(
        vec![
            blocked(1, 0, 0, 10),
            blocked(1, 0, 20, 50),
            blocked(2, 0, 0, 5),
        ],
        100,
        3,
        0,
        Vec::new(),
        SchedStats::default(),
        None,
    );
    let edges = rt.stall_edges(10);
    assert_eq!(edges.len(), 2);
    assert_eq!((edges[0].agent, edges[0].blocker), (1, 0));
    assert_eq!(edges[0].count, 2);
    assert_eq!(edges[0].total_us, 40);
    assert_eq!(rt.stall_edges(1).len(), 1);
}

#[test]
fn timeline_derives_from_llm_spans() {
    let rt = RunTelemetry::from_spans(
        vec![
            llm(3, 5, 25),
            span(
                25,
                30,
                SpanKind::Commit {
                    cluster: 0,
                    step: 0,
                    members: 1,
                },
            ),
        ],
        100,
        4,
        0,
        Vec::new(),
        SchedStats::default(),
        None,
    );
    let tl = rt.timeline();
    assert_eq!(tl.spans.len(), 1);
    assert_eq!(tl.spans[0].agent, AgentId(3));
    assert_eq!(tl.spans[0].end, VirtualTime::from_micros(25));
    assert_eq!(tl.commits, vec![(Step(0), VirtualTime::from_micros(30))]);
}

#[test]
fn llm_floor_and_slowdown() {
    let rt = RunTelemetry::from_spans(
        vec![llm(0, 0, 30), llm(0, 40, 70), llm(1, 0, 50)],
        120,
        2,
        0,
        Vec::new(),
        SchedStats::default(),
        None,
    );
    assert_eq!(rt.llm_floor_us(), 60, "agent 0's serial llm time");
    assert!((rt.slowdown_vs_critical().unwrap() - 2.0).abs() < 1e-9);
    let mut rt = rt;
    rt.set_critical_path(40);
    assert!((rt.slowdown_vs_critical().unwrap() - 3.0).abs() < 1e-9);
}

#[test]
fn telemetry_backend_records_calls_transparently() {
    let tel = Arc::new(Telemetry::new());
    let inner = Arc::new(InstantBackend::new());
    let backend = TelemetryBackend::new(inner.clone(), Arc::clone(&tel));
    let req = LlmRequest::new(RequestId(7), 3, 2, 64, 8, CallKind::Reflect);
    let resp = backend.call(&req);
    assert_eq!(resp.output_tokens, 8);
    assert_eq!(backend.describe(), "instant");
    assert_eq!(inner.calls(), 1);
    assert_eq!(tel.counter(Counter::LlmCalls), 1);
    let spans = tel.drain_spans();
    assert_eq!(spans.len(), 1);
    assert_eq!(
        spans[0].kind,
        SpanKind::LlmCall {
            agent: 3,
            step: 2,
            request: 7,
            kind: CallKind::Reflect
        }
    );
}

#[test]
fn remote_tracks_merge_rebased_and_account_drops() {
    let tel = Arc::new(Telemetry::new());
    let track = tel.remote_track("worker 7 (remote)");
    assert!(track > 0, "remote tracks never alias the shared buffer");
    assert_eq!(
        tel.remote_track("worker 7 (remote)"),
        track,
        "idempotent by name"
    );
    // Remote clock runs 50µs behind: offset +50 lands it on ours.
    tel.ingest(track, &[span(10, 30, SpanKind::Checkpoint { step: 2 })], 50);
    // A negative offset that would underflow clamps to 0.
    tel.ingest(
        track,
        &[span(10, 30, SpanKind::Checkpoint { step: 3 })],
        -20,
    );
    tel.set_remote_dropped(track, 4);
    tel.set_remote_dropped(track, 2); // absolute: keeps the max
    let spans = tel.drain_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].start_us, spans[0].end_us), (0, 10));
    assert_eq!((spans[1].start_us, spans[1].end_us), (60, 80));
    assert!(spans.iter().all(|s| s.track == track));
    assert_eq!(tel.dropped(), 4, "worker-reported drops are counted");
    let rt = tel.finish(0, 100, 1, SchedStats::default(), None);
    assert_eq!(rt.dropped, 4);
    assert_eq!(
        rt.worker_tracks,
        vec![WorkerTrack {
            track,
            name: "worker 7 (remote)".to_string(),
            dropped: 4,
        }]
    );
    assert_eq!(rt.track_name(track), Some("worker 7 (remote)"));
    assert_eq!(rt.track_name(0), None);
}

#[test]
fn ingest_unknown_track_is_ignored() {
    let tel = Arc::new(Telemetry::new());
    tel.ingest(9, &[span(0, 1, SpanKind::Checkpoint { step: 0 })], 0);
    tel.set_remote_dropped(9, 100);
    assert!(tel.drain_spans().is_empty());
    assert_eq!(tel.dropped(), 0);
}

#[test]
fn drain_new_spans_is_incremental() {
    let tel = Arc::new(Telemetry::new());
    let rec = tel.recorder();
    let mut cursor = Vec::new();
    tel.record_at(0, 1, SpanKind::Checkpoint { step: 0 });
    rec.record_at(2, 3, SpanKind::Checkpoint { step: 1 });
    assert_eq!(tel.drain_new_spans(&mut cursor).len(), 2);
    assert_eq!(tel.drain_new_spans(&mut cursor).len(), 0, "nothing new");
    tel.record_at(4, 5, SpanKind::Checkpoint { step: 2 });
    let fresh = tel.drain_new_spans(&mut cursor);
    assert_eq!(fresh.len(), 1);
    assert_eq!(fresh[0].kind, SpanKind::Checkpoint { step: 2 });
    // The full drain still sees everything (non-destructive).
    assert_eq!(tel.drain_spans().len(), 3);
}

#[test]
fn snapshot_samples_counts_without_spans() {
    let tel = Arc::new(Telemetry::new());
    tel.record_at(0, 1, SpanKind::Checkpoint { step: 0 });
    tel.counter_add(Counter::LlmCalls, 3);
    let snap = tel.snapshot();
    assert_eq!(snap.spans, 1);
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.buffers, 1);
    assert_eq!(snap.counter(Counter::LlmCalls), 3);
    assert_eq!(snap.counter(Counter::FleetHedges), 0);
    assert!(snap.at_us >= 1 || snap.at_us == 0);
}

#[test]
fn finish_rebases_onto_run_window() {
    let tel = Arc::new(Telemetry::new());
    let start = tel.now_us();
    tel.record_at(start + 10, start + 20, SpanKind::Checkpoint { step: 0 });
    let rt = tel.finish(start, start + 100, 1, SchedStats::default(), None);
    assert_eq!(rt.wall_us, 100);
    assert_eq!(rt.spans[0].start_us, 10);
    assert_eq!(rt.spans[0].end_us, 20);
    assert_eq!(rt.decomposition.checkpoint_us, 10);
    assert!(rt.phase(Phase::Checkpoint).is_some());
    assert_eq!(rt.phase(Phase::Llm), None);
}

#[test]
fn flight_tail_under_concurrent_overflow_returns_only_offered_spans() {
    // Four producers overflow a 1-slot buffer while a reader takes the
    // flight tail in a loop. Each offered span ties its fields together
    // (`request` = agent << 32 | step, `start_us` = request, `end_us` =
    // start + agent + 1), so a span pieced together from two offers
    // cannot pass. 4 × 1000 − 1 offers fit the ring without reusing a
    // slot, so every offer is either retained or counted as missed.
    const PER_THREAD: u32 = 1_000;
    fn offered(s: &Span) -> bool {
        let SpanKind::LlmCall {
            agent,
            step,
            request,
            kind: CallKind::Plan,
        } = s.kind
        else {
            return false;
        };
        agent < 4
            && step < PER_THREAD
            && request == (u64::from(agent) << 32 | u64::from(step))
            && s.start_us == request
            && s.end_us == request + u64::from(agent) + 1
    }
    assert!(4 * PER_THREAD as usize - 1 <= DEFAULT_FLIGHT_SPANS);
    let tel = Arc::new(Telemetry::with_capacity(1));
    let start = Arc::new(std::sync::Barrier::new(5));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let (tel, start, done) = (Arc::clone(&tel), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            start.wait();
            let mut reads = 0u64;
            while !done.load(std::sync::atomic::Ordering::Acquire) || reads == 0 {
                let tail = tel.flight_tail(usize::MAX);
                assert!(tail.iter().all(offered), "a span no producer offered");
                reads += 1;
            }
            reads
        })
    };
    let producers: Vec<_> = (0..4u32)
        .map(|agent| {
            let (tel, start) = (Arc::clone(&tel), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for step in 0..PER_THREAD {
                    let request = u64::from(agent) << 32 | u64::from(step);
                    tel.record_at(
                        request,
                        request + u64::from(agent) + 1,
                        SpanKind::LlmCall {
                            agent,
                            step,
                            request,
                            kind: CallKind::Plan,
                        },
                    );
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::Release);
    assert!(reader.join().unwrap() > 0);
    let tail = tel.flight_tail(usize::MAX);
    assert!(tail.iter().all(offered));
    assert_eq!(tel.dropped(), 4 * u64::from(PER_THREAD) - 1);
    assert_eq!(
        (tail.len() - 1) as u64 + tel.flight_missed(),
        tel.dropped(),
        "every offer is retained or counted as missed"
    );
}
