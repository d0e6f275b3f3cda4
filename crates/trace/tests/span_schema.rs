//! Golden bytes of every span boundary, and arbitrary spans through both
//! span codecs.
//!
//! One [`RunTelemetry`] holds every [`SpanKind`] variant and every value
//! of every enum a span carries (all seven call kinds, both block
//! reasons, all three attempt outcomes with and without hedging, all
//! three boundary ops), every [`Counter`], a named worker track and a
//! critical-path bound. Each byte format that carries spans is digested:
//! the `AIMMSG v1` telemetry frame, the `AIMTEL v1` file, the Chrome
//! `trace.json` and the span JSONL. The literals were recorded before
//! the span layouts were described by one schema and must never be
//! edited: every format stays byte-for-byte the same.

use aim_core::dist::codec::{decode_shard, encode_shard};
use aim_core::dist::ShardMsg;
use aim_core::scheduler::SchedStats;
use aim_core::space::{GridSpace, Point};
use aim_core::telemetry::{
    BlockReason, BoundaryOp, Counter, RunTelemetry, Span, SpanKind, WorkerTrack,
};
use aim_llm::{AttemptOutcome, CallKind};
use aim_trace::telemetry::{read_telemetry, write_chrome_trace, write_jsonl, write_telemetry};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

struct Fnv(u64);

impl Fnv {
    fn digest(b: &[u8]) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for &x in b {
            h.0 = (h.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h.0
    }
}

const OUTCOMES: [AttemptOutcome; 3] = [
    AttemptOutcome::Served,
    AttemptOutcome::Failed,
    AttemptOutcome::Refused,
];
const OPS: [BoundaryOp; 3] = [BoundaryOp::Send, BoundaryOp::Wait, BoundaryOp::Apply];

/// Every span kind, every enum value, extreme field values included.
fn every_kind() -> Vec<SpanKind> {
    let mut kinds = vec![
        SpanKind::Cluster {
            cluster: u64::MAX,
            step: 7,
            members: 3,
        },
        SpanKind::Commit {
            cluster: 41,
            step: u32::MAX,
            members: 1,
        },
        SpanKind::Relink {
            agents: 1_000,
            workers: 4,
        },
        SpanKind::Migrate {
            agents: 12,
            crossings: 0,
        },
        SpanKind::Checkpoint { step: 288 },
        SpanKind::Control {
            cluster: 9,
            members: 2,
        },
    ];
    for (i, kind) in CallKind::ALL.into_iter().enumerate() {
        kinds.push(SpanKind::LlmCall {
            agent: i as u32,
            step: 3 + i as u32,
            request: 1 << (8 * i),
            kind,
        });
    }
    for (i, reason) in [BlockReason::Dependency, BlockReason::Barrier]
        .into_iter()
        .enumerate()
    {
        kinds.push(SpanKind::Blocked {
            agent: 5 + i as u32,
            blocker: if i == 0 { u32::MAX } else { 6 },
            step: 11,
            reason,
        });
    }
    for (i, outcome) in OUTCOMES.into_iter().enumerate() {
        for hedge in [false, true] {
            kinds.push(SpanKind::FleetAttempt {
                request: 100 + i as u64,
                replica: i as u32,
                hedge,
                outcome,
            });
        }
    }
    for (i, op) in OPS.into_iter().enumerate() {
        kinds.push(SpanKind::Boundary {
            worker: 2,
            op,
            messages: 1 + i as u32,
        });
    }
    kinds
}

fn golden_report() -> RunTelemetry {
    let spans = every_kind()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Span {
            start_us: 10 * i as u64,
            end_us: 10 * i as u64 + 3 + (i as u64 % 4),
            track: (i % 3) as u32,
            kind,
        })
        .collect();
    let counters = Counter::ALL
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, 1 + 3 * i as u64))
        .collect();
    let mut sched = SchedStats::default();
    sched.clusters_emitted = 17;
    sched.agent_steps = 40;
    sched.watcher_wakes = 5;
    sched.blocked_evals = 9;
    sched.max_step_skew = 3;
    sched.max_cluster_size = 4;
    let mut rt = RunTelemetry::from_spans(spans, 400, 8, 2, counters, sched, None);
    rt.set_critical_path(150);
    rt.set_worker_tracks(vec![WorkerTrack {
        track: 2,
        name: "worker 2 \"east\" (remote)".to_string(),
        dropped: 1,
    }]);
    rt
}

fn telemetry_frame(
    worker: u32,
    spans: Vec<Span>,
    counters: Vec<(Counter, u64)>,
) -> ShardMsg<Point> {
    ShardMsg::Telemetry {
        worker,
        now_us: 123_456_789,
        spans,
        counters,
        dropped: 3,
    }
}

fn aimmsg(msg: &ShardMsg<Point>) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_shard(&GridSpace::new(64, 64), msg, &mut buf);
    buf.to_vec()
}

fn aimtel(rt: &RunTelemetry) -> Vec<u8> {
    let mut buf = Vec::new();
    write_telemetry(rt, &mut buf).unwrap();
    buf
}

fn pinned(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), Fnv::digest(bytes))
}

#[test]
fn every_span_format_matches_the_recorded_golden() {
    let rt = golden_report();
    assert_eq!(
        rt.spans.len(),
        24,
        "the input covers every kind and enum value"
    );

    let frame = aimmsg(&telemetry_frame(2, rt.spans.clone(), rt.counters.clone()));
    let tel = aimtel(&rt);
    let mut chrome = Vec::new();
    write_chrome_trace(&rt, &mut chrome).unwrap();
    let mut jsonl = Vec::new();
    write_jsonl(&rt, &mut jsonl).unwrap();

    assert_eq!(
        pinned(&frame),
        (929, 15820699494824341767),
        "AIMMSG v1 telemetry frame"
    );
    assert_eq!(pinned(&tel), (1076, 15350603131198749360), "AIMTEL v1");
    assert_eq!(pinned(&chrome), (3731, 11567214106731944833), "trace.json");
    assert_eq!(pinned(&jsonl), (2704, 9022353760721554985), "span JSONL");
}

#[test]
fn the_golden_report_roundtrips_through_both_codecs() {
    let rt = golden_report();
    let back = read_telemetry(&mut std::io::Cursor::new(aimtel(&rt))).unwrap();
    assert_eq!(back, rt);
    let msg = telemetry_frame(2, rt.spans.clone(), rt.counters.clone());
    let mut rd = Bytes::from(aimmsg(&msg));
    assert_eq!(decode_shard(&GridSpace::new(64, 64), &mut rd).unwrap(), msg);
}

fn arb_span_kind() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(cluster, step, members)| {
            SpanKind::Cluster {
                cluster,
                step,
                members,
            }
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            0usize..CallKind::ALL.len()
        )
            .prop_map(|(agent, step, request, kind)| SpanKind::LlmCall {
                agent,
                step,
                request,
                kind: CallKind::ALL[kind],
            }),
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(cluster, step, members)| {
            SpanKind::Commit {
                cluster,
                step,
                members,
            }
        }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(
            |(agent, blocker, step, barrier)| SpanKind::Blocked {
                agent,
                blocker,
                step,
                reason: if barrier {
                    BlockReason::Barrier
                } else {
                    BlockReason::Dependency
                },
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(agents, workers)| SpanKind::Relink { agents, workers }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(agents, crossings)| SpanKind::Migrate { agents, crossings }),
        any::<u32>().prop_map(|step| SpanKind::Checkpoint { step }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            0usize..OUTCOMES.len()
        )
            .prop_map(
                |(request, replica, hedge, outcome)| SpanKind::FleetAttempt {
                    request,
                    replica,
                    hedge,
                    outcome: OUTCOMES[outcome],
                }
            ),
        (any::<u64>(), any::<u32>())
            .prop_map(|(cluster, members)| SpanKind::Control { cluster, members }),
        (any::<u32>(), 0usize..OPS.len(), any::<u32>()).prop_map(|(worker, op, messages)| {
            SpanKind::Boundary {
                worker,
                op: OPS[op],
                messages,
            }
        }),
    ]
}

/// Spans on distinct start times, so the report's sort by
/// `(start, end, track)` leaves one possible order.
fn arb_spans() -> impl Strategy<Value = Vec<Span>> {
    proptest::collection::vec((0u64..1 << 20, any::<u32>(), arb_span_kind()), 0..24).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (len, track, kind))| Span {
                    start_us: (i as u64) << 21,
                    end_us: ((i as u64) << 21) + len,
                    track,
                    kind,
                })
                .collect()
        },
    )
}

fn arb_counters() -> impl Strategy<Value = Vec<(Counter, u64)>> {
    proptest::collection::vec(
        (0usize..Counter::ALL.len(), any::<u64>()).prop_map(|(i, n)| (Counter::ALL[i], n)),
        0..6,
    )
}

proptest! {
    #[test]
    fn arbitrary_spans_roundtrip_through_aimmsg(
        worker in any::<u32>(),
        spans in arb_spans(),
        counters in arb_counters(),
    ) {
        let msg = telemetry_frame(worker, spans, counters);
        let mut rd = Bytes::from(aimmsg(&msg));
        let back = decode_shard(&GridSpace::new(64, 64), &mut rd).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert!(rd.is_empty());
    }

    #[test]
    fn arbitrary_spans_roundtrip_through_aimtel(
        spans in arb_spans(),
        counters in arb_counters(),
        agents in any::<u32>(),
        critical in (any::<bool>(), any::<u64>()),
    ) {
        let mut rt = RunTelemetry::from_spans(spans, 1 << 30, agents % 64, 0, counters, SchedStats::default(), None);
        if critical.0 {
            rt.set_critical_path(critical.1);
        }
        let back = read_telemetry(&mut std::io::Cursor::new(aimtel(&rt))).unwrap();
        prop_assert_eq!(back, rt);
    }
}
