//! Microbenchmarks of the `aim_core::telemetry` hot path.
//!
//! The subsystem's contract is that observability is cheap enough to
//! leave compiled in: an *enabled* span record is one clock read plus
//! one lock-free slot claim (`fetch_add` + release store), and a
//! *disabled* probe is a single relaxed atomic load returning `None`
//! before any clock or buffer work happens. These benches pin both
//! costs, plus the cold drain that `Telemetry::finish` pays once per
//! run. `bench_gate` holds the numbers to the same 5% regression
//! threshold as the scheduler benches — the disabled row is the one
//! that guards "telemetry off costs nothing".

use std::hint::black_box;
use std::sync::Arc;

use aim_core::telemetry::{SpanKind, Telemetry};
use aim_llm::CallKind;
use criterion::{criterion_group, criterion_main, Criterion};

/// A representative hot-path span: the per-agent LLM call record.
fn llm_span(i: u64) -> SpanKind {
    SpanKind::LlmCall {
        agent: (i % 1_000) as u32,
        step: (i / 1_000) as u32,
        request: i,
        kind: CallKind::Plan,
    }
}

/// Enabled-path record: `start()` + `record()` through a per-thread
/// recorder, exactly as a worker thread emits spans mid-run. The buffer
/// is sized so the loop never overflows (overflow is counted, not
/// blocking, but we want the claim+store cost, not the drop path).
fn bench_record_span(c: &mut Criterion) {
    let tel = Arc::new(Telemetry::with_capacity(1 << 22));
    let rec = tel.recorder();
    let mut i = 0u64;
    c.bench_function("telemetry/record_span", |b| {
        b.iter(|| {
            let t0 = rec.start().expect("enabled");
            rec.record(t0, black_box(llm_span(i)));
            i += 1;
        });
    });
}

/// Disabled-path probe: the exact instrumentation shape every hot site
/// uses — `start()` returns `None` and the record never happens. This
/// is the cost telemetry adds to a run that never asked for it, and the
/// number that must not move for `scheduler/emit_complete_cycle_1000`
/// to stay inside the gate.
fn bench_disabled_noop(c: &mut Criterion) {
    let tel = Arc::new(Telemetry::new());
    tel.set_enabled(false);
    let rec = tel.recorder();
    let mut i = 0u64;
    c.bench_function("telemetry/disabled_noop", |b| {
        b.iter(|| {
            if let Some(t0) = rec.start() {
                rec.record(t0, llm_span(i));
            }
            i += 1;
            black_box(i)
        });
    });
}

/// Cold drain: fill a buffer with 4096 spans and collect them sorted,
/// the once-per-run cost `finish` pays. Per-iteration time therefore
/// covers record×4096 + drain×1.
fn bench_drain(c: &mut Criterion) {
    let tel = Arc::new(Telemetry::with_capacity(1 << 13));
    let rec = tel.recorder();
    c.bench_function("telemetry/record_4096_drain", |b| {
        b.iter(|| {
            for i in 0..4_096u64 {
                let t0 = rec.start().expect("enabled");
                rec.record(t0, llm_span(i));
            }
            black_box(tel.drain_spans().len())
        });
    });
}

/// A realistic harvest reply: 256 worker-side apply spans plus the
/// counter deltas one quiesce-barrier drain ships.
fn harvest_reply() -> aim_core::dist::ShardMsg<aim_core::space::Point> {
    use aim_core::telemetry::{BoundaryOp, Counter, Span};
    aim_core::dist::ShardMsg::Telemetry {
        worker: 3,
        now_us: 123_456_789,
        spans: (0..256u64)
            .map(|i| Span {
                start_us: i * 100,
                end_us: i * 100 + 37,
                track: 0,
                kind: SpanKind::Boundary {
                    worker: 3,
                    op: BoundaryOp::Apply,
                    messages: 1,
                },
            })
            .collect(),
        counters: vec![
            (Counter::BoundaryMessages, 256),
            (Counter::RelinkBatches, 16),
        ],
        dropped: 0,
    }
}

/// `AIMMSG v1` encode of one harvest reply — the wire cost a worker pays
/// per quiesce-barrier drain (256 spans ≈ a full barrier interval).
fn bench_harvest_encode(c: &mut Criterion) {
    use aim_core::dist::codec;
    use bytes::BytesMut;
    let space = aim_core::space::GridSpace::new(64, 64);
    let msg = harvest_reply();
    c.bench_function("telemetry/harvest_encode", |b| {
        b.iter(|| {
            let mut buf = BytesMut::new();
            codec::encode_shard(&space, black_box(&msg), &mut buf);
            black_box(buf.len())
        });
    });
}

/// `AIMMSG v1` decode of the same harvest reply — the controller-side
/// cost of folding one worker's drain into the merged timeline.
fn bench_harvest_decode(c: &mut Criterion) {
    use aim_core::dist::codec;
    use bytes::{Bytes, BytesMut};
    let space = aim_core::space::GridSpace::new(64, 64);
    let msg = harvest_reply();
    let mut buf = BytesMut::new();
    codec::encode_shard(&space, &msg, &mut buf);
    let encoded = Bytes::from(buf.freeze());
    c.bench_function("telemetry/harvest_decode", |b| {
        b.iter(|| {
            let mut rd = encoded.clone();
            black_box(codec::decode_shard(&space, &mut rd).unwrap())
        });
    });
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_record_span,
    bench_disabled_noop,
    bench_drain,
    bench_harvest_encode,
    bench_harvest_decode
);
criterion_main!(benches);
