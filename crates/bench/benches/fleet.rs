//! Microbenchmarks of the serving fleet: per-call routing overhead by
//! policy and fleet width, and latency-profile sampling cost.

use std::hint::black_box;

use aim_llm::{
    CallKind, FleetConfig, LatencyProfile, LlmBackend, LlmRequest, ReplayBackend, ReplicaSpec,
    RequestId, RoutePolicyKind,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn req(i: u64) -> LlmRequest {
    let r = LlmRequest::new(
        RequestId(i),
        (i % 64) as u32,
        i % 10,
        640,
        20,
        CallKind::Plan,
    );
    if i % 5 == 0 {
        r.interactive()
    } else {
        r
    }
}

/// Routing + bookkeeping cost per call: the replicas are instant, so the
/// measured time is the fleet layer itself.
fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet/route");
    for policy in RoutePolicyKind::ALL {
        for width in [2usize, 8, 32] {
            let mut cfg = FleetConfig::new("bench", policy);
            for i in 0..width {
                let replica = ReplicaSpec::instant();
                // Half the fleet tagged, so lane-aware has real partitions.
                cfg = cfg.with_replica(if i % 2 == 0 {
                    replica.interactive()
                } else {
                    replica
                });
            }
            let fleet = cfg.build();
            g.bench_with_input(BenchmarkId::new(policy.as_str(), width), &width, |b, _| {
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    black_box(fleet.call(black_box(&req(i))))
                });
            });
        }
    }
    g.finish();
}

/// Deterministic sampling cost of the replay backend over a large
/// recorded distribution.
fn bench_replay_sample(c: &mut Criterion) {
    let mut profile = LatencyProfile::new("bench");
    for kind in CallKind::ALL {
        for i in 0..4_096u64 {
            profile.push(kind, 10_000 + i * 7);
        }
    }
    let backend = ReplayBackend::unpaced(profile, 42);
    c.bench_function("fleet/replay_sample", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(backend.planned_latency_us(black_box(&req(i))))
        });
    });
    c.bench_function("fleet/replay_call", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(backend.call(black_box(&req(i))))
        });
    });
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_route,
    bench_replay_sample
);
criterion_main!(benches);
