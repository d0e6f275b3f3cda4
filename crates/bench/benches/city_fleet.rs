//! Microbenchmarks of the fleet machinery the city-over-fleet loop
//! leans on per call: prefix-LRU observation (hit, miss, and eviction
//! paths), prefix-affinity routing, the full fleet-call path with prefix
//! accounting and a `fail_after` budget armed, and that path over
//! simulated engines with concurrent callers waiting on each other.
//!
//! The `repro city-fleet` experiment measures the closed loop
//! end-to-end; these benches isolate the per-call costs so a regression
//! in any one layer is attributable.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use aim_llm::{
    presets, CallKind, FleetConfig, LlmBackend, LlmRequest, PrefixTracker, ReplicaSpec,
    ReplicaView, RequestId, RoutePolicyKind, ServerConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn req(i: u64, agents: u64) -> LlmRequest {
    LlmRequest::new(
        RequestId(i),
        (i % agents) as u32,
        i % 10,
        640,
        20,
        CallKind::Plan,
    )
    .with_template(((i % agents) % 5) as u32, 320)
}

/// Prefix-tracker observation cost. `resident` keeps every agent
/// resident (pure hit path); `thrash` sizes the LRU at half the agent
/// population so half the observations evict — the city experiment's
/// round-robin regime.
fn bench_prefix_observe(c: &mut Criterion) {
    let mut g = c.benchmark_group("city_fleet/prefix_observe");
    for (label, agents, entries) in [("resident", 512u64, 2_048usize), ("thrash", 512, 256)] {
        let mut tracker = PrefixTracker::new(entries);
        // Warm to steady state so the bench measures neither a cold
        // cache nor unbounded growth.
        for i in 0..(agents * 4) {
            tracker.observe(
                (i % agents) as u32,
                Some(((i % agents) % 5) as u32),
                640,
                320,
            );
        }
        let mut i = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(label), &entries, |b, _| {
            b.iter(|| {
                i = i.wrapping_add(1);
                let agent = (i % agents) as u32;
                black_box(tracker.observe(agent, Some((agent % 5) as u32), 640, 320))
            });
        });
    }
    g.finish();
}

/// Prefix-affinity pick cost by fleet width, including the linear probe
/// over availability (one replica in eight marked down).
fn bench_route_affinity(c: &mut Criterion) {
    let mut g = c.benchmark_group("city_fleet/route_affinity");
    for width in [2usize, 8, 32] {
        let views: Vec<ReplicaView> = (0..width)
            .map(|id| ReplicaView {
                id,
                outstanding: id % 3,
                outstanding_tokens: (id as u64) * 640,
                interactive: false,
                available: id % 8 != 7,
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        let mut i = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(RoutePolicyKind::PrefixAffinity.route(&cursor, &req(i, 512), &views))
            });
        });
    }
    g.finish();
}

/// The full fleet-call path over instant replicas: routing, the budget
/// check, prefix accounting, latency histogram — everything but the
/// model. `faulted` arms a never-firing `fail_after` budget on every
/// replica so the armed check is on the call path.
fn bench_fleet_call(c: &mut Criterion) {
    let mut g = c.benchmark_group("city_fleet/fleet_call");
    for (label, fail_after) in [("clean", None), ("faulted", Some(u64::MAX))] {
        let mut cfg = FleetConfig::new("bench", RoutePolicyKind::PrefixAffinity)
            .with_prefix_lru_entries(1_024);
        for _ in 0..4 {
            let replica = ReplicaSpec::instant();
            cfg = cfg.with_replica(match fail_after {
                Some(n) => replica.fail_after(n),
                None => replica,
            });
        }
        let fleet = cfg.build();
        let mut i = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(fleet.call(&req(i, 512)))
            });
        });
    }
    g.finish();
}

/// The wait path: one call through a two-replica fleet of simulated
/// engines at the live city's 5·10⁶× speed-up, timed on one thread while
/// `threads - 1` others call the same fleet in a loop beside it. Every
/// engine event (a run end) is nanoseconds of wall time away, so what is
/// measured is the lock, the pump and how callers wait for each other.
fn bench_realtime_call(c: &mut Criterion) {
    let mut g = c.benchmark_group("city_fleet/realtime_call");
    for threads in [1u64, 8] {
        let replica = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let fleet = FleetConfig::new("bench", RoutePolicyKind::PrefixAffinity)
            .with_replica(ReplicaSpec::sim(replica.clone(), 5e6))
            .with_replica(ReplicaSpec::sim(replica, 5e6))
            .build();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Request ids stay unique per engine: thread t issues t,
            // t + threads, t + 2 · threads, …
            for t in 1..threads {
                let (fleet, stop) = (&fleet, &stop);
                s.spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        fleet.call(&req(i, 512));
                        i += threads;
                    }
                });
            }
            let mut i = 0u64;
            g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
                b.iter(|| {
                    i += threads;
                    black_box(fleet.call(&req(i, 512)))
                });
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_prefix_observe,
    bench_route_affinity,
    bench_fleet_call,
    bench_realtime_call
);
criterion_main!(benches);
