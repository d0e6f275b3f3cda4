//! Microbenchmarks of the speculative scheduler (paper §6): the
//! per-operation overhead of entry bookkeeping, the cost of a replay
//! under increasing run-ahead budgets, and the raw price of a squash
//! cascade — the "scalability challenge" the paper warns about,
//! quantified.

use std::hint::black_box;
use std::sync::Arc;

use aim_core::exec::sim::SimConfig;
use aim_core::prelude::*;
use aim_core::spec::{run_spec_sim, SpecParams, SpecScheduler};
use aim_core::workload::Workload;
use aim_llm::{presets, ServerConfig, SimServer};
use aim_store::Db;
use aim_trace::gen;
use aim_world::clock_to_step;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn trace_25() -> aim_trace::Trace {
    gen::generate(&gen::GenConfig {
        villes: 1,
        agents_per_ville: 25,
        seed: 42,
        window_start: clock_to_step(12, 0),
        window_len: 60,
    })
}

fn spec_replay(trace: &aim_trace::Trace, runahead: u32) -> f64 {
    let meta = trace.meta();
    let initial: Vec<Point> = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    let mut sched = SpecScheduler::new(
        Arc::new(GridSpace::new(meta.map_width, meta.map_height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        SpecParams::new(runahead),
        Arc::new(Db::new()),
        &initial,
        Workload::target_step(trace),
    )
    .unwrap();
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 4, true));
    run_spec_sim(&mut sched, trace, &mut server, &SimConfig::default())
        .unwrap()
        .makespan
        .as_secs_f64()
}

/// Replay cost across budgets: the scheduler-side overhead of tracking,
/// validating, and retiring speculative entries on a real workload.
fn bench_spec_replay(c: &mut Criterion) {
    let trace = trace_25();
    let mut g = c.benchmark_group("speculation/replay_10min_25agents");
    g.sample_size(10);
    for runahead in [0u32, 2, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(runahead),
            &runahead,
            |b, &runahead| {
                b.iter(|| black_box(spec_replay(&trace, runahead)));
            },
        );
    }
    g.finish();
}

/// Raw emit → complete → retire cycle with no blocked agents (agents on a
/// sparse diagonal): the bookkeeping floor versus the conservative
/// scheduler's equivalent bench in `scheduler.rs`.
fn bench_spec_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("speculation/emit_complete_retire");
    for n in [25usize, 250, 1000] {
        let initial: Vec<Point> = (0..n)
            .map(|i| Point::new((i as i32) * 13, (i as i32) * 13))
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut s = SpecScheduler::new(
                    Arc::new(GridSpace::new(20_000, 20_000)),
                    RuleParams::genagent(),
                    SpecParams::new(4),
                    Arc::new(Db::new()),
                    &initial,
                    Step(2),
                )
                .unwrap();
                while !s.is_done() {
                    for c in s.ready_clusters().unwrap() {
                        let pos: Vec<(AgentId, Point)> =
                            c.members.iter().map(|m| (*m, s.graph().pos(*m))).collect();
                        s.complete(&c.id, &pos).unwrap();
                    }
                }
                black_box(s.stats().retired_steps)
            });
        });
    }
    g.finish();
}

/// Worst-case squash: one deep run-ahead chain invalidated by a single
/// laggard commit — measures rollback + store writes + re-dirtying.
fn bench_squash_cascade(c: &mut Criterion) {
    let mut g = c.benchmark_group("speculation/squash_depth");
    for depth in [2u32, 8, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                // B sits 10 cells from A and speculates `depth` steps past
                // the conservative block; A then walks to within coupling
                // range, squashing all of them at its next emission.
                let mut s = SpecScheduler::new(
                    Arc::new(GridSpace::new(400, 400)),
                    RuleParams::genagent(),
                    SpecParams::new(depth),
                    Arc::new(Db::new()),
                    &[Point::new(0, 0), Point::new(10, 0)],
                    Step(depth + 8),
                )
                .unwrap();
                let ready = s.ready_clusters().unwrap();
                let c_a = ready[0].clone();
                // Drive B to exhaustion (5 firm + `depth` speculative).
                let mut c_b = ready[1].clone();
                loop {
                    let pos = s.graph().pos(AgentId(1));
                    s.complete(&c_b.id, &[(AgentId(1), pos)]).unwrap();
                    let next = s.ready_clusters().unwrap();
                    match next.first() {
                        Some(c) => c_b = c.clone(),
                        None => break,
                    }
                }
                // A hops 5 cells over 5 commits, then its emission squashes.
                let mut cluster = c_a;
                for x in 1..=5 {
                    s.complete(&cluster.id, &[(AgentId(0), Point::new(x, 0))])
                        .unwrap();
                    if let Some(c) = s.ready_clusters().unwrap().first() {
                        cluster = c.clone();
                    }
                }
                black_box(s.stats().squashed_steps)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_spec_replay,
    bench_spec_cycle,
    bench_squash_cascade
);
criterion_main!(benches);
