//! End-to-end scheduler microbenchmarks: full replay loops at small scale,
//! plus the ablation knobs (policy, priority) the design section calls out.

use std::hint::black_box;
use std::sync::Arc;

use aim_core::exec::sim::{run_sim, SimConfig};
use aim_core::prelude::*;
use aim_core::workload::Workload;
use aim_llm::{presets, ServerConfig, SimServer};
use aim_store::Db;
use aim_trace::{gen, oracle};
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

fn trace_1000() -> aim_trace::Trace {
    gen::generate(&gen::GenConfig {
        villes: 40,
        agents_per_ville: 25,
        seed: 42,
        window_start: clock_to_step(12, 0),
        window_len: 60,
    })
}

fn replay(trace: &aim_trace::Trace, policy: DependencyPolicy, priority: bool) -> f64 {
    let meta = trace.meta();
    let initial: Vec<Point> = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    let mut sched = Scheduler::new(
        Arc::new(GridSpace::new(meta.map_width, meta.map_height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        policy,
        Arc::new(Db::new()),
        &initial,
        Workload::target_step(trace),
    )
    .unwrap();
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 4, priority));
    let sim = SimConfig {
        priority_ready_queue: priority,
        ..SimConfig::default()
    };
    run_sim(&mut sched, trace, &mut server, &sim)
        .unwrap()
        .makespan
        .as_secs_f64()
}

fn bench_replay_policies(c: &mut Criterion) {
    let trace = trace_25();
    let oracle_graph = Arc::new(oracle::mine(&trace));
    let mut g = c.benchmark_group("scheduler/replay_10min_25agents");
    g.sample_size(10);
    let arms: Vec<(&str, DependencyPolicy)> = vec![
        ("parallel-sync", DependencyPolicy::GlobalSync),
        ("metropolis", DependencyPolicy::Spatiotemporal),
        ("oracle", DependencyPolicy::Oracle(oracle_graph)),
        ("no-dependency", DependencyPolicy::NoDependency),
    ];
    for (name, policy) in arms {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, policy| {
            b.iter(|| black_box(replay(&trace, policy.clone(), true)));
        });
    }
    g.finish();
}

fn bench_replay_1000(c: &mut Criterion) {
    // The scaling regime (OpenCity-style massive-agent worlds): the same
    // 10-minute lunch window at 1000 agents across 40 villes. This is the
    // bench the spatial index and incremental edge maintenance exist for —
    // without them the dependency-tracking loop is quadratic in agents.
    let trace = trace_1000();
    let mut g = c.benchmark_group("scheduler/replay_10min_1000agents");
    g.sample_size(10);
    let arms: Vec<(&str, DependencyPolicy)> = vec![
        ("metropolis", DependencyPolicy::Spatiotemporal),
        ("no-dependency", DependencyPolicy::NoDependency),
    ];
    for (name, policy) in arms {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, policy| {
            b.iter(|| black_box(replay(&trace, policy.clone(), true)));
        });
    }
    g.finish();
}

fn bench_priority_ablation(c: &mut Criterion) {
    let trace = trace_25();
    let mut g = c.benchmark_group("scheduler/priority_ablation");
    g.sample_size(10);
    for (name, priority) in [("with", true), ("without", false)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &priority,
            |b, &priority| {
                b.iter(|| black_box(replay(&trace, DependencyPolicy::Spatiotemporal, priority)));
            },
        );
    }
    g.finish();
}

fn bench_ready_clusters(c: &mut Criterion) {
    // Isolated scheduler-op cost: emit+complete cycle at 1000 agents.
    let initial: Vec<Point> = (0..1000)
        .map(|i| Point::new((i % 100) * 11, (i / 100) * 11))
        .collect();
    c.bench_function("scheduler/emit_complete_cycle_1000", |b| {
        let mut sched = Scheduler::new(
            Arc::new(GridSpace::new(2000, 2000)),
            RuleParams::genagent(),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &initial,
            Step(1_000_000),
        )
        .unwrap();
        let mut pending = sched.ready_clusters();
        b.iter(|| {
            let c = pending.pop().expect("always refilled");
            let pos: Vec<(AgentId, Point)> = c
                .members
                .iter()
                .map(|m| (*m, sched.graph().pos(*m)))
                .collect();
            sched.complete(&c.id, &pos).unwrap();
            pending.extend(sched.ready_clusters());
        });
    });
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_replay_policies,
    bench_replay_1000,
    bench_priority_ablation,
    bench_ready_clusters
);
criterion_main!(benches);
