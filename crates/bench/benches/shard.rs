//! Microbenchmarks of the sharded dependency tracker
//! (`aim_core::shard`): cluster growth and relink cost at 1k/10k agents
//! across shard widths 1/4/16.
//!
//! Width 1 *is* the unsharded algorithm — one index, one global step
//! range — so the `w1` rows are the baseline the sharding is judged
//! against. The workload has the structure sharding exists for: a
//! spatially local straggler pocket (the westmost band of the map) lags
//! `SKEW` steps behind the rest of the city, as a slow conversation
//! cluster does in paper Fig. 1. With one shard, every relink in the
//! city pays the straggler-widened `blocking_units(SKEW)` query radius;
//! with 16 strips, only the straggler strip does — the per-shard step
//! bounds prune both the radius and the shards visited. (On multi-core
//! machines wide batches additionally relink in parallel; the committed
//! baselines here were measured on a single-core runner, so they show
//! the pruning win alone.)

use std::hint::black_box;
use std::sync::Arc;

use aim_core::prelude::*;
use aim_core::shard::{ShardedDepGraph, StripShardMap};
use aim_core::space::{GridSpace, Point};
use aim_store::Db;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Map extent: a wide city strip (x dominates, like district columns).
const MAP_W: u32 = 2_000;
const MAP_H: u32 = 600;

/// Steps the leader population runs ahead of the straggler pocket —
/// most of one 60-step replay window, the shape a stuck conversation
/// chain (paper Fig. 1) produces.
const SKEW: u32 = 48;

/// The straggler pocket: agents with `x < STRAGGLER_X` stay at step 0.
const STRAGGLER_X: i32 = 100;

fn scatter(n: u32) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let x = (i as i64).wrapping_mul(2654435761).rem_euclid(MAP_W as i64) as i32;
            let y = (i as i64).wrapping_mul(40503).rem_euclid(MAP_H as i64) as i32;
            Point::new(x, y)
        })
        .collect()
}

/// Builds a `width`-shard tracker over `n` agents and advances everyone
/// outside the straggler pocket `SKEW` steps (in whole-population
/// batches, positions unchanged), producing the skewed steady state.
fn mk_skewed(n: u32, width: usize) -> ShardedDepGraph<GridSpace> {
    let pts = scatter(n);
    let mut g = ShardedDepGraph::new(
        Arc::new(GridSpace::new(MAP_W, MAP_H)),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &pts,
        Arc::new(StripShardMap::new(MAP_W, width)),
    )
    .unwrap();
    let leaders: Vec<(AgentId, Point)> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| p.x >= STRAGGLER_X)
        .map(|(i, p)| (AgentId(i as u32), *p))
        .collect();
    for _ in 0..SKEW {
        g.advance(&leaders).unwrap();
    }
    g
}

/// Full edge rebuild on the skewed state — the recovery/rebuild shape,
/// and the purest view of per-relink query cost (every agent relinks
/// once per iteration).
fn bench_refresh_skewed(c: &mut Criterion) {
    let mut grp = c.benchmark_group("shard/refresh_skewed");
    grp.sample_size(10);
    for n in [1_000u32, 10_000] {
        for width in [1usize, 4, 16] {
            let mut g = mk_skewed(n, width);
            grp.bench_with_input(
                BenchmarkId::new(format!("{n}"), format!("w{width}")),
                &width,
                |b, _| {
                    b.iter(|| {
                        g.refresh_edges();
                        black_box(g.len())
                    });
                },
            );
        }
    }
    grp.finish();
}

/// Steady-state single-commit cost in the skewed regime: advance one
/// leader and roll it straight back (state returns to the start every
/// iteration, so the skew neither grows nor decays).
fn bench_leader_commit_skewed(c: &mut Criterion) {
    let mut grp = c.benchmark_group("shard/leader_commit_skewed");
    for n in [1_000u32, 10_000] {
        for width in [1usize, 4, 16] {
            let mut g = mk_skewed(n, width);
            // A leader well inside the leading region.
            let a = (0..n)
                .find(|&i| g.pos(AgentId(i)).x >= MAP_W as i32 / 2)
                .map(AgentId)
                .expect("a leader exists");
            let pos = g.pos(a);
            let step = g.step(a);
            grp.bench_with_input(
                BenchmarkId::new(format!("{n}"), format!("w{width}")),
                &width,
                |b, _| {
                    b.iter(|| {
                        g.advance(black_box(&[(a, pos)])).unwrap();
                        g.rollback(&[(a, step, pos)]).unwrap();
                    });
                },
            );
        }
    }
    grp.finish();
}

/// Cluster growth + commit through the scheduler at 10k agents, uniform
/// steps (no skew): the parity check that sharding costs nothing when
/// its pruning has nothing to prune.
fn bench_emit_complete_cycle(c: &mut Criterion) {
    let mut grp = c.benchmark_group("shard/emit_complete_cycle_10000");
    for width in [1usize, 16] {
        let pts = scatter(10_000);
        let graph = ShardedDepGraph::new(
            Arc::new(GridSpace::new(MAP_W, MAP_H)),
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &pts,
            Arc::new(StripShardMap::new(MAP_W, width)),
        )
        .unwrap();
        let mut sched =
            Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(1_000_000));
        let mut pending = sched.ready_clusters();
        grp.bench_with_input(
            BenchmarkId::from_parameter(format!("w{width}")),
            &width,
            |b, _| {
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
            },
        );
    }
    grp.finish();
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_refresh_skewed,
    bench_leader_commit_skewed,
    bench_emit_complete_cycle
);
criterion_main!(benches);
