//! Microbenchmarks of the spatiotemporal dependency graph: the per-commit
//! transactional update and the controller's blocked/coupled queries
//! (§3.3's hot path).

use std::hint::black_box;
use std::sync::Arc;

use aim_core::depgraph::DepGraph;
use aim_core::prelude::*;
use aim_core::space::{GridSpace, Point};
use aim_store::Db;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn scatter(n: u32, spread: i32) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let x = (i as i32)
                .wrapping_mul(2654435761u32 as i32)
                .rem_euclid(spread);
            let y = (i as i32).wrapping_mul(40503).rem_euclid(spread);
            Point::new(x, y)
        })
        .collect()
}

fn mk(n: u32) -> DepGraph<GridSpace> {
    DepGraph::new(
        Arc::new(GridSpace::new(4000, 4000)),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &scatter(n, 2000),
    )
    .unwrap()
}

fn bench_advance(c: &mut Criterion) {
    let mut g = c.benchmark_group("depgraph/advance");
    for n in [25u32, 100, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut graph = mk(n);
            let mut i = 0u32;
            b.iter(|| {
                let a = AgentId(i % n);
                let pos = graph.pos(a);
                graph
                    .advance(black_box(&[(a, Point::new(pos.x, pos.y))]))
                    .unwrap();
                i += 1;
            });
        });
    }
    g.finish();
}

fn bench_first_blocker(c: &mut Criterion) {
    let mut g = c.benchmark_group("depgraph/first_blocker");
    for n in [25u32, 100, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut graph = mk(n);
            // Create step spread so blocked scans have work to do.
            for a in 0..n / 2 {
                let pos = graph.pos(AgentId(a));
                graph.advance(&[(AgentId(a), pos)]).unwrap();
            }
            let mut i = 0u32;
            b.iter(|| {
                let a = AgentId(i % n);
                black_box(graph.first_blocker(black_box(a)));
                i += 1;
            });
        });
    }
    g.finish();
}

fn bench_coupled_neighbors(c: &mut Criterion) {
    let mut g = c.benchmark_group("depgraph/coupled_neighbors");
    for n in [25u32, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let graph = mk(n);
            let mut i = 0u32;
            b.iter(|| {
                black_box(graph.coupled_neighbors(black_box(AgentId(i % n))));
                i += 1;
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_advance,
    bench_first_blocker,
    bench_coupled_neighbors
);
criterion_main!(benches);
