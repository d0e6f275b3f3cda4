//! Microbenchmarks of trace generation (world self-play) and oracle
//! mining — the offline costs of the methodology.

use std::hint::black_box;

use aim_trace::{gen, oracle};
use aim_world::{clock_to_step, Village, VillageConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_generate_hour(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracegen/busy_hour");
    g.sample_size(10);
    for villes in [1u32, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(villes * 25),
            &villes,
            |b, &villes| {
                b.iter(|| black_box(gen::generate(&gen::GenConfig::busy_hour(villes, 42))));
            },
        );
    }
    g.finish();
}

/// What every replay workload's set-up pays before its window opens:
/// a world generated and lived from midnight to noon (wakes, the
/// commute's pathfinding, a morning of perception).
fn bench_warmup(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracegen/warmup_to_noon");
    g.sample_size(10);
    g.bench_function("250", |b| {
        b.iter(|| {
            let mut v = Village::generate(&VillageConfig {
                villes: 10,
                agents_per_ville: 25,
                seed: 42,
            });
            v.run_lockstep(0, clock_to_step(12, 0), |_, _, _, _| {});
            black_box(v.positions())
        });
    });
    g.finish();
}

fn bench_plan_step(c: &mut Criterion) {
    let mut v = Village::generate(&VillageConfig {
        villes: 4,
        agents_per_ville: 25,
        seed: 1,
    });
    let noon = clock_to_step(12, 0);
    v.run_lockstep(0, noon, |_, _, _, _| {});
    c.bench_function("tracegen/plan_step_noon_100agents", |b| {
        let mut a = 0u32;
        b.iter(|| {
            black_box(v.plan_step(a % 100, noon));
            a += 1;
        });
    });
}

fn bench_oracle_mine(c: &mut Criterion) {
    let trace = gen::generate(&gen::GenConfig::busy_hour(4, 42));
    let mut g = c.benchmark_group("tracegen/oracle_mine");
    g.sample_size(20);
    g.bench_function("100agents_1h", |b| {
        b.iter(|| black_box(oracle::mine(black_box(&trace))));
    });
    g.finish();
}

criterion_group!(
    benches,
    aim_bench::bench_calibration,
    bench_generate_hour,
    bench_warmup,
    bench_plan_step,
    bench_oracle_mine
);
criterion_main!(benches);
