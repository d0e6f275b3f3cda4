//! Microbenchmarks of A* over the SmallVille map (world substrate).

use std::hint::black_box;

use aim_world::pathfind::{astar, Scratch};
use aim_world::TileMap;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_astar(c: &mut Criterion) {
    let map = TileMap::smallville(25);
    let areas = map.areas();
    let homes: Vec<_> = areas
        .iter()
        .filter(|a| a.name.starts_with("house"))
        .collect();
    let cafe = areas
        .iter()
        .find(|a| a.name.contains("Cafe"))
        .expect("cafe");

    c.bench_function("pathfind/home_to_cafe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let home = homes[i % homes.len()];
            let path = astar(&map, black_box(home.door), black_box(cafe.anchor()));
            i += 1;
            black_box(path)
        });
    });

    c.bench_function("pathfind/adjacent", |b| {
        let d = cafe.door;
        b.iter(|| {
            black_box(astar(
                &map,
                black_box(d),
                black_box(aim_core::space::Point::new(d.x + 1, d.y)),
            ))
        });
    });

    let big = TileMap::smallville(25).concatenated(8);
    c.bench_function("pathfind/cross_ville_800x140", |b| {
        let from = big.areas()[0].door;
        let to = big.areas().last().unwrap().door;
        b.iter(|| black_box(astar(&big, black_box(from), black_box(to))));
    });

    // The query set-up actually issues: from a home's door to a seat in
    // a workplace of the same ville, on the 1000-agent map, through a
    // scratch kept across queries (what `Village` does). The rows above
    // go through the one-off wrapper, which sizes a table per call.
    let wide = TileMap::smallville(25).concatenated(40);
    c.bench_function("pathfind/in_ville_on_4000x140", |b| {
        let area = |name: &str| {
            wide.areas()
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("no area {name}"))
        };
        let from = area("v20:house 0").door;
        let to = area("v20:Town Office").anchor();
        let mut scratch = Scratch::default();
        b.iter(|| black_box(scratch.astar(&wide, black_box(from), black_box(to))));
    });
}

criterion_group!(benches, aim_bench::bench_calibration, bench_astar);
criterion_main!(benches);
