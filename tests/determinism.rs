//! Bit-level reproducibility of the whole pipeline: same seed → same
//! trace → same replay report, across both executors.

mod common;

use ai_metropolis::llm::{presets, ServerConfig, SimServer};
use ai_metropolis::prelude::*;
use ai_metropolis::trace::gen;
use ai_metropolis::world::clock_to_step;
use common::{assert_worlds_equal, live, replay, Run, World};

fn cfg() -> GenConfig {
    GenConfig {
        villes: 1,
        agents_per_ville: 12,
        seed: 77,
        window_start: clock_to_step(9, 30),
        window_len: 90,
    }
}

#[test]
fn trace_generation_is_reproducible() {
    assert_eq!(gen::generate(&cfg()), gen::generate(&cfg()));
}

#[test]
fn des_replay_is_reproducible() {
    let trace = gen::generate(&cfg());
    let run = || {
        let mut sched = replay(&trace, DependencyPolicy::Spatiotemporal);
        let mut server =
            SimServer::new(ServerConfig::from_preset(presets::l4_llama3_8b(), 2, true));
        run_sim(&mut sched, &trace, &mut server, &SimConfig::default()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_calls, b.total_calls);
    assert_eq!(a.server, b.server);
    assert_eq!(a.sched, b.sched);
}

#[test]
fn threaded_world_outcome_is_reproducible() {
    let run = || {
        let world = World::smallville(31, 10, clock_to_step(8, 30));
        live(world, &Run::new(DependencyPolicy::Spatiotemporal, 40, 4)).world
    };
    assert_worlds_equal(&run(), &run());
}

#[test]
fn different_seeds_give_different_days() {
    let mut a = cfg();
    let mut b = cfg();
    a.seed = 1;
    b.seed = 2;
    assert_ne!(gen::generate(&a), gen::generate(&b));
}
