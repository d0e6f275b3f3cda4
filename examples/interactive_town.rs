//! The threaded runtime, live: Algorithm 3 with real worker threads and
//! a wall-clock-paced simulated serving engine. Every member of a cluster
//! can block in the backend at once, each on a thread of its own; steps
//! that do not block share threads.
//!
//! This is the deployment shape the paper sketches for interactive use
//! (§6): the engine schedules a *live* village (no pre-recorded trace),
//! workers block on LLM calls against a shared continuous-batching
//! backend, and the world commits cluster by cluster.
//!
//! ```text
//! cargo run --release --example interactive_town
//! ```

use std::sync::Arc;
use std::time::Instant;

use ai_metropolis::core::exec::threaded::{run_threaded_observed, ThreadedConfig};
use ai_metropolis::llm::{presets, LlmBackend, RealtimeSimBackend, ServerConfig};
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::world::program::VillageProgram;

fn main() {
    // A 10-agent village at 8am (agents are awake and walking to work).
    let mut village = Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: 10,
        seed: 11,
    });
    let morning = ai_metropolis::world::clock_to_step(8, 0);
    village.run_lockstep(0, morning, |_, _, _, _| {});
    println!("village warmed up to 08:00; running 20 live steps out of order…");

    // The scheduler counts steps from 0; the program maps them onto the
    // warmed-up world (absolute step = morning + cluster step).
    let program = Arc::new(VillageProgram::with_step_offset(village, morning));
    let initial = program.initial_positions();
    let mut scheduler = Scheduler::new(
        Arc::new(GridSpace::new(100, 140)),
        RuleParams::genagent(),
        DependencyPolicy::Spatiotemporal,
        Arc::new(Db::new()),
        &initial,
        Step(20),
    )
    .expect("scheduler");

    // The backend: a simulated 2-replica tiny deployment running 20 000x
    // faster than real time, shared by all worker threads. Swap in your
    // own `LlmBackend` impl to talk to a real serving engine.
    let backend: Arc<dyn LlmBackend> = Arc::new(RealtimeSimBackend::new(
        ServerConfig::from_preset(presets::tiny_test(), 2, true),
        20_000.0,
    ));
    println!("backend: {}", backend.describe());

    let wall = Instant::now();
    let report = run_threaded_observed(
        &mut scheduler,
        Arc::clone(&program),
        backend,
        ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        },
        None,
        None,
    )
    .expect("threaded run");
    println!(
        "executed {} clusters / {} agent-steps in {:.2}s wall time",
        report.clusters,
        report.agent_steps,
        wall.elapsed().as_secs_f64()
    );
    println!("llm calls issued live: {}", program.calls_made());
    println!("max step skew: {} steps", scheduler.stats().max_step_skew);
    assert!(scheduler.is_done());
    assert!(
        scheduler.graph().validate().is_ok(),
        "causality held throughout"
    );

    let village = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();
    println!("world events committed: {}", village.events().len());
    println!("\nThe same scheduler that replays benchmarks drives live worlds:");
    println!("plug an HTTP backend into `LlmBackend` and this becomes a game loop.");
}
