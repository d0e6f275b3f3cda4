//! Worker-crash recovery end to end: a distributed run that loses a
//! shard worker mid-flight must heal from that worker's **own database**
//! (the `Recover` handshake) and land in exactly the world an
//! uninterrupted run produces. This is the distributed analogue of
//! `checkpoint_resume.rs` — there the whole run resumes from a snapshot;
//! here one worker dies and is rebuilt while the rest of the fleet keeps
//! its state.

use std::sync::Arc;

use ai_metropolis::core::depgraph::{DepGraph, EdgeMode, GraphOptions};
use ai_metropolis::core::dist::DistTracker;
use ai_metropolis::core::exec::threaded::run_threaded_with_checkpoints;
use ai_metropolis::core::shard::StripShardMap;
use ai_metropolis::llm::InstantBackend;
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::world::program::VillageProgram;
use ai_metropolis::world::{clock_to_step, Village};

fn assert_worlds_equal(a: &Village, b: &Village) {
    assert_eq!(a.positions(), b.positions(), "final positions diverged");
    assert_eq!(a.events(), b.events(), "world event logs diverged");
    for agent in 0..a.num_agents() as u32 {
        assert_eq!(
            a.conversation_cooldown(agent),
            b.conversation_cooldown(agent),
            "agent {agent} conversation state diverged"
        );
    }
}

#[test]
fn worker_killed_mid_run_recovers_from_its_own_store() {
    let start = clock_to_step(12, 0);
    let steps = 40u32;
    let shards = 4usize;
    let mut village = Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: 15,
        seed: 9,
    });
    village.run_lockstep(0, start, |_, _, _, _| {});

    // Uninterrupted oracle: the same world under plain lock-step.
    let mut oracle = village.clone();
    oracle.run_lockstep(start, start + steps, |_, _, _, _| {});

    // Distributed run: a worker per strip, fault injection at the first
    // quiesced hook point — kill a worker (severing its link without any
    // shutdown handshake), then respawn it from its retained database.
    let space = Arc::new(GridSpace::new(100, 140));
    let program = Arc::new(VillageProgram::with_step_offset(village, start));
    let initial = program.initial_positions();
    let graph = DistTracker::new(
        Arc::clone(&space),
        RuleParams::genagent(),
        &initial,
        Arc::new(StripShardMap::new(100, shards)),
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: true,
        },
    )
    .expect("distributed tracker");
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(steps));
    let mut crashes = 0u32;
    {
        let mut hook_fn =
            |sched: &mut Scheduler<GridSpace, DistTracker<GridSpace>>| -> Result<(), EngineError> {
                // Crash a different worker at each firing; every one must
                // rebuild its members, index, and step bounds from its own
                // store and agree with the controller mirror.
                let victim = crashes as usize % sched.graph().num_shards();
                sched.graph_mut().kill_worker(victim);
                sched
                    .graph_mut()
                    .respawn_worker(victim)
                    .expect("worker must recover from its own database");
                sched.graph_mut().check_invariants();
                crashes += 1;
                Ok(())
            };
        run_threaded_with_checkpoints(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig {
                workers: 4,
                priority_enabled: true,
            },
            Some(CheckpointHook {
                every_steps: 10,
                f: &mut hook_fn,
            }),
        )
        .expect("distributed run with fault injection");
    }
    assert!(sched.is_done());
    assert!(crashes >= 2, "fault injection never fired ({crashes})");
    assert!(sched.graph().validate().is_ok());
    sched.graph_mut().check_invariants();

    let recovered = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();
    assert_worlds_equal(&oracle, &recovered);
    assert!(
        !oracle.events().is_empty(),
        "a lunch window must produce events, or this proves nothing"
    );
}

/// Eight agents in a row across four strips (two per worker), history
/// on, three warm-up steps committed — and a single-shard oracle fed the
/// same operations.
fn warmed_pair() -> (DistTracker<GridSpace>, DepGraph<GridSpace>) {
    let space = Arc::new(GridSpace::new(32, 32));
    let params = RuleParams::new(2, 1);
    let options = GraphOptions {
        edges: EdgeMode::Maintained,
        history: true,
    };
    let initial: Vec<Point> = (0..8).map(|i| Point::new(i * 4, 16)).collect();
    let mut dist = DistTracker::new(
        Arc::clone(&space),
        params,
        &initial,
        Arc::new(StripShardMap::new(32, 4)),
        options,
    )
    .unwrap();
    let mut single =
        DepGraph::new_with_options(space, params, Arc::new(Db::new()), &initial, options).unwrap();
    for round in 0..3 {
        let updates: Vec<(AgentId, Point)> = (0..8)
            .map(|i| {
                let a = AgentId(i);
                let cur = dist.pos(a);
                (a, Point::new(cur.x + (round % 2), cur.y))
            })
            .collect();
        dist.advance(&updates).unwrap();
        single.advance(&updates).unwrap();
    }
    (dist, single)
}

#[test]
fn severed_worker_fails_fast_and_respawn_heals() {
    // Direct protocol-level check: once a link is severed, operations
    // touching that worker fail (no partial state), and after respawn the
    // tracker is again exactly equal to a single-shard oracle fed the
    // same operations.
    let (mut dist, mut single) = warmed_pair();

    let victim_agent = AgentId(0);
    let victim = dist.shard_of_agent(victim_agent);
    dist.kill_worker(victim);
    let cur = dist.pos(victim_agent);
    let err = dist
        .advance(&[(victim_agent, Point::new(cur.x + 1, cur.y))])
        .expect_err("an advance through a dead worker must fail");
    assert!(
        err.to_string().contains("down"),
        "unexpected error shape: {err}"
    );

    dist.respawn_worker(victim).expect("respawn from own store");
    dist.check_invariants();

    // The failed advance committed nothing: both trackers still agree,
    // and the run continues normally after the respawn.
    assert_eq!(dist.snapshot(), single.snapshot());
    let cur = dist.pos(victim_agent);
    let moved = Point::new(cur.x + 1, cur.y);
    dist.advance(&[(victim_agent, moved)]).unwrap();
    single.advance(&[(victim_agent, moved)]).unwrap();
    assert_eq!(dist.snapshot(), single.snapshot());
    assert_eq!(dist.history_records(), single.history_records());
}

#[test]
fn cluster_spanning_a_dead_worker_commits_nothing_anywhere() {
    // A two-member cluster whose members live on different workers, one
    // of them dead: worker 0 is handed its commit and acknowledges it
    // before the controller finds worker 3 down. The failed advance must
    // leave worker 0's link in step (its replies consumed) and worker 0's
    // store where it was (the acknowledged commit undone), so that after
    // the respawn the same advance simply succeeds.
    let (mut dist, mut single) = warmed_pair();
    let (first, last) = (AgentId(0), AgentId(7));
    let survivor = dist.shard_of_agent(first);
    let victim = dist.shard_of_agent(last);
    assert_ne!(survivor, victim, "the cluster must span two workers");
    let updates = [
        (first, Point::new(dist.pos(first).x + 1, 16)),
        (last, Point::new(dist.pos(last).x - 1, 16)),
    ];
    let history_before = dist.history_records();

    dist.kill_worker(victim);
    let err = dist
        .advance(&updates)
        .expect_err("an advance through a dead worker must fail");
    assert!(err.to_string().contains("down"), "unexpected error: {err}");
    assert_eq!(dist.snapshot(), single.snapshot(), "the mirror moved");
    assert_eq!(
        dist.history_records(),
        history_before,
        "the surviving worker kept the failed advance's history record"
    );

    dist.respawn_worker(victim).expect("respawn from own store");
    dist.check_invariants();

    dist.advance(&updates)
        .expect("the retried advance finds every link in step");
    single.advance(&updates).unwrap();
    dist.check_invariants();
    assert_eq!(dist.snapshot(), single.snapshot());
    assert_eq!(dist.history_records(), single.history_records());
}
