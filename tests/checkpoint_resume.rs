//! Checkpoint/restore end to end: a run interrupted at step *k* and
//! resumed from its snapshot must be **world-for-world identical** to an
//! uninterrupted run — under both executors.
//!
//! * Threaded runtime: the same live village is driven with a quiesced
//!   checkpoint hook (history recording + eviction on); the run also
//!   serves as the uninterrupted oracle. A second run starts from the
//!   last snapshot file (restored store → recovered scheduler, restored
//!   village) and must land in the identical final world, under both the
//!   lock-step (global-sync) and out-of-order (spatiotemporal) policies.
//! * Discrete-event executor: a trace replay interrupted at half the
//!   horizon resumes from a snapshot and must land every agent exactly
//!   where the trace says — the same positions oracle the equivalence
//!   suite uses.

use std::path::PathBuf;
use std::sync::Arc;

use ai_metropolis::core::checkpoint::{self, SECTION_WORLD};
use ai_metropolis::core::exec::threaded::run_threaded_with_checkpoints;
use ai_metropolis::llm::InstantBackend;
use ai_metropolis::prelude::*;
use ai_metropolis::store::{Checkpointer, Db, Snapshot};
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

/// Runs the checkpointed oracle to completion, then resumes from its last
/// mid-run snapshot and checks the resumed world equals the oracle's.
fn interrupt_and_resume(policy: DependencyPolicy, tag: &str) {
    let start = clock_to_step(12, 0);
    let steps = 60u32;
    let every = 20u32;
    let seed = 9;
    let agents = 15;
    let workers = 4;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ckpt-resume-{tag}"));
    std::fs::remove_dir_all(&dir).ok();

    // --- Uninterrupted oracle run, checkpointing as it goes -------------
    let mut village = Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: agents,
        seed,
    });
    village.run_lockstep(0, start, |_, _, _, _| {});
    let program = Arc::new(VillageProgram::with_step_offset(village, start));
    let initial = program.initial_positions();
    let mut sched = Scheduler::new_with_history(
        Arc::new(GridSpace::new(100, 140)),
        RuleParams::genagent(),
        policy.clone(),
        Arc::new(Db::new()),
        &initial,
        Step(steps),
        true,
    )
    .expect("scheduler");
    let mut ckpt = Checkpointer::new(&dir, every, 2);
    let mut evicted_total = 0u64;
    {
        let program = Arc::clone(&program);
        let mut hook_fn = |sched: &mut Scheduler<GridSpace>| -> Result<(), EngineError> {
            evicted_total += sched.evict_history()?;
            let world = program.capture_state();
            let committed = sched.graph().min_step().0;
            let builder = checkpoint::snapshot_run(sched, start, Some(world));
            ckpt.write(committed, &builder)?;
            Ok(())
        };
        run_threaded_with_checkpoints(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig {
                workers,
                priority_enabled: true,
            },
            Some(CheckpointHook {
                every_steps: every,
                f: &mut hook_fn,
            }),
        )
        .expect("checkpointed run");
    }
    assert!(sched.is_done());
    assert!(sched.graph().validate().is_ok());
    assert!(
        ckpt.written() >= 2,
        "expected mid-run checkpoints at steps 20 and 40"
    );
    let snap_path = ckpt.last_path().expect("checkpoint written").to_path_buf();
    let oracle = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();

    // --- Resume from the last mid-run snapshot --------------------------
    let snap = Snapshot::load(&snap_path).expect("snapshot loads");
    // Policy deliberately omitted: the snapshot records it, and the
    // recorded tag must drive the resumed scheduler's semantics.
    let (meta, mut resumed_sched) = checkpoint::resume(&snap, None, None).expect("resume");
    assert!(meta.min_step < steps, "snapshot must be mid-run");
    assert_eq!(meta.step_offset, start);
    assert!(meta.history);
    let world_bytes = snap.section(SECTION_WORLD).expect("world section");
    let village = Village::restore(world_bytes).expect("village restores");
    let program = Arc::new(VillageProgram::with_step_offset(village, meta.step_offset));
    run_threaded(
        &mut resumed_sched,
        Arc::clone(&program),
        Arc::new(InstantBackend::new()),
        ThreadedConfig {
            workers,
            priority_enabled: true,
        },
    )
    .expect("resumed run");
    assert!(resumed_sched.is_done());
    assert!(resumed_sched.graph().validate().is_ok());
    let resumed = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();

    assert_worlds_equal(&oracle, &resumed);
    assert!(
        !oracle.events().is_empty(),
        "a lunch window must produce events, or this proves nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_resume_equals_uninterrupted_lockstep() {
    interrupt_and_resume(DependencyPolicy::GlobalSync, "lockstep");
}

#[test]
fn interrupted_resume_equals_uninterrupted_ooo() {
    interrupt_and_resume(DependencyPolicy::Spatiotemporal, "ooo");
}

#[test]
fn eviction_keeps_resume_intact() {
    // Eviction must never delete anything a resume needs: identical to
    // the OOO case above but with an aggressive cadence so several
    // eviction passes run before the resume point.
    let start = clock_to_step(12, 0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ckpt-evict");
    std::fs::remove_dir_all(&dir).ok();
    let mut village = Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: 10,
        seed: 5,
    });
    village.run_lockstep(0, start, |_, _, _, _| {});
    let program = Arc::new(VillageProgram::with_step_offset(village, start));
    let initial = program.initial_positions();
    let mut sched = Scheduler::new_with_history(
        Arc::new(GridSpace::new(100, 140)),
        RuleParams::genagent(),
        DependencyPolicy::Spatiotemporal,
        Arc::new(Db::new()),
        &initial,
        Step(40),
        true,
    )
    .unwrap();
    let mut ckpt = Checkpointer::new(&dir, 5, 1);
    // (resident, expected) history record counts after each eviction.
    let mut hist_sizes = Vec::new();
    {
        let program = Arc::clone(&program);
        let mut hook_fn = |sched: &mut Scheduler<GridSpace>| -> Result<(), EngineError> {
            sched.evict_history()?;
            let graph = sched.graph();
            let floor = graph.min_step().0;
            let expected: u64 = (0..initial.len() as u32)
                .map(|a| u64::from(graph.step(AgentId(a)).0 - floor + 1))
                .sum();
            hist_sizes.push((graph.history_records(), expected));
            let builder = checkpoint::snapshot_run(sched, start, Some(program.capture_state()));
            ckpt.write(floor, &builder)?;
            Ok(())
        };
        run_threaded_with_checkpoints(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig::default(),
            Some(CheckpointHook {
                every_steps: 5,
                f: &mut hook_fn,
            }),
        )
        .unwrap();
    }
    // Windowed history: after each pass exactly the records at or above
    // the global minimum step stay resident, one per agent per step from
    // `min_step` to its own step. How far the threaded executor lets
    // agents skew ahead decides the total, so the invariant is checked
    // instead of a size bound.
    assert!(hist_sizes.len() >= 2, "several eviction passes ran");
    for (pass, &(resident, expected)) in hist_sizes.iter().enumerate() {
        assert_eq!(
            resident, expected,
            "eviction pass {pass}: resident history is not exactly the window"
        );
    }
    let oracle = Arc::try_unwrap(program).unwrap().into_village();

    let snap = Snapshot::load(ckpt.last_path().unwrap()).unwrap();
    let (meta, mut sched2) = checkpoint::resume(&snap, None, None).unwrap();
    let village = Village::restore(snap.section(SECTION_WORLD).unwrap()).unwrap();
    let program = Arc::new(VillageProgram::with_step_offset(village, meta.step_offset));
    run_threaded(
        &mut sched2,
        Arc::clone(&program),
        Arc::new(InstantBackend::new()),
        ThreadedConfig::default(),
    )
    .unwrap();
    let resumed = Arc::try_unwrap(program).unwrap().into_village();
    assert_worlds_equal(&oracle, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn des_replay_resumes_from_snapshot_position_exact() {
    // Interrupt a trace replay at half the horizon under the DES
    // executor, snapshot, resume to the full target, and compare against
    // the trace's own positions — the equivalence suite's oracle.
    use ai_metropolis::core::exec::sim::{run_sim, SimConfig};
    use ai_metropolis::core::workload::Workload;
    use ai_metropolis::llm::{presets, ServerConfig, SimServer};
    use ai_metropolis::trace::gen;

    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 12,
        seed: 21,
        window_start: clock_to_step(10, 0),
        window_len: 60,
    });
    let meta = trace.meta().clone();
    let initial: Vec<Point> = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    let space = || Arc::new(GridSpace::new(meta.map_width, meta.map_height));
    let params = RuleParams::new(meta.radius_p, meta.max_vel);
    let half = Step(meta.num_steps / 2);
    let full = Workload::target_step(&trace);

    // Phase 1: run to the interruption point, then snapshot (the DES
    // executor returns quiesced — everything through `half` committed).
    let mut sched = Scheduler::new_with_history(
        space(),
        params,
        DependencyPolicy::Spatiotemporal,
        Arc::new(Db::new()),
        &initial,
        half,
        true,
    )
    .unwrap();
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 2, true));
    run_sim(&mut sched, &trace, &mut server, &SimConfig::default()).unwrap();
    assert!(sched.is_done());
    sched.evict_history().unwrap();
    let bytes = checkpoint::snapshot_run(&sched, meta.start_step, None)
        .to_bytes()
        .unwrap();

    // Phase 2: resume from the snapshot with the full-horizon target.
    let snap = Snapshot::from_bytes(bytes).unwrap();
    let (cmeta, mut resumed) = checkpoint::resume(&snap, None, Some(full)).unwrap();
    assert_eq!(cmeta.min_step, half.0);
    assert!(!resumed.is_done());
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 2, true));
    run_sim(&mut resumed, &trace, &mut server, &SimConfig::default()).unwrap();
    assert!(resumed.is_done());
    assert!(resumed.graph().validate().is_ok());
    for a in 0..meta.num_agents {
        assert_eq!(
            resumed.graph().pos(AgentId(a)),
            trace.position_after(a, meta.num_steps - 1),
            "agent {a} ended in the wrong place after resume"
        );
    }
}
