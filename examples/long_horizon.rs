//! A **resumable long-horizon run** with bounded memory: a 100-agent
//! village is driven for 120 out-of-order steps on the threaded runtime
//! while the checkpoint subsystem (a) snapshots the full run state —
//! store image, dependency graph, world — every 30 committed steps, and
//! (b) evicts dependency-graph history below the deepest legal rollback
//! at each checkpoint, keeping the resident store O(agents × window)
//! instead of O(agents × horizon).
//!
//! The example then *interrupts itself*: it throws the live run away,
//! reloads the last mid-run snapshot from disk, resumes, and asserts the
//! resumed world is identical, field for field, to the uninterrupted
//! one — the paper's outcome-equivalence bar applied to crash recovery.
//!
//! ```text
//! cargo run --release --example long_horizon
//! trace_tool snapshot target/long_horizon/ckpt-*.aimsnap --validate
//! ```
//!
//! The checkpoint files are left under `target/long_horizon/` so the
//! `trace_tool snapshot --validate` smoke (run in CI) can inspect them.

use std::sync::Arc;

use ai_metropolis::core::checkpoint::{self, SECTION_WORLD};
use ai_metropolis::llm::InstantBackend;
use ai_metropolis::prelude::*;
use ai_metropolis::store::{Checkpointer, Db, Snapshot};
use ai_metropolis::world::program::VillageProgram;
use ai_metropolis::world::{clock_to_step, Village};

const VILLES: u32 = 4; // 4 × 25 = 100 agents
const STEPS: u32 = 120;
const EVERY: u32 = 30;
const WORKERS: usize = 8;

fn main() {
    let start = clock_to_step(8, 0);
    let dir = "target/long_horizon";
    std::fs::remove_dir_all(dir).ok();

    println!("Warming a {}-agent town to 8am…", VILLES * 25);
    let mut village = Village::generate(&VillageConfig {
        villes: VILLES,
        agents_per_ville: 25,
        seed: 7,
    });
    village.run_lockstep(0, start, |_, _, _, _| {});
    let space = village.space();

    // History recording ON: every committed (agent, step) also writes an
    // immutable history record, the raw material of rollback auditing —
    // and the thing that would grow with the horizon if never evicted.
    let program = Arc::new(VillageProgram::with_step_offset(village, start));
    let initial = program.initial_positions();
    let db = Arc::new(Db::new());
    let mut sched = Scheduler::new_with_history(
        Arc::new(space),
        RuleParams::genagent(),
        DependencyPolicy::Spatiotemporal,
        Arc::clone(&db),
        &initial,
        Step(STEPS),
        true,
    )
    .expect("scheduler");

    let mut ckpt = Checkpointer::new(dir, EVERY, 3);
    let mut log: Vec<(u32, u64, u64, u64)> = Vec::new(); // (step, evicted, resident_hist, db_keys)
    {
        let world_src = Arc::clone(&program);
        let db = Arc::clone(&db);
        let ckpt = &mut ckpt;
        let log = &mut log;
        let mut hook_fn = move |sched: &mut Scheduler<GridSpace>| -> Result<(), EngineError> {
            let evicted = sched.evict_history()?;
            let committed = sched.graph().min_step().0;
            let world = world_src.capture_state();
            let builder = checkpoint::snapshot_run(sched, start, Some(world));
            ckpt.write(committed, &builder)?;
            log.push((
                committed,
                evicted,
                sched.graph().history_records(),
                db.stats().keys as u64,
            ));
            Ok(())
        };
        run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig {
                workers: WORKERS,
                priority_enabled: true,
            },
            Some(CheckpointHook {
                every_steps: EVERY,
                f: &mut hook_fn,
            }),
            None,
        )
        .expect("checkpointed run");
    }
    assert!(sched.is_done());
    assert!(sched.graph().validate().is_ok());

    let agents = initial.len() as u64;
    println!("\ncheckpoint | evicted | resident history | store keys | no-evict history would be");
    for (step, evicted, resident, keys) in &log {
        println!(
            "  step {step:>4} | {evicted:>7} | {resident:>16} | {keys:>10} | {}",
            agents * (*step as u64 + 1)
        );
    }

    // Bounded memory: resident history never exceeds agents × window,
    // where the window is the checkpoint cadence plus the step skew —
    // while an eviction-free run would retain agents × horizon records.
    let max_resident = log
        .iter()
        .map(|(_, _, r, _)| *r)
        .max()
        .expect("checkpoints ran");
    let window_bound = agents * (EVERY as u64 + sched.stats().max_step_skew as u64 + 1);
    assert!(
        max_resident <= window_bound,
        "history must stay within the window bound: {max_resident} > {window_bound}"
    );
    assert!(
        ckpt.written() >= (STEPS / EVERY - 1) as u64,
        "expected mid-run checkpoints"
    );

    let oracle = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();

    // --- The interruption: resume from the last snapshot file ----------
    let snap_path = ckpt.last_path().expect("checkpoints written").to_path_buf();
    println!("\nInterrupting: resuming from {}…", snap_path.display());
    let snap = Snapshot::load(&snap_path).expect("snapshot loads");
    let (meta, mut resumed_sched) = checkpoint::resume(&snap, None, None).expect("resume");
    println!(
        "  restored {} agents at steps {}..{} ({} store records)",
        meta.num_agents,
        meta.min_step,
        meta.max_step,
        snap.info().db_records
    );
    let village = Village::restore(snap.section(SECTION_WORLD).expect("world section"))
        .expect("village restores");
    let program = Arc::new(VillageProgram::with_step_offset(village, meta.step_offset));
    run_threaded_observed(
        &mut resumed_sched,
        Arc::clone(&program),
        Arc::new(InstantBackend::new()),
        ThreadedConfig {
            workers: WORKERS,
            priority_enabled: true,
        },
        None,
        None,
    )
    .expect("resumed run");
    assert!(resumed_sched.is_done());
    let resumed = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();

    // The acceptance bar: interrupted-and-resumed equals uninterrupted,
    // world for world.
    assert_eq!(
        oracle.positions(),
        resumed.positions(),
        "positions diverged"
    );
    assert_eq!(oracle.events(), resumed.events(), "event logs diverged");
    for agent in 0..oracle.num_agents() as u32 {
        assert_eq!(
            oracle.conversation_cooldown(agent),
            resumed.conversation_cooldown(agent),
            "agent {agent} conversation state diverged"
        );
    }
    assert!(
        !oracle.events().is_empty(),
        "a 100-agent morning must produce events"
    );

    println!(
        "\nResumed run equals the uninterrupted one: {} events, {} agents, \
         history bounded at {} records (vs {} unevicted).",
        oracle.events().len(),
        oracle.num_agents(),
        max_resident,
        agents * (STEPS as u64 + 1),
    );
    println!("Snapshots retained under {dir}/ for `trace_tool snapshot --validate`.");
}
