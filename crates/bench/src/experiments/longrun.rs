//! Long-horizon bounded-memory run (the ROADMAP's ScaleSim-style memory
//! management direction): a 1000-agent village driven for 10× the bench
//! horizon under the threaded runtime, with the checkpoint subsystem
//! snapshotting every K committed steps and evicting dependency-graph
//! history below the deepest legal rollback at each checkpoint.
//!
//! The table tracks, at every checkpoint, the store's resident record
//! count against the O(agents × horizon) count an eviction-free run
//! would hold — the demonstration that resident state is O(agents ×
//! window). In `--quick` mode a second, eviction-free arm *measures*
//! the unbounded growth instead of deriving it.
//!
//! Resume workflow (`repro longrun --resume <snap>`): restores the last
//! snapshot — store, scheduler, world — and drives the run to its
//! original target, printing what was restored. Interrupt a long run
//! with ^C and hand its newest `ckpt-*.aimsnap` back to `--resume`.

use std::sync::Arc;
use std::time::Instant;

use aim_core::checkpoint::{self, SECTION_WORLD};
use aim_core::exec::threaded::{run_threaded_observed, CheckpointHook, ThreadedConfig};
use aim_core::policy::DependencyPolicy;
use aim_core::prelude::*;
use aim_llm::InstantBackend;
use aim_store::{Checkpointer, Db, Snapshot};
use aim_world::program::VillageProgram;
use aim_world::{clock_to_step, Village, VillageConfig};

use crate::harness::RunEnv;
use crate::table::Table;

/// One checkpoint row of the bounded-memory log.
struct Sample {
    step: u32,
    keys: u64,
    resident_hist: u64,
    evicted_total: u64,
    snap_bytes: u64,
    wall_s: f64,
}

/// Runs the experiment; prints the table and writes `longrun.csv`.
///
/// # Panics
///
/// Panics if the bounded-memory acceptance bound is violated or on
/// internal engine errors.
pub fn run(env: &RunEnv) {
    if let Some(path) = &env.resume {
        resume_from(path, env);
        return;
    }
    // Full size: 1000 agents for 600 steps — 10× the 60-step horizon of
    // the `scheduler/replay_10min_1000agents` bench target.
    let (villes, steps) = if env.quick { (4, 120) } else { (40, 600) };
    let every = cadence(env);
    let agents = villes * 25;

    let mut table = Table::new(
        "long-horizon bounded memory",
        &[
            "arm",
            "ckpt step",
            "store keys",
            "resident hist",
            "evicted (cum)",
            "no-evict hist",
            "snap KB",
            "wall s",
        ],
    );

    let arms: &[bool] = if env.quick { &[true, false] } else { &[true] };
    for &evict in arms {
        let arm = if evict { "evict" } else { "no-evict" };
        println!("longrun[{arm}]: {agents} agents × {steps} steps, checkpoint every {every}…");
        let samples = drive(env, arm, villes, steps, every, evict);
        for s in &samples {
            table.push_row(vec![
                arm.to_string(),
                s.step.to_string(),
                s.keys.to_string(),
                s.resident_hist.to_string(),
                s.evicted_total.to_string(),
                (agents as u64 * (s.step as u64 + 1)).to_string(),
                format!("{:.1}", s.snap_bytes as f64 / 1024.0),
                format!("{:.1}", s.wall_s),
            ]);
        }
        if evict {
            // The acceptance bound: resident history stays within
            // O(agents × window); the store's total resident record
            // count is that plus one authoritative record per agent
            // and two counters.
            let max_resident = samples.iter().map(|s| s.resident_hist).max().unwrap();
            let max_keys = samples.iter().map(|s| s.keys).max().unwrap();
            // Window = cadence + skew; skew is bounded by the cadence's
            // drain plus the rules' slack, so 2×cadence is generous and
            // still ~5× under the horizon.
            let window_bound = agents as u64 * (2 * every as u64 + 1);
            assert!(
                max_resident <= window_bound,
                "resident history {max_resident} exceeded O(agents × window) bound {window_bound}"
            );
            assert!(
                max_keys <= window_bound + agents as u64 + 2,
                "store keys {max_keys} not bounded by history window"
            );
            println!(
                "bounded: ≤{max_resident} resident history records \
                 (O(agents×window) bound {window_bound}, horizon would be {})",
                agents as u64 * (steps as u64 + 1)
            );
        }
    }
    print!("{}", table.render());
    if let Ok(path) = table.write_csv(&env.out_dir) {
        println!("wrote {}", path.display());
    }
}

/// Checkpoint cadence in committed steps: the operator's
/// `--checkpoint-every`, else 30 under `--quick` and 60 in full. A run
/// and its resumption, given the same flags, share it.
fn cadence(env: &RunEnv) -> u32 {
    env.checkpoint_every
        .unwrap_or(if env.quick { 30 } else { 60 })
}

/// Drives one checkpointed arm to completion, returning the per-
/// checkpoint log.
fn drive(env: &RunEnv, arm: &str, villes: u32, steps: u32, every: u32, evict: bool) -> Vec<Sample> {
    let start = clock_to_step(8, 0);
    let mut village = Village::generate(&VillageConfig {
        villes,
        agents_per_ville: 25,
        seed: 7,
    });
    village.run_lockstep(0, start, |_, _, _, _| {});
    let space = village.space();
    let program = Arc::new(VillageProgram::with_step_offset(village, start));
    let initial = program.initial_positions();
    let db = Arc::new(Db::new());
    let mut sched = Scheduler::new_with_history(
        Arc::new(space),
        RuleParams::genagent(),
        DependencyPolicy::Spatiotemporal,
        Arc::clone(&db),
        &initial,
        Step(steps),
        true,
    )
    .expect("scheduler");
    // Per-arm directory, cleared up front: rotation keys on the step in
    // the file name, so stale files from a previous arm would shadow
    // fresh ones.
    let dir = env.out_dir.join("longrun").join(arm);
    std::fs::remove_dir_all(&dir).ok();
    let mut ckpt = Checkpointer::new(&dir, 2);
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut evicted_total = 0u64;
    {
        let world_src = Arc::clone(&program);
        let db = Arc::clone(&db);
        let samples = &mut samples;
        let ckpt = &mut ckpt;
        let evicted_total = &mut evicted_total;
        let mut hook_fn = move |sched: &mut Scheduler<GridSpace>| -> Result<(), EngineError> {
            if evict {
                *evicted_total += sched.evict_history()?;
            }
            let committed = sched.graph().min_step().0;
            let builder = checkpoint::snapshot_run(sched, start, Some(world_src.capture_state()));
            let path = ckpt.write(committed, &builder)?;
            let snap_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            samples.push(Sample {
                step: committed,
                keys: db.stats().keys as u64,
                resident_hist: sched.graph().history_records(),
                evicted_total: *evicted_total,
                snap_bytes,
                wall_s: started.elapsed().as_secs_f64(),
            });
            Ok(())
        };
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig {
                workers: 16,
                priority_enabled: true,
            },
            Some(CheckpointHook {
                every_steps: every,
                f: &mut hook_fn,
            }),
            None,
        )
        .expect("checkpointed threaded run");
        print!("{report}");
    }
    assert!(sched.is_done());
    assert!(sched.graph().validate().is_ok());
    println!("  {} checkpoints under {}", ckpt.written(), dir.display());
    samples
}

/// The `--resume <snap>` workflow: restore and finish an interrupted
/// run — *still checkpointing*, into the snapshot's own directory, so a
/// resumed run can itself be interrupted and resumed again.
fn resume_from(path: &std::path::Path, env: &RunEnv) {
    println!("resuming from {}…", path.display());
    let snap = Snapshot::load(path).expect("snapshot loads");
    let (meta, mut sched) = checkpoint::resume(&snap, None, None).expect("resume");
    println!(
        "restored {} agents at steps {}..{} (target {}, {} store records)",
        meta.num_agents,
        meta.min_step,
        meta.max_step,
        meta.target_step,
        snap.info().db_records
    );
    let world = snap
        .section(SECTION_WORLD)
        .expect("run snapshots carry world state");
    let village = Village::restore(world).expect("village restores");
    let program = Arc::new(VillageProgram::with_step_offset(village, meta.step_offset));
    let started = Instant::now();
    // Keep the original checkpoint chain going: write into the directory
    // the snapshot came from, at the run's cadence, so ^C during the
    // resumed run loses at most one window.
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let every = cadence(env);
    let mut ckpt = Checkpointer::new(dir.unwrap_or(std::path::Path::new(".")), 2);
    let step_offset = meta.step_offset;
    {
        let world_src = Arc::clone(&program);
        let ckpt = &mut ckpt;
        let mut hook_fn = move |sched: &mut Scheduler<GridSpace>| -> Result<(), EngineError> {
            sched.evict_history()?;
            let committed = sched.graph().min_step().0;
            let builder =
                checkpoint::snapshot_run(sched, step_offset, Some(world_src.capture_state()));
            ckpt.write(committed, &builder)?;
            Ok(())
        };
        run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig {
                workers: 16,
                priority_enabled: true,
            },
            Some(CheckpointHook {
                every_steps: every,
                f: &mut hook_fn,
            }),
            None,
        )
        .expect("resumed run");
    }
    assert!(sched.is_done());
    assert!(sched.graph().validate().is_ok());
    let left = meta.target_step - meta.min_step;
    assert!(
        left <= every || ckpt.written() > 0,
        "{left} steps left at a cadence of {every} wrote no checkpoint"
    );
    let village = Arc::try_unwrap(program)
        .expect("workers joined")
        .into_village();
    println!(
        "finished remaining {left} steps in {:.1}s ({} further checkpoints); \
         {} world events total",
        started.elapsed().as_secs_f64(),
        ckpt.written(),
        village.events().len()
    );
    if let Some(last) = ckpt.last_path() {
        println!("  newest checkpoint {}", last.display());
    }
}
