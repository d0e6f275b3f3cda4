//! A checkpoint's `meta` section is input, not trusted state.
//!
//! The snapshot checksum is FNV-1a, which anyone can recompute, so a
//! resume sees whatever `meta` a file carries. Each field value no writer
//! can record must come back from [`resume`] and [`resume_sharded`] as a
//! codec error naming the field — before any of it sizes an allocation
//! or reaches a constructor that asserts on it — and a sweep over every
//! byte of a real sharded checkpoint's `meta`, re-sealed so its checksum
//! matches, must never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use aim_core::checkpoint::{
    resume, resume_sharded, snapshot_sharded_run, CheckpointMeta, SECTION_META,
};
use aim_core::depgraph::{EdgeMode, GraphOptions};
use aim_core::prelude::*;
use aim_store::{Db, Snapshot, SnapshotBuilder, StoreError};
use bytes::Bytes;

/// A six-agent, four-strip run with history, a few commits in.
fn checkpoint() -> Snapshot {
    let initial: Vec<Point> = [(5, 5), (8, 5), (30, 5), (60, 5), (90, 5), (93, 9)]
        .iter()
        .map(|&(x, y)| Point::new(x, y))
        .collect();
    let graph = ShardedDepGraph::new_with_options(
        Arc::new(GridSpace::new(100, 140)),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &initial,
        Arc::new(StripShardMap::new(100, 4)),
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: true,
        },
    )
    .unwrap();
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(6));
    for _ in 0..2 {
        for c in sched.ready_clusters() {
            let pos: Vec<(AgentId, Point)> = c
                .members
                .iter()
                .map(|m| (*m, sched.graph().pos(*m)))
                .collect();
            sched.complete(&c.id, &pos).unwrap();
        }
    }
    Snapshot::from_bytes(snapshot_sharded_run(&sched, 0, None).to_bytes().unwrap()).unwrap()
}

/// `snap` with its `meta` body replaced, re-sealed through
/// [`SnapshotBuilder`] so the checksum matches.
fn reseal(snap: &Snapshot, meta: Bytes) -> Snapshot {
    let db = snap.restore_db();
    let mut builder = SnapshotBuilder::new();
    for (name, body) in snap.sections_with_prefix("") {
        let body = if name == SECTION_META { &meta } else { body };
        builder = builder.section(name, body.clone());
    }
    Snapshot::from_bytes(builder.db(&db).to_bytes().unwrap()).unwrap()
}

fn with_meta(edit: impl FnOnce(&mut CheckpointMeta)) -> Snapshot {
    let snap = checkpoint();
    let mut meta = CheckpointMeta::decode(snap.section(SECTION_META).unwrap().clone()).unwrap();
    edit(&mut meta);
    reseal(&snap, meta.encode())
}

/// Both resume paths refuse `snap` with a codec error naming `field`.
fn assert_refused(snap: &Snapshot, field: &str) {
    let errors = [
        resume(snap, None, None).map(|_| ()),
        resume_sharded(snap, None, None).map(|_| ()),
    ];
    for error in errors {
        match error {
            Err(EngineError::Store(StoreError::Codec(msg))) => {
                assert!(msg.contains(field), "{msg:?} does not name {field}")
            }
            other => panic!("expected a codec error naming {field}, got {other:?}"),
        }
    }
}

#[test]
fn the_untouched_checkpoint_resumes_both_ways() {
    let snap = checkpoint();
    assert_eq!(
        reseal(&snap, snap.section(SECTION_META).unwrap().clone()).info(),
        snap.info()
    );
    let (meta, sched) = resume_sharded(&snap, None, None).unwrap();
    assert_eq!((meta.shards, sched.graph().num_shards()), (4, 4));
    resume(&snap, None, None).unwrap();
}

#[test]
fn zero_max_vel_is_refused() {
    assert_refused(&with_meta(|m| m.max_vel = 0), "max_vel");
}

#[test]
fn zero_target_step_is_refused() {
    assert_refused(&with_meta(|m| m.target_step = 0), "target_step");
}

#[test]
fn zero_agents_is_refused() {
    assert_refused(&with_meta(|m| m.num_agents = 0), "num_agents");
}

#[test]
fn a_shard_count_past_the_strip_count_is_refused() {
    assert_refused(&with_meta(|m| m.shards = u32::MAX), "shards");
    assert_refused(&with_meta(|m| m.shards = 101), "shards");
}

#[test]
fn trailing_meta_bytes_are_refused() {
    let snap = checkpoint();
    let mut body = snap.section(SECTION_META).unwrap().to_vec();
    body.extend_from_slice(&[0, 0, 0, 0]);
    assert_refused(&reseal(&snap, Bytes::from(body)), "trailing");
}

/// Every byte of `meta` replaced with `0x00`, `0xFF` and `b ^ 0x80`:
/// each resume returns, `Ok` or `Err`, and never panics.
#[test]
fn meta_byte_mutations_never_panic() {
    let snap = checkpoint();
    let meta = snap.section(SECTION_META).unwrap().clone();
    let mut refused = 0;
    for at in 0..meta.len() {
        for byte in [0x00, 0xFF, meta[at] ^ 0x80] {
            let mut body = meta.to_vec();
            body[at] = byte;
            let mutated = reseal(&snap, Bytes::from(body));
            for (path, sharded) in [("resume", false), ("resume_sharded", true)] {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if sharded {
                        resume_sharded(&mutated, None, None).is_ok()
                    } else {
                        resume(&mutated, None, None).is_ok()
                    }
                }));
                match outcome {
                    Ok(true) => {}
                    Ok(false) => refused += 1,
                    Err(_) => panic!("{path} panicked on meta byte {at} set to {byte:#04x}"),
                }
            }
        }
    }
    assert!(refused > 0, "no mutation was refused");
}
