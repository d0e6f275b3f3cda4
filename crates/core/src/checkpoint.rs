//! Engine-level checkpoint capture and resume over `AIMSNAP v1`
//! snapshots ([`aim_store::snapshot`]).
//!
//! A run snapshot is the store image (authoritative dependency-graph
//! records, per-step history, counters, watermarks) plus two named
//! sections:
//!
//! * [`SECTION_META`] — a [`CheckpointMeta`] describing how to rebuild
//!   the scheduler: agent count, space dimensions, rule parameters,
//!   target, and the world-step offset;
//! * [`SECTION_WORLD`] — opaque world-state bytes supplied by the caller
//!   (e.g. `aim_world`'s `Village::capture_state`), absent for replayed
//!   trace workloads whose world lives in the trace.
//!
//! [`snapshot_run`] builds the capture from a **quiesced** scheduler (the
//! threaded runtime's checkpoint barrier guarantees this); [`resume`]
//! inverts it: restore the store, rebuild the scheduler via
//! [`Scheduler::recover`], and hand back the metadata so the caller can
//! restore its world and continue the run.
//!
//! This module is deliberately [`GridSpace`]-specific: the metadata
//! section must name the space to rebuild, and every executor-facing
//! workload in this repository runs on the grid. Other spaces can reuse
//! the section mechanism with their own metadata.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use aim_store::{codec, Snapshot, SnapshotBuilder, StoreError};

use crate::depgraph::{DepGraph, DepTracker, GraphOptions};
use crate::error::EngineError;
use crate::ids::Step;
use crate::policy::DependencyPolicy;
use crate::rules::RuleParams;
use crate::scheduler::Scheduler;
use crate::shard::{ShardedDepGraph, StripShardMap};
use crate::space::GridSpace;

/// Snapshot section holding the encoded [`CheckpointMeta`].
pub const SECTION_META: &str = "meta";

/// Snapshot section holding opaque world state (e.g. a serialized
/// village).
pub const SECTION_WORLD: &str = "world";

/// Name prefix of the per-shard membership sections written by
/// [`snapshot_sharded_run`]: section `shard/<i>` holds shard `i`'s
/// member agent ids (a [`codec`] `u32` list). Membership is *derived*
/// state — the authoritative records are shard-agnostic — recorded so
/// [`resume_sharded`] rebuilds ownership without rescanning every
/// agent's position.
pub const SECTION_SHARD_PREFIX: &str = "shard/";

/// Version tag leading the encoded metadata section. Version 2 appends
/// the shard count (version-1 snapshots decode as unsharded).
const META_VERSION: u32 = 2;

/// Serializable identity of the [`DependencyPolicy`] a run was scheduled
/// under — recorded in the snapshot so [`resume`] rebuilds the scheduler
/// with the *same* semantics (edge maintenance, barrier shape) instead of
/// requiring the operator to remember them, and so validators know
/// whether the §3.2 validity condition is expected to hold at all
/// (a no-dependency ablation run legitimately violates it).
///
/// [`PolicyTag::Oracle`] carries no graph (the mined
/// [`crate::policy::OracleGraph`] is not serialized); resuming an oracle
/// run requires passing the graph back in as an explicit override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyTag {
    /// [`DependencyPolicy::GlobalSync`].
    GlobalSync,
    /// [`DependencyPolicy::Spatiotemporal`].
    Spatiotemporal,
    /// [`DependencyPolicy::Oracle`] (graph not recorded).
    Oracle,
    /// [`DependencyPolicy::NoDependency`].
    NoDependency,
}

impl PolicyTag {
    /// The tag of a live policy.
    pub fn of(policy: &DependencyPolicy) -> Self {
        match policy {
            DependencyPolicy::GlobalSync => PolicyTag::GlobalSync,
            DependencyPolicy::Spatiotemporal => PolicyTag::Spatiotemporal,
            DependencyPolicy::Oracle(_) => PolicyTag::Oracle,
            DependencyPolicy::NoDependency => PolicyTag::NoDependency,
        }
    }

    /// The policy this tag fully determines, or `None` for
    /// [`PolicyTag::Oracle`] (whose graph is not in the snapshot).
    fn to_policy(self) -> Option<DependencyPolicy> {
        match self {
            PolicyTag::GlobalSync => Some(DependencyPolicy::GlobalSync),
            PolicyTag::Spatiotemporal => Some(DependencyPolicy::Spatiotemporal),
            PolicyTag::NoDependency => Some(DependencyPolicy::NoDependency),
            PolicyTag::Oracle => None,
        }
    }

    fn code(self) -> u32 {
        match self {
            PolicyTag::GlobalSync => 0,
            PolicyTag::Spatiotemporal => 1,
            PolicyTag::Oracle => 2,
            PolicyTag::NoDependency => 3,
        }
    }

    fn from_code(code: u32) -> Result<Self, StoreError> {
        Ok(match code {
            0 => PolicyTag::GlobalSync,
            1 => PolicyTag::Spatiotemporal,
            2 => PolicyTag::Oracle,
            3 => PolicyTag::NoDependency,
            _ => return Err(StoreError::Codec(format!("unknown policy tag code {code}"))),
        })
    }
}

/// Everything needed to rebuild a [`Scheduler<GridSpace>`] from a
/// restored store, plus run bookkeeping for resuming drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CheckpointMeta {
    /// Number of agents (= authoritative `dagt` records in the store).
    pub num_agents: u32,
    /// Grid width of the space the run was scheduled on.
    pub width: u32,
    /// Grid height of the space the run was scheduled on.
    pub height: u32,
    /// Rule perception radius.
    pub radius_p: u32,
    /// Rule maximum velocity.
    pub max_vel: u32,
    /// The run's target step (scheduler-relative).
    pub target_step: u32,
    /// World step corresponding to scheduler step 0 (pre-warmed worlds).
    pub step_offset: u32,
    /// Lowest agent step at capture time (the fully-committed floor).
    pub min_step: u32,
    /// Highest agent step at capture time.
    pub max_step: u32,
    /// Whether the run records per-step history.
    pub history: bool,
    /// The dependency policy the run was scheduled under.
    pub policy: PolicyTag,
    /// Number of spatial shards the dependency tracker was partitioned
    /// into (`0` = the single-shard [`crate::depgraph::DepGraph`]; `n ≥ 1`
    /// = a [`ShardedDepGraph`] over [`StripShardMap::new(width, n)`],
    /// with per-shard membership in the [`SECTION_SHARD_PREFIX`]
    /// sections).
    pub shards: u32,
}

impl CheckpointMeta {
    /// Reads the metadata off a live (quiesced) scheduler's `graph`:
    /// `shards` is 0 for a [`DepGraph`] and the shard count for a
    /// [`ShardedDepGraph`].
    fn read(
        graph: &DepGraph<GridSpace>,
        target: Step,
        policy: &DependencyPolicy,
        step_offset: u32,
        shards: u32,
    ) -> Self {
        let params = graph.params();
        let space = graph.space();
        CheckpointMeta {
            num_agents: graph.len() as u32,
            width: space.width(),
            height: space.height(),
            radius_p: params.radius_p,
            max_vel: params.max_vel,
            target_step: target.0,
            step_offset,
            min_step: graph.min_step().0,
            max_step: graph.max_step().0,
            history: graph.history_enabled(),
            policy: PolicyTag::of(policy),
            shards,
        }
    }

    /// Encodes the metadata section body.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        codec::put_u32(&mut buf, META_VERSION);
        codec::put_u32(&mut buf, self.num_agents);
        codec::put_u32(&mut buf, self.width);
        codec::put_u32(&mut buf, self.height);
        codec::put_u32(&mut buf, self.radius_p);
        codec::put_u32(&mut buf, self.max_vel);
        codec::put_u32(&mut buf, self.target_step);
        codec::put_u32(&mut buf, self.step_offset);
        codec::put_u32(&mut buf, self.min_step);
        codec::put_u32(&mut buf, self.max_step);
        codec::put_u32(&mut buf, self.history as u32);
        codec::put_u32(&mut buf, self.policy.code());
        codec::put_u32(&mut buf, self.shards);
        buf.freeze()
    }

    /// Decodes a metadata section body (versions 1 and 2; version-1
    /// snapshots predate sharding and decode with `shards = 0`).
    ///
    /// The section is checked here, once, against what a writer can
    /// record: at least one agent, a positive target and velocity, no
    /// more shards than a [`StripShardMap`] over the recorded width
    /// reports, and nothing after the last field. The checksum of a
    /// snapshot detects damage, not tampering, so a resume must not trust
    /// these values further than this.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] on truncation, an unknown version,
    /// trailing bytes, or a field value no run can record.
    pub fn decode(mut body: Bytes) -> Result<Self, StoreError> {
        let version = codec::get_u32(&mut body)?;
        if version != 1 && version != META_VERSION {
            return Err(StoreError::Codec(format!(
                "unsupported checkpoint meta version {version} (expected ≤ {META_VERSION})"
            )));
        }
        let meta = CheckpointMeta {
            num_agents: codec::get_u32(&mut body)?,
            width: codec::get_u32(&mut body)?,
            height: codec::get_u32(&mut body)?,
            radius_p: codec::get_u32(&mut body)?,
            max_vel: codec::get_u32(&mut body)?,
            target_step: codec::get_u32(&mut body)?,
            step_offset: codec::get_u32(&mut body)?,
            min_step: codec::get_u32(&mut body)?,
            max_step: codec::get_u32(&mut body)?,
            history: codec::get_u32(&mut body)? != 0,
            policy: PolicyTag::from_code(codec::get_u32(&mut body)?)?,
            shards: if version >= 2 {
                codec::get_u32(&mut body)?
            } else {
                0
            },
        };
        let strips = meta.width.max(1);
        let zero = [
            ("num_agents", meta.num_agents),
            ("target_step", meta.target_step),
            ("max_vel", meta.max_vel),
        ]
        .into_iter()
        .find(|&(_, v)| v == 0);
        let refusal = if !body.is_empty() {
            format!("{} trailing bytes", body.len())
        } else if let Some((field, _)) = zero {
            format!("{field} is 0")
        } else if meta.shards > strips {
            format!(
                "shards {} exceeds the {strips}-column strip count",
                meta.shards
            )
        } else {
            return Ok(meta);
        };
        Err(StoreError::Codec(format!("checkpoint meta: {refusal}")))
    }
}

/// Builds the snapshot of a quiesced run: store image, metadata section,
/// and (when given) the caller's world-state section.
///
/// The builder borrows the scheduler's store; encode or save it before
/// the next commit. Call only while nothing is in flight — the threaded
/// runtime's [`CheckpointHook`](crate::exec::threaded::CheckpointHook)
/// barrier, or any single-threaded driver between steps.
pub fn snapshot_run<'a>(
    sched: &'a Scheduler<GridSpace>,
    step_offset: u32,
    world: Option<Bytes>,
) -> SnapshotBuilder<'a> {
    let (target, policy) = (sched.target_step(), sched.policy());
    snapshot(sched.graph(), target, policy, step_offset, 0, world)
}

/// [`snapshot_run`] for a scheduler mounted on a [`ShardedDepGraph`]:
/// the store image is identical (the authoritative records are
/// shard-agnostic), the metadata records the shard count, and one
/// `shard/<i>` section per shard serializes its member ids so
/// [`resume_sharded`] rebuilds ownership without a global rescan.
///
/// Call only while quiesced, as with [`snapshot_run`].
pub fn snapshot_sharded_run<'a>(
    sched: &'a Scheduler<GridSpace, ShardedDepGraph<GridSpace>>,
    step_offset: u32,
    world: Option<Bytes>,
) -> SnapshotBuilder<'a> {
    let (graph, target, policy) = (sched.graph(), sched.target_step(), sched.policy());
    let shards = graph.num_shards() as u32;
    snapshot(graph, target, policy, step_offset, shards, world)
}

/// The snapshot both writers build: the metadata section, one
/// `shard/<i>` membership section per shard (none for `shards` = 0, an
/// unsharded run), the world section when given, and `graph`'s store
/// image.
fn snapshot<'a>(
    graph: &'a DepGraph<GridSpace>,
    target: Step,
    policy: &DependencyPolicy,
    step_offset: u32,
    shards: u32,
    world: Option<Bytes>,
) -> SnapshotBuilder<'a> {
    let meta = CheckpointMeta::read(graph, target, policy, step_offset, shards);
    let mut builder = SnapshotBuilder::new().section(SECTION_META, meta.encode());
    for shard in 0..shards as usize {
        let mut body = BytesMut::new();
        codec::put_u32_list(&mut body, &graph.members(shard));
        builder = builder.section(format!("{SECTION_SHARD_PREFIX}{shard}"), body.freeze());
    }
    if let Some(world) = world {
        builder = builder.section(SECTION_WORLD, world);
    }
    builder.db(graph.db())
}

/// Rebuilds a scheduler (and returns the decoded metadata) from a parsed
/// snapshot: the store is restored record-for-record, then
/// [`Scheduler::recover`] picks every agent up at its recorded step.
///
/// The scheduler resumes under the snapshot's *recorded* policy by
/// default, which is what preserves the interrupted-equals-uninterrupted
/// guarantee; pass `policy` only to override it deliberately — and
/// always for oracle runs, whose mined graph is not serialized.
///
/// `target` overrides the snapshot's recorded target when given — the
/// interrupted-resume path passes `None` to finish the original run;
/// horizon-extension passes a larger target.
///
/// # Errors
///
/// Returns a codec error if the metadata section is missing or
/// malformed, if the restored store is missing agent records, or if the
/// snapshot records an oracle policy and no override supplies the graph.
pub fn resume(
    snap: &Snapshot,
    policy: Option<DependencyPolicy>,
    target: Option<Step>,
) -> Result<(CheckpointMeta, Scheduler<GridSpace>), EngineError> {
    let (meta, policy) = meta_and_policy(snap, policy)?;
    let db = snap.restore_db();
    let sched = Scheduler::recover(
        Arc::new(GridSpace::new(meta.width, meta.height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        policy,
        Arc::new(db),
        meta.num_agents as usize,
        target.unwrap_or(Step(meta.target_step)),
        meta.history,
    )?;
    Ok((meta, sched))
}

/// [`resume`] for a snapshot written by [`snapshot_sharded_run`]:
/// rebuilds a scheduler over a [`ShardedDepGraph`], restoring shard
/// ownership from the recorded `shard/<i>` sections instead of
/// re-deriving it from every agent's position.
///
/// The metadata records only the shard *count*, so the tracker is
/// rebuilt on [`StripShardMap::new(width, shards)`] — the map every
/// shipped writer uses. A snapshot written under a custom [`ShardMap`]
/// whose membership disagrees with that geometry is rejected with a
/// codec error (the membership/geometry cross-check in
/// [`ShardedDepGraph::recover_with_members`]); rebuild such runs
/// manually with `recover_with_members` and the original map.
///
/// [`ShardMap`]: crate::shard::ShardMap
///
/// The authoritative records are shard-agnostic, so a sharded snapshot
/// can also be resumed unsharded with plain [`resume`] (the membership
/// sections are simply ignored); the reverse is not possible — this
/// function refuses snapshots without shard metadata.
///
/// # Errors
///
/// As [`resume`], plus a codec error when the snapshot records no shards
/// or a membership section is missing or malformed.
pub fn resume_sharded(
    snap: &Snapshot,
    policy: Option<DependencyPolicy>,
    target: Option<Step>,
) -> Result<
    (
        CheckpointMeta,
        Scheduler<GridSpace, ShardedDepGraph<GridSpace>>,
    ),
    EngineError,
> {
    let (meta, policy) = meta_and_policy(snap, policy)?;
    if meta.shards == 0 {
        return Err(EngineError::Store(StoreError::Codec(
            "snapshot was taken from an unsharded run; resume it with \
             checkpoint::resume instead"
                .to_string(),
        )));
    }
    let mut members = Vec::new();
    for shard in 0..meta.shards {
        let name = format!("{SECTION_SHARD_PREFIX}{shard}");
        let mut body = snap
            .section(&name)
            .ok_or_else(|| {
                EngineError::Store(StoreError::Codec(format!(
                    "sharded snapshot is missing its \"{name}\" section"
                )))
            })?
            .clone();
        members.push(codec::get_u32_list(&mut body).map_err(EngineError::Store)?);
    }
    let db = snap.restore_db();
    let graph = ShardedDepGraph::recover_with_members(
        Arc::new(GridSpace::new(meta.width, meta.height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        Arc::new(db),
        meta.num_agents as usize,
        Arc::new(StripShardMap::new(meta.width, meta.shards as usize)),
        GraphOptions {
            edges: crate::depgraph::EdgeMode::Maintained,
            history: meta.history,
        },
        &members,
    )?;
    let sched = Scheduler::from_graph(graph, policy, target.unwrap_or(Step(meta.target_step)));
    Ok((meta, sched))
}

/// Decodes the metadata section and resolves the resume policy (shared
/// by [`resume`] and [`resume_sharded`]).
fn meta_and_policy(
    snap: &Snapshot,
    policy: Option<DependencyPolicy>,
) -> Result<(CheckpointMeta, DependencyPolicy), EngineError> {
    let body = snap
        .section(SECTION_META)
        .ok_or_else(|| {
            EngineError::Store(StoreError::Codec(format!(
                "snapshot has no \"{SECTION_META}\" section: not a run checkpoint"
            )))
        })?
        .clone();
    let meta = CheckpointMeta::decode(body).map_err(EngineError::Store)?;
    // Every agent has a record, so the record count bounds the agent
    // count before it sizes any per-agent table.
    if meta.num_agents as usize > snap.records().len() {
        return Err(EngineError::Store(StoreError::Codec(format!(
            "checkpoint meta: num_agents {} exceeds the snapshot's {} records",
            meta.num_agents,
            snap.records().len()
        ))));
    }
    let policy = match policy {
        Some(p) => p,
        None => meta.policy.to_policy().ok_or_else(|| {
            EngineError::Store(StoreError::Codec(
                "snapshot was taken under an oracle policy; pass the mined graph \
                 as an explicit policy override to resume"
                    .to_string(),
            ))
        })?,
    };
    Ok((meta, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AgentId;
    use crate::space::Point;
    use aim_store::Db;

    fn sched_with_history(points: &[(i32, i32)], target: u32) -> Scheduler<GridSpace> {
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        Scheduler::new_with_history(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            DependencyPolicy::Spatiotemporal,
            Arc::new(Db::new()),
            &initial,
            Step(target),
            true,
        )
        .unwrap()
    }

    #[test]
    fn meta_roundtrips() {
        let sched = sched_with_history(&[(0, 0), (50, 50)], 4);
        let meta = CheckpointMeta::read(sched.graph(), sched.target_step(), sched.policy(), 17, 0);
        assert_eq!(meta.num_agents, 2);
        assert_eq!((meta.width, meta.height), (100, 140));
        assert_eq!(meta.step_offset, 17);
        assert!(meta.history);
        assert_eq!(meta.policy, PolicyTag::Spatiotemporal);
        let decoded = CheckpointMeta::decode(meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn resume_follows_the_recorded_policy() {
        // A global-sync run's snapshot must resume as global-sync, not as
        // whatever the caller happens to guess.
        let sched = Scheduler::new_with_history(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            DependencyPolicy::GlobalSync,
            Arc::new(Db::new()),
            &[Point::new(0, 0), Point::new(9, 9)],
            Step(3),
            false,
        )
        .unwrap();
        let snap = Snapshot::from_bytes(snapshot_run(&sched, 0, None).to_bytes().unwrap()).unwrap();
        let (meta, resumed) = resume(&snap, None, None).unwrap();
        assert_eq!(meta.policy, PolicyTag::GlobalSync);
        assert_eq!(
            PolicyTag::of(resumed.policy()),
            PolicyTag::GlobalSync,
            "resume must rebuild under the recorded policy"
        );
    }

    #[test]
    fn oracle_snapshots_require_an_explicit_override() {
        use crate::policy::OracleGraph;
        let oracle = Arc::new(OracleGraph::from_interactions(2, &[vec![], vec![]]));
        let sched = Scheduler::new_with_history(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            DependencyPolicy::Oracle(Arc::clone(&oracle)),
            Arc::new(Db::new()),
            &[Point::new(0, 0), Point::new(50, 50)],
            Step(2),
            false,
        )
        .unwrap();
        let snap = Snapshot::from_bytes(snapshot_run(&sched, 0, None).to_bytes().unwrap()).unwrap();
        // The mined graph is not serialized: refusing is the only safe
        // default…
        assert!(resume(&snap, None, None).is_err());
        // …and supplying it back resumes fine.
        let (meta, _) = resume(&snap, Some(DependencyPolicy::Oracle(oracle)), None).unwrap();
        assert_eq!(meta.policy, PolicyTag::Oracle);
    }

    #[test]
    fn decode_rejects_bad_version_and_truncation() {
        let mut buf = BytesMut::new();
        codec::put_u32(&mut buf, 99);
        assert!(CheckpointMeta::decode(buf.freeze()).is_err());
        let sched = sched_with_history(&[(0, 0)], 1);
        let good = CheckpointMeta::read(sched.graph(), Step(1), sched.policy(), 0, 0).encode();
        assert!(CheckpointMeta::decode(good.slice(..good.len() - 2)).is_err());
    }

    #[test]
    fn snapshot_resume_restores_mid_run_state() {
        let mut sched = sched_with_history(&[(0, 0), (60, 60)], 5);
        // Drive agent 1 two steps ahead, agent 0 one (agents stay put;
        // in-flight clusters persist across ready_clusters calls, so keep
        // a pending pool).
        let mut pending = sched.ready_clusters();
        for agent in [1u32, 1, 0] {
            let at = pending
                .iter()
                .position(|c| c.members.contains(&AgentId(agent)))
                .expect("agent ready");
            let c = pending.swap_remove(at);
            let pos: Vec<(AgentId, Point)> = c
                .members
                .iter()
                .map(|m| (*m, sched.graph().pos(*m)))
                .collect();
            sched.complete(&c.id, &pos).unwrap();
            pending.extend(sched.ready_clusters());
        }
        let bytes = snapshot_run(&sched, 3, Some(Bytes::from_static(b"w")))
            .to_bytes()
            .unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snap.section(SECTION_WORLD).unwrap().as_ref(), b"w");
        let (meta, resumed) = resume(&snap, None, None).unwrap();
        assert_eq!(meta.step_offset, 3);
        assert_eq!((meta.min_step, meta.max_step), (1, 2));
        assert_eq!(resumed.target_step(), Step(5));
        for a in 0..2u32 {
            assert_eq!(
                resumed.graph().step(AgentId(a)),
                sched.graph().step(AgentId(a))
            );
            assert_eq!(
                resumed.graph().pos(AgentId(a)),
                sched.graph().pos(AgentId(a))
            );
        }
        assert!(resumed.graph().history_enabled());
        assert_eq!(
            resumed.graph().history_records(),
            sched.graph().history_records()
        );
        assert!(!resumed.is_done());
        // Target override extends the horizon.
        let (_, extended) = resume(&snap, None, Some(Step(9))).unwrap();
        assert_eq!(extended.target_step(), Step(9));
    }

    #[test]
    fn sharded_snapshot_roundtrips_membership() {
        use crate::shard::{ShardedDepGraph, StripShardMap};

        let initial = vec![
            Point::new(5, 5),
            Point::new(30, 5),
            Point::new(60, 5),
            Point::new(90, 5),
        ];
        let graph = ShardedDepGraph::new_with_options(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            Arc::new(aim_store::Db::new()),
            &initial,
            Arc::new(StripShardMap::new(100, 4)),
            crate::depgraph::GraphOptions {
                edges: crate::depgraph::EdgeMode::Maintained,
                history: true,
            },
        )
        .unwrap();
        let mut sched = Scheduler::from_graph(
            graph,
            crate::policy::DependencyPolicy::Spatiotemporal,
            Step(5),
        );
        // Advance agent 3 across a strip boundary so membership is
        // non-trivial, then snapshot.
        let mut pending = sched.ready_clusters();
        for _ in 0..2 {
            let at = pending
                .iter()
                .position(|c| c.members.contains(&AgentId(3)))
                .expect("agent 3 ready");
            let c = pending.swap_remove(at);
            let pos = Point::new(sched.graph().pos(AgentId(3)).x - 15, 5);
            sched.complete(&c.id, &[(AgentId(3), pos)]).unwrap();
            pending.extend(sched.ready_clusters());
        }
        assert_eq!(sched.graph().shard_of_agent(AgentId(3)), 2, "migrated");
        let bytes = snapshot_sharded_run(&sched, 7, None).to_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert!(snap.section("shard/0").is_some());
        let (meta, resumed) = resume_sharded(&snap, None, None).unwrap();
        assert_eq!(meta.shards, 4);
        assert_eq!(meta.step_offset, 7);
        assert_eq!(resumed.graph().num_shards(), 4);
        assert_eq!(resumed.graph().snapshot(), sched.graph().snapshot());
        assert_eq!(
            resumed.graph().members(2),
            sched.graph().members(2),
            "membership restored from the sections"
        );
        assert!(resumed.graph().history_enabled());
        // The same snapshot also resumes unsharded (records are
        // shard-agnostic)…
        let (_, unsharded) = resume(&snap, None, None).unwrap();
        assert_eq!(unsharded.graph().snapshot(), sched.graph().snapshot());
        // …but an unsharded snapshot refuses a sharded resume.
        let plain = sched_with_history(&[(0, 0)], 2);
        let psnap =
            Snapshot::from_bytes(snapshot_run(&plain, 0, None).to_bytes().unwrap()).unwrap();
        assert!(resume_sharded(&psnap, None, None).is_err());
    }

    #[test]
    fn resume_without_meta_is_an_error() {
        let db = Db::new();
        let bytes = SnapshotBuilder::new().db(&db).to_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        let r = resume(&snap, None, None);
        assert!(matches!(r, Err(EngineError::Store(StoreError::Codec(_)))));
    }
}
