//! The controller-side tracker driving isolated shard workers.
//!
//! [`DistTracker`] re-implements the [`crate::shard::ShardedDepGraph`]
//! API — same exactness invariants, same scheduler-facing queries — with
//! every shard replaced by a [`super::worker::ShardWorker`] behind a
//! [`super::worker::WorkerLink`]. The controller keeps a read-only
//! *mirror* of the committed world (positions, steps, ownership, the
//! derived adjacency) so scheduling queries never cross the boundary;
//! every **write** (commit, rollback, migration, history eviction) and
//! every **edge computation** happens worker-side, reached exclusively
//! through the typed [`super::msg`] protocol.
//!
//! Fan-out requests (commits, relink queries, eviction) are sent to all
//! involved workers before any reply is awaited, so workers execute
//! concurrently; replies are collected in worker order, keeping the
//! whole protocol deterministic.
//!
//! The per-worker [`Db`] handles are retained controller-side purely as
//! the stand-in for each worker's durable storage (its "disk"): they are
//! never read or written on the hot path, only used to respawn a crashed
//! worker ([`DistTracker::respawn_worker`]), to rebuild a whole tracker
//! ([`DistTracker::recover`]), and for diagnostics that would read the
//! store in a real deployment ([`DistTracker::commits`],
//! [`DistTracker::history_records`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{
    detach_edges, insert_sorted, DepTracker, GraphOptions, GraphSnapshot, HIST_FLOOR_KEY, HIST_TAG,
};
use crate::health::{HealthBoard, WorkerHealth};
use crate::ids::{AgentId, Step};
use crate::rules::{self, RuleParams};
use crate::shard::ShardMap;
use crate::space::Space;
use crate::telemetry::{BoundaryOp, Counter, SpanKind, Telemetry};

use super::msg::{CtrlMsg, NodeRecord, Probe, ShardMsg, WireEdge};
use super::worker::{ChannelLink, SeveredLink, SharedTelemetry, WorkerLink};

/// One mirrored node: the committed state the controller schedules from.
#[derive(Debug, Clone, Copy)]
struct Node<P> {
    pos: P,
    step: Step,
}

/// The distributed dependency tracker (see the [module docs](super)).
pub struct DistTracker<S: Space> {
    space: Arc<S>,
    params: RuleParams,
    map: Arc<dyn ShardMap<S::Pos>>,
    /// One link per shard worker; a [`SeveredLink`] while a worker is
    /// down.
    links: Vec<Box<dyn WorkerLink<S::Pos>>>,
    /// Each worker's database, retained as its durable storage stand-in.
    worker_dbs: Vec<Arc<Db>>,
    history: bool,
    /// Controller mirror of every agent's committed state.
    nodes: Vec<Node<S::Pos>>,
    /// Current owning worker per agent.
    owner: Vec<u32>,
    /// Global `(step, agent)` index for min/max step queries.
    step_index: BTreeSet<(u32, u32)>,
    /// Per-worker `(step, agent)` sets — the pruning step bounds.
    shard_steps: Vec<BTreeSet<(u32, u32)>>,
    /// Same-step coupling partners per agent, ascending by id.
    coupled: Vec<Vec<AgentId>>,
    /// Agents currently blocking each agent, ascending by id.
    blockers: Vec<Vec<AgentId>>,
    /// Reverse of `blockers`.
    blockees: Vec<Vec<AgentId>>,
    /// History-eviction watermark mirror (guards redundant sweeps).
    hist_floor: u32,
    telemetry: Option<Arc<Telemetry>>,
    /// The cell worker threads read their telemetry sink from.
    shared_telemetry: SharedTelemetry,
    /// Messages sent per link since its worker (re)started; heartbeat
    /// replies subtract the worker's handled count from this to derive
    /// queue depth.
    sent: Vec<u64>,
    /// Invoked with the worker id when a link is severed
    /// ([`DistTracker::kill_worker`]) — the flight recorder's dump
    /// trigger.
    on_severed: Option<Box<dyn FnMut(u32) + Send>>,
}

impl<S: Space> fmt::Debug for DistTracker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistTracker")
            .field("agents", &self.nodes.len())
            .field("workers", &self.links.len())
            .field("min_step", &self.min_step())
            .finish()
    }
}

/// Converts an unexpected reply into a protocol error.
fn protocol_err<P: fmt::Debug>(wanted: &str, got: &ShardMsg<P>) -> StoreError {
    match got {
        ShardMsg::Failed { message } => StoreError::Codec(message.clone()),
        other => StoreError::Codec(format!(
            "protocol violation: expected {wanted}, got {other:?}"
        )),
    }
}

impl<S: Space> DistTracker<S> {
    /// Creates the tracker with every agent at [`Step::ZERO`]: one worker
    /// (and one fresh [`Db`]) per shard of `map`, populated through the
    /// initial [`CtrlMsg::Arrive`] hand-off. The `edges` field of
    /// `options` is ignored — the distributed tracker always maintains
    /// its mirrored adjacency.
    ///
    /// # Errors
    ///
    /// Propagates worker-side transaction failures from the initial
    /// population.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let shards = map.num_shards();
        let shared_telemetry: SharedTelemetry = Arc::default();
        let mut worker_dbs = Vec::with_capacity(shards);
        let mut links: Vec<Box<dyn WorkerLink<S::Pos>>> = Vec::with_capacity(shards);
        for j in 0..shards {
            let db = Arc::new(Db::new());
            links.push(Box::new(ChannelLink::spawn(
                j as u32,
                Arc::clone(&space),
                params,
                Arc::clone(&db),
                options.history,
                Arc::clone(&shared_telemetry),
            )));
            worker_dbs.push(db);
        }
        let owner: Vec<u32> = initial.iter().map(|&p| map.shard_of(p) as u32).collect();
        let nodes: Vec<Node<S::Pos>> = initial
            .iter()
            .map(|&pos| Node {
                pos,
                step: Step::ZERO,
            })
            .collect();
        let n = nodes.len();
        let mut shard_steps: Vec<BTreeSet<(u32, u32)>> = vec![BTreeSet::new(); shards];
        let mut step_index = BTreeSet::new();
        for (i, &o) in owner.iter().enumerate() {
            shard_steps[o as usize].insert((0, i as u32));
            step_index.insert((0, i as u32));
        }
        let mut tracker = DistTracker {
            space,
            params,
            map,
            links,
            worker_dbs,
            history: options.history,
            nodes,
            owner,
            step_index,
            shard_steps,
            coupled: vec![Vec::new(); n],
            blockers: vec![Vec::new(); n],
            blockees: vec![Vec::new(); n],
            hist_floor: 0,
            telemetry: None,
            shared_telemetry,
            sent: vec![0; shards],
            on_severed: None,
        };
        // Initial population: hand every agent's step-0 record to its
        // owner (with its step-0 history record when history is on).
        let mut arrivals: BTreeMap<usize, Vec<NodeRecord<S::Pos>>> = BTreeMap::new();
        for (i, node) in tracker.nodes.iter().enumerate() {
            arrivals
                .entry(tracker.owner[i] as usize)
                .or_default()
                .push(NodeRecord {
                    agent: i as u32,
                    step: 0,
                    pos: node.pos,
                    history: if options.history {
                        vec![(0, node.pos)]
                    } else {
                        Vec::new()
                    },
                });
        }
        tracker.deliver_arrivals(arrivals)?;
        tracker.refresh_edges()?;
        Ok(tracker)
    }

    /// Rebuilds a tracker from the per-worker databases and member lists
    /// (e.g. after the controller itself restarted): workers are respawned
    /// over their retained stores, each [`CtrlMsg::Recover`]s its members,
    /// and the controller reassembles its mirror from the replies.
    /// Membership is verified against the shard map's geometry, exactly as
    /// [`crate::shard::ShardedDepGraph::recover_with_members`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the member lists do not cover
    /// every agent exactly once, name a shard out of range, disagree with
    /// the map's geometry, or a worker record is missing or malformed.
    pub fn recover(
        space: Arc<S>,
        params: RuleParams,
        worker_dbs: Vec<Arc<Db>>,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
        members: &[Vec<u32>],
    ) -> Result<Self, StoreError> {
        let shards = map.num_shards();
        if members.len() != shards || worker_dbs.len() != shards {
            return Err(StoreError::Codec(format!(
                "{} member sections and {} worker stores for a {shards}-shard map",
                members.len(),
                worker_dbs.len()
            )));
        }
        let num_agents = members.iter().map(Vec::len).sum();
        let mut owner = vec![u32::MAX; num_agents];
        for (j, list) in members.iter().enumerate() {
            for &a in list {
                let slot = owner.get_mut(a as usize).ok_or_else(|| {
                    StoreError::Codec(format!("shard {j} names out-of-range agent {a}"))
                })?;
                if *slot != u32::MAX {
                    return Err(StoreError::Codec(format!(
                        "agent {a} owned by shards {} and {j}",
                        *slot
                    )));
                }
                *slot = j as u32;
            }
        }
        let shared_telemetry: SharedTelemetry = Arc::default();
        let mut links: Vec<Box<dyn WorkerLink<S::Pos>>> = Vec::with_capacity(shards);
        for (j, db) in worker_dbs.iter().enumerate() {
            links.push(Box::new(ChannelLink::spawn(
                j as u32,
                Arc::clone(&space),
                params,
                Arc::clone(db),
                options.history,
                Arc::clone(&shared_telemetry),
            )));
        }
        let mut tracker = DistTracker {
            space,
            params,
            map,
            links,
            worker_dbs,
            history: options.history,
            nodes: Vec::new(),
            owner,
            step_index: BTreeSet::new(),
            shard_steps: vec![BTreeSet::new(); shards],
            coupled: vec![Vec::new(); num_agents],
            blockers: vec![Vec::new(); num_agents],
            blockees: vec![Vec::new(); num_agents],
            hist_floor: 0,
            telemetry: None,
            shared_telemetry,
            sent: vec![0; shards],
            on_severed: None,
        };
        // Recover every worker (fan-out), then assemble the mirror from
        // the authoritative states they report.
        let mut states: Vec<Option<(u32, S::Pos)>> = vec![None; num_agents];
        for (j, list) in members.iter().enumerate() {
            tracker.send_to(
                j,
                CtrlMsg::Recover {
                    expected: list.clone(),
                },
            )?;
        }
        for (j, list) in members.iter().enumerate() {
            let reply = tracker.recv_from(j)?;
            let ShardMsg::Recovered {
                states: worker_states,
            } = reply
            else {
                return Err(protocol_err("Recovered", &reply));
            };
            if worker_states.len() != list.len() {
                return Err(StoreError::Codec(format!(
                    "worker {j} recovered {} of {} members",
                    worker_states.len(),
                    list.len()
                )));
            }
            for (a, step, pos) in worker_states {
                states[a as usize] = Some((step, pos));
                tracker.shard_steps[j].insert((step, a));
                tracker.step_index.insert((step, a));
            }
        }
        for (i, state) in states.iter().enumerate() {
            let &(step, pos) = state
                .as_ref()
                .ok_or_else(|| StoreError::Codec(format!("agent {i} owned by no shard")))?;
            tracker.nodes.push(Node {
                pos,
                step: Step(step),
            });
        }
        // Geometry check (release builds too): membership that disagrees
        // with the map would make the pruning lower bound unsound.
        if let Some(i) = (0..num_agents)
            .find(|&i| tracker.map.shard_of(tracker.nodes[i].pos) != tracker.owner[i] as usize)
        {
            return Err(StoreError::Codec(format!(
                "recorded shard membership disagrees with the shard map: \
                 agent {i} at {:?} is owned by worker {} but the map places \
                 it in shard {}",
                tracker.nodes[i].pos,
                tracker.owner[i],
                tracker.map.shard_of(tracker.nodes[i].pos)
            )));
        }
        if tracker.history {
            tracker.hist_floor = tracker
                .worker_dbs
                .iter()
                .map(|db| db.get_i64(HIST_FLOOR_KEY).unwrap_or(0).max(0) as u32)
                .min()
                .unwrap_or(0);
        }
        tracker.refresh_edges()?;
        Ok(tracker)
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.links.len()
    }

    /// The worker currently owning `a`.
    pub fn shard_of_agent(&self, a: AgentId) -> usize {
        self.owner[a.index()] as usize
    }

    /// Member agents of worker `shard`, ascending by id.
    pub fn members(&self, shard: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self.shard_steps[shard].iter().map(|&(_, a)| a).collect();
        out.sort_unstable();
        out
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tracker tracks no agents.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The rule parameters in force.
    pub fn params(&self) -> RuleParams {
        self.params
    }

    /// The space agents live in.
    pub fn space(&self) -> &Arc<S> {
        &self.space
    }

    /// Worker `shard`'s database — its durable storage stand-in. What a
    /// checkpoint of the distributed run snapshots, and what
    /// [`DistTracker::recover`] rebuilds from.
    pub fn worker_db(&self, shard: usize) -> &Arc<Db> {
        &self.worker_dbs[shard]
    }

    /// Current position of `a` (from the controller mirror).
    pub fn pos(&self, a: AgentId) -> S::Pos {
        self.nodes[a.index()].pos
    }

    /// Current (next-to-execute) step of `a`.
    pub fn step(&self, a: AgentId) -> Step {
        self.nodes[a.index()].step
    }

    /// The lowest step any agent is at.
    pub fn min_step(&self) -> Step {
        self.step_index
            .iter()
            .next()
            .map(|&(s, _)| Step(s))
            .unwrap_or(Step::ZERO)
    }

    /// The highest step any agent is at.
    pub fn max_step(&self) -> Step {
        self.step_index
            .iter()
            .next_back()
            .map(|&(s, _)| Step(s))
            .unwrap_or(Step::ZERO)
    }

    /// Cluster advancements committed so far, summed over the workers'
    /// stores (each worker bumps its own `dep:commits` transactionally,
    /// so the sum counts per-worker commit transactions).
    pub fn commits(&self) -> i64 {
        self.worker_dbs
            .iter()
            .map(|db| db.get_i64("dep:commits").unwrap_or(0))
            .sum()
    }

    /// Whether per-step history records are written.
    pub fn history_enabled(&self) -> bool {
        self.history
    }

    /// Resident history records summed over the worker stores
    /// (diagnostics).
    pub fn history_records(&self) -> u64 {
        let mut n = 0u64;
        for db in &self.worker_dbs {
            db.for_each_prefix(HIST_TAG, |_, _| {
                n += 1;
                std::ops::ControlFlow::Continue(())
            });
        }
        n
    }

    /// The history-eviction watermark.
    pub fn history_floor(&self) -> Step {
        Step(self.hist_floor)
    }

    /// First agent (in `(step, id)` order) that blocks `a`, if any.
    pub fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.blockers[a.index()]
            .iter()
            .copied()
            .min_by_key(|b| (self.nodes[b.index()].step.0, b.0))
    }

    /// All agents that block `a`, in `(step, id)` order.
    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        let mut out = self.blockers[a.index()].clone();
        out.sort_unstable_by_key(|b| (self.nodes[b.index()].step.0, b.0));
        out
    }

    /// Same-step coupling partners of `a`, ascending by id.
    pub fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        &self.coupled[a.index()]
    }

    /// Verifies the §3.2 validity condition over the mirrored world.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    pub fn validate(&self) -> Result<(), String> {
        let states: Vec<(S::Pos, Step)> = self.nodes.iter().map(|n| (n.pos, n.step)).collect();
        match rules::find_violation(self.space.as_ref(), self.params, &states) {
            None => Ok(()),
            Some((i, j)) => Err(format!(
                "validity violated: agent{} at {:?}/{} vs agent{} at {:?}/{}",
                i, self.nodes[i].pos, self.nodes[i].step, j, self.nodes[j].pos, self.nodes[j].step
            )),
        }
    }

    /// Dumps nodes and edges in the same shape as
    /// [`crate::depgraph::DepGraph::snapshot`], so the trackers compare
    /// directly.
    pub fn snapshot(&self) -> GraphSnapshot {
        let mut blocked = Vec::new();
        let mut coupled = Vec::new();
        for i in 0..self.len() {
            let a = AgentId(i as u32);
            for b in self.blockers_of(a) {
                blocked.push((b, a));
            }
            for &b in self.coupled_of(a) {
                if a.0 < b.0 {
                    coupled.push((a, b));
                }
            }
        }
        GraphSnapshot {
            nodes: (0..self.len() as u32)
                .map(|a| {
                    let a = AgentId(a);
                    (a, self.step(a), format!("{:?}", self.pos(a)))
                })
                .collect(),
            blocked,
            coupled,
        }
    }

    /// Attaches a telemetry sink: the controller records every protocol
    /// send and reply-wait as [`SpanKind::Boundary`] spans (plus the
    /// [`Counter::BoundaryMessages`] counter), and workers record their
    /// apply time through the shared cell. Workers that cannot see the
    /// cell (out-of-process transports) buffer locally instead and are
    /// drained by [`DistTracker::harvest_telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.shared_telemetry.set(Some(Arc::clone(&telemetry)));
        self.telemetry = Some(telemetry);
    }

    /// Drains every worker's locally-buffered telemetry into the attached
    /// sink via the [`CtrlMsg::HarvestTelemetry`] round, returning the
    /// number of spans merged. Runs automatically after each history
    /// eviction barrier and at end of run; call it directly for an
    /// on-demand drain.
    ///
    /// Each round performs the clock-offset handshake: the worker's
    /// reply clock is assumed to land at the midpoint of the observed
    /// round trip on the controller clock, and its spans are rebased by
    /// that offset before merging. Workers sharing the in-process sink
    /// reply empty (their spans never cross the wire), and severed
    /// workers are skipped — harvest is best-effort observability and
    /// never fails a run. The raw links are used (not the recorded
    /// send/recv paths) so harvest traffic never inflates the
    /// [`SpanKind::Boundary`] accounting it exists to collect.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] only on a protocol violation (a
    /// live worker answering with something other than
    /// [`ShardMsg::Telemetry`]).
    pub fn harvest_telemetry(&mut self) -> Result<u64, StoreError> {
        let Some(t) = self.telemetry.clone() else {
            return Ok(0);
        };
        let mut merged = 0u64;
        for j in 0..self.links.len() {
            let t_send = t.now_us();
            if self.links[j]
                .send(CtrlMsg::HarvestTelemetry { now_us: t_send })
                .is_err()
            {
                continue; // severed: its buffer drains on a later round
            }
            self.sent[j] += 1;
            let reply = match self.links[j].recv() {
                Ok(reply) => reply,
                Err(_) => continue,
            };
            let t_recv = t.now_us();
            let ShardMsg::Telemetry {
                worker,
                now_us,
                spans,
                counters,
                dropped,
            } = reply
            else {
                return Err(protocol_err("Telemetry", &reply));
            };
            if spans.is_empty() && counters.is_empty() && dropped == 0 {
                continue; // shared-sink worker: nothing crossed the wire
            }
            let midpoint = t_send + (t_recv - t_send) / 2;
            let offset = midpoint as i64 - now_us as i64;
            let track = t.remote_track(&format!("worker {worker} (remote)"));
            merged += spans.len() as u64;
            t.ingest(track, &spans, offset);
            t.set_remote_dropped(track, dropped);
            for (c, n) in counters {
                t.counter_add(c, n);
            }
        }
        Ok(merged)
    }

    /// Polls every worker with a [`CtrlMsg::Heartbeat`] and records the
    /// gauges on `board`. Best-effort, like harvest: a severed or
    /// misbehaving link marks the worker not-alive instead of failing
    /// the run, and the raw links are used so liveness polling never
    /// inflates the boundary accounting. Queue depth is derived
    /// controller-side as sent-count minus the worker's handled count —
    /// ≈ 0 on a healthy lock-step link. Returns how many workers
    /// answered.
    pub fn poll_heartbeats(&mut self, board: &HealthBoard) -> usize {
        let mut live = 0;
        for j in 0..self.links.len() {
            let now_us = board.now_us();
            if self.links[j].send(CtrlMsg::Heartbeat { now_us }).is_err() {
                board.mark_severed(j as u32);
                continue;
            }
            self.sent[j] += 1;
            let Ok(ShardMsg::Heartbeat {
                worker,
                handled,
                last_step,
                members,
                dropped,
                ..
            }) = self.links[j].recv()
            else {
                board.mark_severed(j as u32);
                continue;
            };
            board.record_heartbeat(WorkerHealth {
                worker,
                name: format!("worker {worker}"),
                alive: true,
                last_seen_us: board.now_us(),
                last_applied_step: (last_step != u32::MAX).then_some(last_step),
                queue_depth: self.sent[j].saturating_sub(handled),
                members,
                span_overflow: dropped,
            });
            live += 1;
        }
        live
    }

    /// Installs the hook invoked (with the worker id) whenever a link is
    /// severed via [`DistTracker::kill_worker`] — the flight recorder
    /// dumps its tail from here.
    pub fn set_severed_hook(&mut self, hook: Box<dyn FnMut(u32) + Send>) {
        self.on_severed = Some(hook);
    }

    /// Sends one request to worker `j`, recorded as a boundary-send span.
    fn send_to(&mut self, j: usize, msg: CtrlMsg<S::Pos>) -> Result<(), StoreError> {
        let t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let result = self.links[j].send(msg);
        if result.is_ok() {
            self.sent[j] += 1;
        }
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            t.counter_add(Counter::BoundaryMessages, 1);
            t.record(
                t0,
                SpanKind::Boundary {
                    worker: j as u32,
                    op: BoundaryOp::Send,
                    messages: 1,
                },
            );
        }
        result
    }

    /// Awaits worker `j`'s next reply, recorded as a boundary-wait span.
    fn recv_from(&mut self, j: usize) -> Result<ShardMsg<S::Pos>, StoreError> {
        let t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let result = self.links[j].recv();
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            t.counter_add(Counter::BoundaryMessages, 1);
            t.record(
                t0,
                SpanKind::Boundary {
                    worker: j as u32,
                    op: BoundaryOp::Wait,
                    messages: 1,
                },
            );
        }
        result
    }

    /// Awaits a [`ShardMsg::Done`] from worker `j`.
    fn expect_done(&mut self, j: usize) -> Result<(), StoreError> {
        let reply = self.recv_from(j)?;
        match reply {
            ShardMsg::Done => Ok(()),
            other => Err(protocol_err("Done", &other)),
        }
    }

    /// Sends grouped [`CtrlMsg::Arrive`] batches and awaits their acks.
    fn deliver_arrivals(
        &mut self,
        arrivals: BTreeMap<usize, Vec<NodeRecord<S::Pos>>>,
    ) -> Result<(), StoreError> {
        let targets: Vec<usize> = arrivals.keys().copied().collect();
        for (to, records) in arrivals {
            self.send_to(to, CtrlMsg::Arrive { records })?;
        }
        for to in targets {
            self.expect_done(to)?;
        }
        Ok(())
    }

    /// Advances every `(agent, new_position)` one step: commits fan out
    /// to the owning workers, boundary crossings migrate through the
    /// depart/arrive handshake, then the affected edges are repaired via
    /// worker relink queries — migrations strictly before relinks, so a
    /// query never misses a mid-migration agent.
    ///
    /// # Errors
    ///
    /// Propagates worker transaction failures and severed links; the
    /// mirror is only updated after the owning workers acknowledge.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    pub fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        let mut commits: BTreeMap<usize, Vec<(u32, S::Pos)>> = BTreeMap::new();
        for &(a, pos) in updates {
            commits
                .entry(self.owner[a.index()] as usize)
                .or_default()
                .push((a.0, pos));
        }
        let involved: Vec<usize> = commits.keys().copied().collect();
        for (j, batch) in commits {
            self.send_to(j, CtrlMsg::Commit { updates: batch })?;
        }
        for j in involved {
            self.expect_done(j)?;
        }
        // Workers committed durably; update the mirror and migrate.
        let mut departs: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        let mut dest: HashMap<u32, usize> = HashMap::new();
        for &(a, pos) in updates {
            let old_step = self.nodes[a.index()].step.0;
            self.apply_mirror(a, old_step + 1, pos, &mut departs, &mut dest);
        }
        self.migrate(departs, dest)?;
        self.relink_batch(updates.iter().map(|&(a, _)| a))
    }

    /// Rolls every `(agent, step, position)` back — the speculative
    /// squash path — with the same migration + relink repair as
    /// [`DistTracker::advance`].
    ///
    /// # Errors
    ///
    /// Propagates worker failures (including a worker-side refusal to
    /// roll *forward*).
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    pub fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        let mut batches: BTreeMap<usize, Vec<(u32, u32, S::Pos)>> = BTreeMap::new();
        for &(a, step, pos) in updates {
            batches
                .entry(self.owner[a.index()] as usize)
                .or_default()
                .push((a.0, step.0, pos));
        }
        let involved: Vec<usize> = batches.keys().copied().collect();
        for (j, batch) in batches {
            self.send_to(j, CtrlMsg::Rollback { updates: batch })?;
        }
        for j in involved {
            self.expect_done(j)?;
        }
        let mut departs: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        let mut dest: HashMap<u32, usize> = HashMap::new();
        for &(a, step, pos) in updates {
            self.apply_mirror(a, step.0, pos, &mut departs, &mut dest);
        }
        self.migrate(departs, dest)?;
        self.relink_batch(updates.iter().map(|&(a, _, _)| a))
    }

    /// Applies one committed `(step, pos)` to the mirror (node, step
    /// indexes, ownership), queueing a migration when the new position
    /// crosses a shard boundary.
    fn apply_mirror(
        &mut self,
        a: AgentId,
        step: u32,
        pos: S::Pos,
        departs: &mut BTreeMap<usize, Vec<u32>>,
        dest: &mut HashMap<u32, usize>,
    ) {
        let i = a.index();
        let old_step = self.nodes[i].step.0;
        let from = self.owner[i] as usize;
        let to = self.map.shard_of(pos);
        let removed = self.step_index.remove(&(old_step, a.0));
        debug_assert!(removed, "agent {a} missing from step index");
        self.step_index.insert((step, a.0));
        self.shard_steps[from].remove(&(old_step, a.0));
        self.shard_steps[to].insert((step, a.0));
        self.nodes[i] = Node {
            pos,
            step: Step(step),
        };
        if from != to {
            self.owner[i] = to as u32;
            departs.entry(from).or_default().push(a.0);
            dest.insert(a.0, to);
        }
    }

    /// Executes queued migrations: departs fan out, the returned records
    /// are regrouped by destination, arrivals fan out.
    fn migrate(
        &mut self,
        departs: BTreeMap<usize, Vec<u32>>,
        dest: HashMap<u32, usize>,
    ) -> Result<(), StoreError> {
        if departs.is_empty() {
            return Ok(());
        }
        if let Some(t) = &self.telemetry {
            t.counter_add(Counter::ShardMigrations, dest.len() as u64);
        }
        let froms: Vec<usize> = departs.keys().copied().collect();
        for (from, agents) in departs {
            self.send_to(from, CtrlMsg::Depart { agents })?;
        }
        let mut arrivals: BTreeMap<usize, Vec<NodeRecord<S::Pos>>> = BTreeMap::new();
        for from in froms {
            let reply = self.recv_from(from)?;
            let ShardMsg::Departed { records } = reply else {
                return Err(protocol_err("Departed", &reply));
            };
            for record in records {
                let to = *dest.get(&record.agent).ok_or_else(|| {
                    StoreError::Codec(format!(
                        "worker {from} departed agent {} that was not migrating",
                        record.agent
                    ))
                })?;
                arrivals.entry(to).or_default().push(record);
            }
        }
        self.deliver_arrivals(arrivals)
    }

    /// Detaches every edge incident to `a` (both directions).
    fn detach(&mut self, a: AgentId) {
        detach_edges(&mut self.coupled, &mut self.blockers, &mut self.blockees, a);
    }

    /// Applies one worker-computed edge to the mirrored adjacency
    /// (idempotent — both endpoints of an intra-batch edge may emit it).
    fn apply_wire_edge(&mut self, e: WireEdge) -> Result<(), StoreError> {
        let n = self.nodes.len() as u32;
        if e.a >= n || e.b >= n || e.a == e.b {
            return Err(StoreError::Codec(format!(
                "protocol violation: edge {e:?} names invalid agents"
            )));
        }
        let (a, b) = (AgentId(e.a), AgentId(e.b));
        if e.coupled {
            insert_sorted(&mut self.coupled[a.index()], b);
            insert_sorted(&mut self.coupled[b.index()], a);
        } else {
            insert_sorted(&mut self.blockers[b.index()], a);
            insert_sorted(&mut self.blockees[a.index()], b);
        }
        Ok(())
    }

    /// Detaches and relinks a batch of agents whose mirror states already
    /// moved: probes fan out to every worker the step-bound/distance test
    /// cannot prune (the controller's conservative pruning, re-checked
    /// exactly worker-side), and the returned edges are applied serially.
    fn relink_batch(
        &mut self,
        agents: impl Iterator<Item = AgentId> + Clone,
    ) -> Result<(), StoreError> {
        for a in agents.clone() {
            self.detach(a);
        }
        let mut probes: Vec<Vec<Probe<S::Pos>>> = vec![Vec::new(); self.links.len()];
        for a in agents {
            let node = self.nodes[a.index()];
            for (j, steps) in self.shard_steps.iter().enumerate() {
                let (Some(&(lo, _)), Some(&(hi, _))) =
                    (steps.iter().next(), steps.iter().next_back())
                else {
                    continue; // empty shard
                };
                // Largest step gap between `a` and any member of `j`
                // bounds every pair rule radius for candidates in `j`.
                let gap = node.step.0.abs_diff(lo).max(node.step.0.abs_diff(hi));
                let units = self.params.blocking_units(gap);
                if self.map.min_distance(node.pos, j) > units {
                    continue; // provably out of range of every member
                }
                probes[j].push(Probe {
                    agent: a.0,
                    step: node.step.0,
                    pos: node.pos,
                });
            }
        }
        let involved: Vec<usize> = (0..probes.len())
            .filter(|&j| !probes[j].is_empty())
            .collect();
        for &j in &involved {
            let probes = std::mem::take(&mut probes[j]);
            self.send_to(j, CtrlMsg::RelinkQuery { probes })?;
        }
        for &j in &involved {
            let reply = self.recv_from(j)?;
            let ShardMsg::Edges { edges } = reply else {
                return Err(protocol_err("Edges", &reply));
            };
            for e in edges {
                self.apply_wire_edge(e)?;
            }
        }
        Ok(())
    }

    /// Rebuilds every derived edge from the mirrored node states by
    /// probing all agents (initialisation and recovery).
    ///
    /// # Errors
    ///
    /// Propagates severed links and protocol violations.
    pub fn refresh_edges(&mut self) -> Result<(), StoreError> {
        for list in self
            .coupled
            .iter_mut()
            .chain(self.blockers.iter_mut())
            .chain(self.blockees.iter_mut())
        {
            list.clear();
        }
        let n = self.len() as u32;
        self.relink_batch((0..n).map(AgentId))
    }

    /// Compacts history below the deepest legal rollback across every
    /// worker store, returning the total evicted (see
    /// [`crate::depgraph::DepGraph::evict_history`] for the invariant —
    /// untouched by distribution, since only the global `min_step` is
    /// consulted).
    ///
    /// # Errors
    ///
    /// Propagates severed links and protocol violations.
    pub fn evict_history(&mut self) -> Result<u64, StoreError> {
        if !self.history {
            return Ok(0);
        }
        let floor = self.min_step().0;
        if floor <= self.hist_floor {
            return Ok(0);
        }
        let workers = self.links.len();
        for j in 0..workers {
            self.send_to(j, CtrlMsg::EvictHistory { floor })?;
        }
        let mut total = 0u64;
        for j in 0..workers {
            let reply = self.recv_from(j)?;
            let ShardMsg::Evicted { removed } = reply else {
                return Err(protocol_err("Evicted", &reply));
            };
            total += removed;
        }
        self.hist_floor = floor;
        // Eviction is the run's natural quiesce barrier: piggyback a
        // telemetry harvest so out-of-process buffers drain steadily
        // instead of ballooning until end of run.
        self.harvest_telemetry()?;
        Ok(total)
    }

    /// Severs worker `shard`'s link without a shutdown handshake —
    /// simulating a worker crash. Subsequent operations touching that
    /// shard fail until [`DistTracker::respawn_worker`] heals it; the
    /// worker's database (its durable storage) is retained.
    pub fn kill_worker(&mut self, shard: usize) {
        self.links[shard] = Box::new(SeveredLink::new(shard as u32));
        if let Some(hook) = self.on_severed.as_mut() {
            hook(shard as u32);
        }
    }

    /// Respawns worker `shard` over its retained database and replays the
    /// [`CtrlMsg::Recover`] handshake: the fresh worker rebuilds its
    /// members, index, and step bounds from its own store, and the
    /// controller verifies the recovered states against its mirror
    /// (every acknowledged commit was durable, so they must agree).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the recovered states disagree
    /// with the mirror or a record is missing.
    pub fn respawn_worker(&mut self, shard: usize) -> Result<(), StoreError> {
        // The fresh worker restarts its handled count at zero, so the
        // controller-side sent counter must follow or queue depth would
        // read as permanently backed up.
        self.sent[shard] = 0;
        self.links[shard] = Box::new(ChannelLink::spawn(
            shard as u32,
            Arc::clone(&self.space),
            self.params,
            Arc::clone(&self.worker_dbs[shard]),
            self.history,
            Arc::clone(&self.shared_telemetry),
        ));
        let expected = self.members(shard);
        self.send_to(shard, CtrlMsg::Recover { expected })?;
        let reply = self.recv_from(shard)?;
        let ShardMsg::Recovered { states } = reply else {
            return Err(protocol_err("Recovered", &reply));
        };
        for (a, step, pos) in states {
            let node = self.nodes[a as usize];
            if node.step.0 != step || node.pos != pos {
                return Err(StoreError::Codec(format!(
                    "worker {shard} recovered agent {a} at {:?}/{step} but the \
                     controller mirror has {:?}/{}",
                    pos, node.pos, node.step
                )));
            }
        }
        Ok(())
    }

    /// Debug cross-check of the mirror against the workers' ground truth:
    /// quiesces every worker and verifies membership, positions, and
    /// steps agree with the controller mirror (and with the shard map's
    /// geometry). Used by the property tests.
    ///
    /// # Panics
    ///
    /// Panics on any disagreement.
    #[doc(hidden)]
    pub fn check_invariants(&mut self) {
        let workers = self.links.len();
        let mut total = 0usize;
        for j in 0..workers {
            self.send_to(j, CtrlMsg::Quiesce).expect("quiesce send");
            let reply = self.recv_from(j).expect("quiesce recv");
            let ShardMsg::Quiesced { states } = reply else {
                panic!("expected Quiesced, got {reply:?}");
            };
            assert_eq!(
                states.len(),
                self.shard_steps[j].len(),
                "worker {j} member count drifted from the mirror"
            );
            total += states.len();
            for (a, step, pos) in states {
                assert_eq!(self.owner[a as usize] as usize, j, "ownership drift");
                let node = self.nodes[a as usize];
                assert_eq!(node.step.0, step, "stale mirror step for agent {a}");
                assert_eq!(node.pos, pos, "stale mirror position for agent {a}");
                assert!(
                    self.shard_steps[j].contains(&(step, a)),
                    "agent {a} missing from shard {j} step bounds"
                );
                assert_eq!(
                    self.map.shard_of(pos),
                    j,
                    "agent {a} owned by the wrong shard"
                );
            }
        }
        assert_eq!(total, self.len(), "worker membership must partition agents");
    }
}

impl<S: Space> DepTracker<S> for DistTracker<S> {
    #[inline]
    fn len(&self) -> usize {
        DistTracker::len(self)
    }

    #[inline]
    fn step(&self, a: AgentId) -> Step {
        DistTracker::step(self, a)
    }

    #[inline]
    fn pos(&self, a: AgentId) -> S::Pos {
        DistTracker::pos(self, a)
    }

    #[inline]
    fn min_step(&self) -> Step {
        DistTracker::min_step(self)
    }

    #[inline]
    fn max_step(&self) -> Step {
        DistTracker::max_step(self)
    }

    #[inline]
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        DistTracker::advance(self, updates)
    }

    #[inline]
    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        DistTracker::first_blocker(self, a)
    }

    #[inline]
    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        DistTracker::coupled_of(self, a)
    }

    #[inline]
    fn evict_history(&mut self) -> Result<u64, StoreError> {
        DistTracker::evict_history(self)
    }

    #[inline]
    fn validate(&self) -> Result<(), String> {
        DistTracker::validate(self)
    }

    #[inline]
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        DistTracker::set_telemetry(self, telemetry)
    }

    #[inline]
    fn harvest_telemetry(&mut self) {
        // Best-effort by contract: a protocol violation here is surfaced
        // by the next real request, not by the harvest.
        let _ = DistTracker::harvest_telemetry(self);
    }
}
