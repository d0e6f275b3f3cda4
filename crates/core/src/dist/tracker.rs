//! The controller-side tracker driving isolated shard workers.
//!
//! [`DistTracker`] runs the edge engine of [`crate::shard::ShardedDepGraph`]
//! — same partition, prune test and rule classification, same
//! scheduler-facing queries — with every shard replaced by a
//! [`super::worker::ShardWorker`] behind a [`super::worker::WorkerLink`].
//! The controller keeps a read-only *mirror* of the committed world
//! (positions, steps, an index-less partition, the derived adjacency) so
//! scheduling queries never cross the boundary; every **write** (commit,
//! rollback, migration, history eviction) and every **edge computation**
//! happens worker-side, reached exclusively through the typed
//! [`super::msg`] protocol.
//!
//! # The hand-off rule
//!
//! What crosses the boundary is a **hand-off**
//! ([`super::worker::WorkerLink`]): every request the operation has for
//! one worker, delivered as one unit and answered as one unit, so each
//! involved worker is woken once per round whatever it is asked. An
//! operation hands off to every involved worker before it awaits any
//! reply (the workers run concurrently) and collects replies in worker
//! order, keeping the whole protocol deterministic. Rounds per
//! operation:
//!
//! - [`DistTracker::advance`] / [`DistTracker::rollback`] that cross no
//!   shard boundary: **one** round — `[Commit, RelinkQuery]` (or
//!   `[Rollback, RelinkQuery]`) to each owner, `[RelinkQuery]` to each
//!   neighbour the pruning test cannot rule out.
//! - A boundary-crossing batch: **two** rounds — `[Commit, Depart]` to
//!   the owners, then `[Arrive, RelinkQuery]` to the destinations and
//!   unpruned neighbours, so a query never misses a mid-migration
//!   agent.
//! - Initial population is that second round alone; eviction, recovery
//!   and the invariant check are one single-request round each.
//!
//! # What a failed call leaves behind
//!
//! Nothing ([`DistTracker`] states the contract); this is how. The
//! mirror moves to the prospective state while the probes are built —
//! so the pruning test and the edges are exactly those of a tracker
//! that committed first and relinked after — with every overwritten
//! entry remembered, and the workers' edges are set aside rather than
//! applied until the last reply is in. On failure the mirror is put
//! back, replies still owed on healthy links are consumed (departed
//! records among them are kept: they may be the only copy), and each
//! worker that was handed a write is resynchronised in two steps that
//! need no knowledge of how far it got: it *forgets* the call's agents
//! (`[Recover` without them`, Arrive` them as stubs`, Depart` them`]` —
//! whatever the store held for them comes back as departed records),
//! then the mirror's owner *re-adopts* each at its mirrored state with
//! the recovered history below that step. A worker that cannot be
//! reached is marked down with the agents in doubt and the records it
//! owns that are in the controller's hands;
//! [`DistTracker::respawn_worker`] runs the same two steps over its
//! retained store.
//!
//! The per-worker [`Db`] handles are retained controller-side purely as
//! the stand-in for each worker's durable storage (its "disk"): they are
//! never read or written on the hot path, only used to respawn a crashed
//! worker ([`DistTracker::respawn_worker`]), to rebuild a whole tracker
//! ([`DistTracker::recover`]), and for diagnostics that would read the
//! store in a real deployment ([`DistTracker::commits`],
//! [`DistTracker::history_records`]).

use std::fmt;
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{DepTracker, GraphOptions, GraphSnapshot, HIST_FLOOR_KEY, HIST_TAG};
use crate::edges::{self, Adjacency, Node, Partition};
use crate::health::{HealthBoard, WorkerHealth};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::shard::{owners_of, ShardMap};
use crate::space::Space;
use crate::telemetry::{BoundaryOp, Counter, SpanKind, Telemetry};

use super::msg::{CtrlMsg, NodeRecord, Probe, ShardMsg, WireEdge};
use super::worker::{worker_down, ChannelLink, SeveredLink, SharedTelemetry, WorkerLink};

/// Which write an operation carries to the owning workers.
#[derive(Debug, Clone, Copy)]
enum Write {
    Commit,
    Rollback,
}

impl Write {
    /// The request carrying `writes` (`(agent, step, position)` each),
    /// or `None` for a worker with nothing to write.
    fn request<P: Copy>(self, writes: &[(u32, u32, P)]) -> Option<CtrlMsg<P>> {
        if writes.is_empty() {
            return None;
        }
        Some(match self {
            Write::Commit => CtrlMsg::Commit {
                updates: writes.iter().map(|&(a, _, pos)| (a, pos)).collect(),
            },
            Write::Rollback => CtrlMsg::Rollback {
                updates: writes.to_vec(),
            },
        })
    }
}

/// The controller's side of one worker: its link, the hand-off
/// accounting, and the per-worker grouping buffers an operation fills
/// (kept, so grouping allocates nothing once they have grown).
struct Lane<P> {
    /// A [`SeveredLink`] while the worker is down.
    link: Box<dyn WorkerLink<P>>,
    /// Set when the link failed or the worker was killed: nothing is
    /// handed over until [`DistTracker::respawn_worker`].
    down: bool,
    /// Requests sent since the worker (re)started; heartbeat replies
    /// subtract the worker's handled count from this to derive queue
    /// depth.
    sent: u64,
    /// Replies requested and not yet consumed.
    owed: u32,
    /// Replies of handed-over requests nobody has waited for yet: the
    /// next receive blocks for them and is timed as the hand-off's wait.
    unwaited: u32,
    /// Whether the current operation handed this worker anything.
    touched: bool,
    /// Agents of failed operations this worker may have applied while
    /// it could not be reached, repaired at respawn.
    in_doubt: Vec<u32>,
    /// Records of in-doubt agents this worker owns that were in the
    /// controller's hands when it went down — possibly the only copy of
    /// their history — kept for the respawn.
    held: Vec<NodeRecord<P>>,
    /// `(agent, step, position)` the operation writes through this
    /// worker (the agents' owner before the call).
    writes: Vec<(u32, u32, P)>,
    /// Members the operation moves out of this worker.
    departs: Vec<u32>,
    /// Relink probes this worker must answer.
    probes: Vec<Probe<P>>,
}

impl<P> Lane<P> {
    fn new(link: Box<dyn WorkerLink<P>>) -> Self {
        Lane {
            link,
            down: false,
            sent: 0,
            owed: 0,
            unwaited: 0,
            touched: false,
            in_doubt: Vec::new(),
            held: Vec::new(),
            writes: Vec::new(),
            departs: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// One request–reply exchange outside the boundary accounting: the
    /// harvest and heartbeat polls, which must not show up in the spans
    /// they exist to collect. Like any link error, a failed poll leaves
    /// the lane down.
    fn poll(&mut self, msg: CtrlMsg<P>) -> Result<ShardMsg<P>, StoreError> {
        if self.down {
            return Err(StoreError::Codec("shard worker is down".into()));
        }
        let reply = self.link.send(msg).and_then(|()| {
            self.sent += 1;
            self.link.recv() // hands the request over first
        });
        self.down |= reply.is_err();
        reply
    }
}

/// The distributed dependency tracker (see the [module docs](super)).
///
/// Each operation reaches a worker with **one hand-off per round**
/// ([`WorkerLink`]): [`DistTracker::advance`] and
/// [`DistTracker::rollback`] take one round when no agent crosses a
/// shard boundary (`[Commit, RelinkQuery]` to each owner,
/// `[RelinkQuery]` to each neighbour the pruning test cannot rule out)
/// and two when one does (`[Commit, Depart]`, then
/// `[Arrive, RelinkQuery]`).
///
/// When either returns `Err`, the mirror — positions, steps, ownership,
/// adjacency — is what it was before the call, every requested reply
/// has been consumed from its link, and every reachable worker that was
/// handed a write has been brought back to the mirror, so the failed
/// call committed nothing. A worker that could not be reached stays
/// down until [`DistTracker::respawn_worker`], which repairs it from
/// its retained store whichever part of the call it had applied. Not
/// restored: `dep:commits` keeps counting an undone commit transaction,
/// and history the failure itself destroyed (records of a departure
/// whose reply was lost, steps squashed by a multi-worker rollback that
/// failed part-way) — the repaired agent keeps its current record and
/// whatever history survived.
pub struct DistTracker<S: Space> {
    space: Arc<S>,
    params: RuleParams,
    /// One lane per shard worker.
    lanes: Vec<Lane<S::Pos>>,
    /// Each worker's database, retained as its durable storage stand-in.
    worker_dbs: Vec<Arc<Db>>,
    history: bool,
    /// Controller mirror of every agent's committed state.
    nodes: Vec<Node<S::Pos>>,
    /// The workers' membership and step bounds, mirrored: ownership and
    /// the prune test, without spatial indexes (the workers keep those).
    part: Partition<S::Pos>,
    /// The maintained edges, from the workers' relink replies.
    adj: Adjacency,
    /// History-eviction watermark mirror (guards redundant sweeps).
    hist_floor: u32,
    telemetry: Option<Arc<Telemetry>>,
    /// The cell worker threads read their telemetry sink from.
    shared_telemetry: SharedTelemetry,
    /// Invoked with the worker id when a link is severed
    /// ([`DistTracker::kill_worker`]) — the flight recorder's dump
    /// trigger.
    on_severed: Option<Box<dyn FnMut(u32) + Send>>,
    /// The running operation's `(agent, step, position)` targets. This
    /// and the four buffers below are operation scratch, empty between
    /// calls.
    targets: Vec<(AgentId, u32, S::Pos)>,
    /// `(agent, node, owner)` before the operation moved the mirror,
    /// in application order — what a failed call restores.
    undo: Vec<(AgentId, Node<S::Pos>, u32)>,
    /// Edges the workers returned, applied only once every reply is in.
    edges: Vec<WireEdge>,
    /// Records in the controller's hands: departed and not yet known to
    /// have arrived (initial population starts here too).
    pool: Vec<NodeRecord<S::Pos>>,
}

impl<S: Space> fmt::Debug for DistTracker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistTracker")
            .field("agents", &self.nodes.len())
            .field("workers", &self.lanes.len())
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

/// The relink request carrying `probes`, or `None` for a worker with
/// nothing to answer.
fn relink_query<P: Copy>(probes: &[Probe<P>]) -> Option<CtrlMsg<P>> {
    (!probes.is_empty()).then(|| CtrlMsg::RelinkQuery {
        probes: probes.to_vec(),
    })
}

impl<S: Space> DistTracker<S> {
    /// A tracker over one freshly spawned channel worker per store,
    /// with room for `num_agents` agents and a mirror that is still
    /// empty.
    fn spawn(
        space: Arc<S>,
        params: RuleParams,
        map: Arc<dyn ShardMap<S::Pos>>,
        worker_dbs: Vec<Arc<Db>>,
        history: bool,
        num_agents: usize,
    ) -> Self {
        let shared_telemetry: SharedTelemetry = Arc::default();
        let lanes = worker_dbs
            .iter()
            .enumerate()
            .map(|(j, db)| {
                Lane::new(Box::new(ChannelLink::spawn(
                    j as u32,
                    Arc::clone(&space),
                    params,
                    Arc::clone(db),
                    history,
                    Arc::clone(&shared_telemetry),
                )))
            })
            .collect();
        DistTracker {
            space,
            params,
            lanes,
            worker_dbs,
            history,
            nodes: Vec::with_capacity(num_agents),
            part: Partition::new(map, || None),
            adj: Adjacency::new(num_agents),
            hist_floor: 0,
            telemetry: None,
            shared_telemetry,
            on_severed: None,
            targets: Vec::new(),
            undo: Vec::new(),
            edges: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Creates the tracker with every agent at [`Step::ZERO`]: one worker
    /// (and one fresh [`Db`]) per shard of `map`, populated and linked in
    /// a single `[Arrive, RelinkQuery]` round. The `edges` field of
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
        let worker_dbs = (0..map.num_shards()).map(|_| Arc::new(Db::new())).collect();
        let mut tracker = Self::spawn(
            space,
            params,
            map,
            worker_dbs,
            options.history,
            initial.len(),
        );
        for (i, &pos) in initial.iter().enumerate() {
            tracker.nodes.push(Node {
                pos,
                step: Step::ZERO,
            });
            tracker.part.insert(i as u32, 0, pos);
            // Every agent's step-0 record (with its step-0 history
            // record when history is on) starts in the controller's
            // hands, bound for its owner.
            let record = tracker.mirror_record(i as u32, std::iter::empty());
            tracker.pool.push(record);
        }
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
        let owner = owners_of(members, num_agents)?;
        let mut tracker = Self::spawn(space, params, map, worker_dbs, options.history, num_agents);
        // Recover every worker in one round, then assemble the mirror
        // from the authoritative states they report.
        let mut states: Vec<Option<(u32, S::Pos)>> = vec![None; num_agents];
        for (j, list) in members.iter().enumerate() {
            tracker.hand_off(
                j,
                [CtrlMsg::Recover {
                    expected: list.clone(),
                }],
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
            tracker.part.insert(i as u32, step, pos);
        }
        tracker.part.check_owners(&owner)?;
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
        self.lanes.len()
    }

    /// The worker currently owning `a`.
    pub fn shard_of_agent(&self, a: AgentId) -> usize {
        self.part.owner(a.0)
    }

    /// Member agents of worker `shard`, ascending by id.
    pub fn members(&self, shard: usize) -> Vec<u32> {
        self.part.members(shard)
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
        self.part.min_step()
    }

    /// The highest step any agent is at.
    pub fn max_step(&self) -> Step {
        self.part.max_step()
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
        self.adj.first_blocker(a, &self.nodes)
    }

    /// All agents that block `a`, in `(step, id)` order.
    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        self.adj.blockers_of(a, &self.nodes)
    }

    /// Same-step coupling partners of `a`, ascending by id.
    pub fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.adj.coupled_of(a)
    }

    /// Verifies the §3.2 validity condition over the mirrored world.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    pub fn validate(&self) -> Result<(), String> {
        edges::validate(&*self.space, self.params, &self.nodes)
    }

    /// Dumps nodes and edges in the same shape as
    /// [`crate::depgraph::DepGraph::snapshot`], so the trackers compare
    /// directly.
    pub fn snapshot(&self) -> GraphSnapshot {
        self.adj.snapshot(&self.nodes)
    }

    /// Attaches a telemetry sink: the controller records every hand-off
    /// and the wait for its replies as one [`SpanKind::Boundary`] span
    /// each, `messages` saying how many requests or replies it carried
    /// (the [`Counter::BoundaryMessages`] counter counts those), and
    /// workers record their apply time per request through the shared
    /// cell. Workers that cannot see the
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
    /// hand-off path) so harvest traffic never inflates the
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
        for lane in &mut self.lanes {
            let t_send = t.now_us();
            let Ok(reply) = lane.poll(CtrlMsg::HarvestTelemetry { now_us: t_send }) else {
                continue; // severed: its buffer drains after a respawn
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
        for (j, lane) in self.lanes.iter_mut().enumerate() {
            let now_us = board.now_us();
            let Ok(ShardMsg::Heartbeat {
                worker,
                handled,
                last_step,
                members,
                dropped,
                ..
            }) = lane.poll(CtrlMsg::Heartbeat { now_us })
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
                queue_depth: lane.sent.saturating_sub(handled),
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

    /// Hands `requests` to worker `j` as one unit — one wake-up however
    /// many there are — recorded as one boundary-send span. Does nothing
    /// for an empty hand-off. A link error leaves the lane down.
    fn hand_off(
        &mut self,
        j: usize,
        requests: impl IntoIterator<Item = CtrlMsg<S::Pos>>,
    ) -> Result<(), StoreError> {
        let mut requests = requests.into_iter().peekable();
        if requests.peek().is_none() {
            return Ok(());
        }
        let lane = &mut self.lanes[j];
        if lane.down {
            return Err(worker_down(j as u32));
        }
        // Even a hand-off that fails may have reached the worker.
        lane.touched = true;
        let t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let mut messages = 0u32;
        let result = requests
            .try_for_each(|msg| {
                messages += 1;
                lane.link.send(msg)
            })
            .and_then(|()| lane.link.hand_off());
        match result {
            Ok(()) => {
                lane.sent += u64::from(messages);
                lane.owed += messages;
                lane.unwaited += messages;
            }
            Err(_) => lane.down = true,
        }
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            t.counter_add(Counter::BoundaryMessages, u64::from(messages));
            t.record(
                t0,
                SpanKind::Boundary {
                    worker: j as u32,
                    op: BoundaryOp::Send,
                    messages,
                },
            );
        }
        result
    }

    /// Takes worker `j`'s next reply. The first receive after a hand-off
    /// is the one that blocks, and is recorded as the boundary-wait span
    /// for all of that hand-off's replies; the rest are already here. A
    /// link error leaves the lane down and whatever it owed written off.
    fn recv_from(&mut self, j: usize) -> Result<ShardMsg<S::Pos>, StoreError> {
        let lane = &mut self.lanes[j];
        if lane.down {
            return Err(worker_down(j as u32));
        }
        let messages = std::mem::take(&mut lane.unwaited);
        let t0 = match &self.telemetry {
            Some(t) if messages > 0 => t.start(),
            _ => None,
        };
        let result = lane.link.recv();
        match result {
            Ok(_) => lane.owed = lane.owed.saturating_sub(1),
            Err(_) => {
                lane.down = true;
                lane.owed = 0;
            }
        }
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            t.counter_add(Counter::BoundaryMessages, u64::from(messages));
            t.record(
                t0,
                SpanKind::Boundary {
                    worker: j as u32,
                    op: BoundaryOp::Wait,
                    messages,
                },
            );
        }
        result
    }

    /// Consumes every reply still owed on a healthy link, so the next
    /// operation's first reply is its own. Departed records are kept:
    /// the reply may hold the only copy.
    fn drain(&mut self) {
        for j in 0..self.lanes.len() {
            while !self.lanes[j].down && self.lanes[j].owed > 0 {
                if let Ok(ShardMsg::Departed { records }) = self.recv_from(j) {
                    self.pool.extend(records);
                }
            }
        }
    }

    /// Awaits a [`ShardMsg::Done`] from worker `j`.
    fn expect_done(&mut self, j: usize) -> Result<(), StoreError> {
        match self.recv_from(j)? {
            ShardMsg::Done => Ok(()),
            other => Err(protocol_err("Done", &other)),
        }
    }

    /// Awaits worker `j`'s [`ShardMsg::Departed`], taking the records
    /// into the controller's hands.
    fn expect_departed(&mut self, j: usize) -> Result<(), StoreError> {
        match self.recv_from(j)? {
            ShardMsg::Departed { records } => {
                self.pool.extend(records);
                Ok(())
            }
            other => Err(protocol_err("Departed", &other)),
        }
    }

    /// Awaits worker `j`'s [`ShardMsg::Edges`] and sets them aside; the
    /// adjacency is only touched once every reply of the operation is in.
    fn expect_edges(&mut self, j: usize) -> Result<(), StoreError> {
        match self.recv_from(j)? {
            ShardMsg::Edges { edges } => {
                let n = self.nodes.len() as u32;
                if let Some(e) = edges.iter().find(|e| e.a >= n || e.b >= n || e.a == e.b) {
                    return Err(StoreError::Codec(format!(
                        "protocol violation: edge {e:?} names invalid agents"
                    )));
                }
                self.edges.extend(edges);
                Ok(())
            }
            other => Err(protocol_err("Edges", &other)),
        }
    }

    /// Advances every `(agent, new_position)` one step. Without a
    /// boundary crossing that is one round: each owner is handed its
    /// commit and its relink query together, each unpruned neighbour its
    /// query. Boundary crossings take two — commits and departures, then
    /// arrivals and queries — so a query never misses a mid-migration
    /// agent.
    ///
    /// # Errors
    ///
    /// Propagates worker transaction failures and severed links. A failed
    /// call leaves the mirror as it was and has committed nothing on any
    /// reachable worker (see [`DistTracker`]).
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    pub fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        self.targets.clear();
        self.targets.extend(
            updates
                .iter()
                .map(|&(a, pos)| (a, self.nodes[a.index()].step.0 + 1, pos)),
        );
        self.write(Write::Commit)
    }

    /// Rolls every `(agent, step, position)` back — the speculative
    /// squash path — in the same rounds as [`DistTracker::advance`].
    ///
    /// # Errors
    ///
    /// Propagates worker failures (including a worker-side refusal to
    /// roll *forward*), leaving the mirror as it was.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    pub fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        self.targets.clear();
        self.targets
            .extend(updates.iter().map(|&(a, step, pos)| (a, step.0, pos)));
        self.write(Write::Rollback)
    }

    /// Runs the write operation over `self.targets`, undoing it on
    /// failure.
    fn write(&mut self, write: Write) -> Result<(), StoreError> {
        let targets = std::mem::take(&mut self.targets);
        let result = self.try_write(write, &targets);
        if result.is_err() {
            self.abort(&targets);
        }
        self.end_operation(targets);
        result
    }

    fn try_write(
        &mut self,
        write: Write,
        targets: &[(AgentId, u32, S::Pos)],
    ) -> Result<(), StoreError> {
        // Group the writes by current owner and move the mirror to the
        // prospective state, so the probes below see exactly what they
        // would after the commit.
        let mut migrations = 0u64;
        for &(a, step, pos) in targets {
            let from = self.part.owner(a.0);
            self.undo.push((a, self.nodes[a.index()], from as u32));
            self.lanes[from].writes.push((a.0, step, pos));
            let node = Node {
                pos,
                step: Step(step),
            };
            if self.set_mirror(a, node) {
                self.lanes[from].departs.push(a.0);
                migrations += 1;
            }
        }
        self.build_probes(targets);
        if migrations == 0 {
            self.write_and_relink(write)?;
        } else {
            if let Some(t) = &self.telemetry {
                t.counter_add(Counter::ShardMigrations, migrations);
            }
            self.write_and_depart(write)?;
            self.arrive_and_relink()?;
        }
        self.apply_edges(targets);
        Ok(())
    }

    /// The single round of an operation that crosses no boundary:
    /// `[write, RelinkQuery]` to owners, `[RelinkQuery]` to neighbours.
    fn write_and_relink(&mut self, write: Write) -> Result<(), StoreError> {
        for j in 0..self.lanes.len() {
            let lane = &self.lanes[j];
            let requests = [write.request(&lane.writes), relink_query(&lane.probes)];
            self.hand_off(j, requests.into_iter().flatten())?;
        }
        for j in 0..self.lanes.len() {
            if !self.lanes[j].writes.is_empty() {
                self.expect_done(j)?;
            }
            if !self.lanes[j].probes.is_empty() {
                self.expect_edges(j)?;
            }
        }
        Ok(())
    }

    /// First round of a boundary-crossing operation: `[write, Depart]`
    /// to the owners, the departed records into the controller's hands.
    fn write_and_depart(&mut self, write: Write) -> Result<(), StoreError> {
        for j in 0..self.lanes.len() {
            let lane = &self.lanes[j];
            let depart = (!lane.departs.is_empty()).then(|| CtrlMsg::Depart {
                agents: lane.departs.clone(),
            });
            let requests = [write.request(&lane.writes), depart];
            self.hand_off(j, requests.into_iter().flatten())?;
        }
        for j in 0..self.lanes.len() {
            if !self.lanes[j].writes.is_empty() {
                self.expect_done(j)?;
            }
            if !self.lanes[j].departs.is_empty() {
                let held = self.pool.len();
                self.expect_departed(j)?;
                if let Some(r) = self.pool[held..]
                    .iter()
                    .find(|r| !self.lanes[j].departs.contains(&r.agent))
                {
                    return Err(StoreError::Codec(format!(
                        "worker {j} departed agent {} that was not migrating",
                        r.agent
                    )));
                }
            }
        }
        Ok(())
    }

    /// The records in the controller's hands whose mirror owner is `j`,
    /// as that worker's [`CtrlMsg::Arrive`]. They are copied, not moved:
    /// until the arrival is acknowledged the controller's copy is the
    /// only one sure to exist.
    fn arrivals(&self, j: usize) -> Option<CtrlMsg<S::Pos>> {
        let records: Vec<NodeRecord<S::Pos>> = self
            .pool
            .iter()
            .filter(|r| self.part.owner(r.agent) == j)
            .cloned()
            .collect();
        (!records.is_empty()).then_some(CtrlMsg::Arrive { records })
    }

    /// `[Arrive, RelinkQuery]` to every worker with a record bound for
    /// it or a probe to answer: the second round of a boundary-crossing
    /// operation, and all of initial population and edge refresh.
    fn arrive_and_relink(&mut self) -> Result<(), StoreError> {
        for j in 0..self.lanes.len() {
            let requests = [self.arrivals(j), relink_query(&self.lanes[j].probes)];
            self.hand_off(j, requests.into_iter().flatten())?;
        }
        for j in 0..self.lanes.len() {
            if self.pool.iter().any(|r| self.part.owner(r.agent) == j) {
                self.expect_done(j)?;
            }
            if !self.lanes[j].probes.is_empty() {
                self.expect_edges(j)?;
            }
        }
        Ok(())
    }

    /// Moves `a`'s mirror entry (node, shard membership) to `node`;
    /// returns whether it crossed into another worker's region.
    fn set_mirror(&mut self, a: AgentId, node: Node<S::Pos>) -> bool {
        let old = std::mem::replace(&mut self.nodes[a.index()], node);
        (self.part).migrate(a.0, (old.step.0, old.pos), (node.step.0, node.pos))
    }

    /// Fills each lane's probe list for the targets' (already moved)
    /// mirror states: a probe goes to every worker the step-bound /
    /// distance test cannot prune (the controller's conservative
    /// pruning, re-checked exactly worker-side).
    fn build_probes(&mut self, targets: &[(AgentId, u32, S::Pos)]) {
        for &(a, step, pos) in targets {
            for (j, lane) in self.lanes.iter_mut().enumerate() {
                if self.part.reach(j, step, pos, self.params).is_some() {
                    let agent = a.0;
                    lane.probes.push(Probe { agent, step, pos });
                }
            }
        }
    }

    /// Replaces the targets' incident edges with the ones the workers
    /// returned (validated on receipt; idempotent — both endpoints of an
    /// intra-batch edge may emit it).
    fn apply_edges(&mut self, targets: &[(AgentId, u32, S::Pos)]) {
        for &(a, _, _) in targets {
            self.adj.detach(a);
        }
        for e in self.edges.drain(..) {
            self.adj.link(e);
        }
    }

    /// Empties the operation scratch and hands `targets` back for reuse.
    fn end_operation(&mut self, targets: Vec<(AgentId, u32, S::Pos)>) {
        for lane in &mut self.lanes {
            lane.touched = false;
            lane.writes.clear();
            lane.departs.clear();
            lane.probes.clear();
        }
        self.undo.clear();
        self.edges.clear();
        self.pool.clear();
        self.targets = targets;
    }

    /// Undoes a failed write operation: the mirror goes back, healthy
    /// links are drained, and every worker that was handed a write is
    /// resynchronised with the mirror — or, if it cannot be reached,
    /// marked down with the targets in doubt for its respawn.
    fn abort(&mut self, targets: &[(AgentId, u32, S::Pos)]) {
        let mut involved: Vec<usize> = self
            .undo
            .iter()
            .flat_map(|&(a, _, old)| [old as usize, self.part.owner(a.0)])
            .filter(|&j| self.lanes[j].touched)
            .collect();
        involved.sort_unstable();
        involved.dedup();
        while let Some((a, node, _)) = self.undo.pop() {
            self.set_mirror(a, node);
        }
        self.drain();
        let agents: Vec<u32> = targets.iter().map(|&(a, _, _)| a.0).collect();
        // Forget everywhere before re-adopting anywhere: an agent's
        // history may sit with a worker other than its mirror owner.
        for &j in &involved {
            if self.forget(j, &agents).is_err() {
                self.lanes[j].down = true;
            }
        }
        for &j in &involved {
            if !self.lanes[j].down && self.readopt(j, &agents).is_err() {
                self.lanes[j].down = true;
            }
        }
        for &j in &involved {
            if self.lanes[j].down {
                self.leave_in_doubt(j, &agents);
            }
        }
    }

    /// Leaves `agents` in doubt on the unreachable worker `j`, keeping
    /// for its respawn the records in the controller's hands that it
    /// owns.
    fn leave_in_doubt(&mut self, j: usize, agents: &[u32]) {
        let lane = &mut self.lanes[j];
        lane.down = true;
        lane.owed = 0;
        lane.in_doubt.extend_from_slice(agents);
        lane.in_doubt.sort_unstable();
        lane.in_doubt.dedup();
        let owned = self
            .pool
            .iter()
            .filter(|r| agents.contains(&r.agent) && self.part.owner(r.agent) == j);
        lane.held.extend(owned.cloned());
    }

    /// `a`'s record as the mirror has it, with whatever of `past` lies
    /// below its step as history (and nothing above: a step the mirror
    /// never reached did not happen).
    fn mirror_record(
        &self,
        a: u32,
        past: impl Iterator<Item = (u32, S::Pos)>,
    ) -> NodeRecord<S::Pos> {
        let node = self.nodes[a as usize];
        let mut history = Vec::new();
        if self.history {
            history.extend(past.filter(|&(step, _)| step < node.step.0));
            history.push((node.step.0, node.pos));
        }
        NodeRecord {
            agent: a,
            step: node.step.0,
            pos: node.pos,
            history,
        }
    }

    /// First half of a resync: worker `j` rebuilds itself from its store
    /// without `agents`, then forgets them there too — adopting each as
    /// a stub makes it a member whatever the store held, and departing
    /// it deletes its record and every history record, which come back
    /// into the controller's hands. Verifies the remaining members
    /// against the mirror (every acknowledged write was durable, so they
    /// must agree).
    fn forget(&mut self, j: usize, agents: &[u32]) -> Result<(), StoreError> {
        let mut expected = self.members(j);
        expected.retain(|a| !agents.contains(a));
        let members = expected.len();
        let mut requests = vec![CtrlMsg::Recover { expected }];
        if !agents.is_empty() {
            requests.push(CtrlMsg::Arrive {
                records: agents
                    .iter()
                    .map(|&a| self.mirror_record(a, std::iter::empty()))
                    .collect(),
            });
            requests.push(CtrlMsg::Depart {
                agents: agents.to_vec(),
            });
        }
        self.hand_off(j, requests)?;
        let reply = self.recv_from(j)?;
        let ShardMsg::Recovered { states } = reply else {
            return Err(protocol_err("Recovered", &reply));
        };
        if states.len() != members {
            return Err(StoreError::Codec(format!(
                "worker {j} recovered {} of {members} members",
                states.len()
            )));
        }
        for (a, step, pos) in states {
            let node = self.nodes[a as usize];
            if node.step.0 != step || node.pos != pos {
                return Err(StoreError::Codec(format!(
                    "worker {j} recovered agent {a} at {:?}/{step} but the \
                     controller mirror has {:?}/{}",
                    pos, node.pos, node.step
                )));
            }
        }
        if !agents.is_empty() {
            self.expect_done(j)?;
            self.expect_departed(j)?;
        }
        Ok(())
    }

    /// Second half of a resync: worker `j` adopts those of `agents` the
    /// mirror says it owns, at their mirrored state, with the history
    /// the first half recovered.
    fn readopt(&mut self, j: usize, agents: &[u32]) -> Result<(), StoreError> {
        let records: Vec<NodeRecord<S::Pos>> = agents
            .iter()
            .filter(|&&a| self.part.owner(a) == j)
            .map(|&a| {
                let held = self.pool.iter().filter(|r| r.agent == a);
                self.mirror_record(a, held.flat_map(|r| r.history.iter().copied()))
            })
            .collect();
        if records.is_empty() {
            return Ok(());
        }
        self.hand_off(j, [CtrlMsg::Arrive { records }])?;
        self.expect_done(j)
    }

    /// Rebuilds every derived edge from the mirrored node states by
    /// probing all agents (initialisation and recovery; initialisation
    /// also delivers the initial records, in the same round).
    ///
    /// # Errors
    ///
    /// Propagates severed links and protocol violations.
    pub fn refresh_edges(&mut self) -> Result<(), StoreError> {
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        targets.extend(
            self.nodes
                .iter()
                .enumerate()
                .map(|(i, node)| (AgentId(i as u32), node.step.0, node.pos)),
        );
        self.build_probes(&targets);
        let result = self.arrive_and_relink();
        match result {
            Ok(()) => self.apply_edges(&targets),
            Err(_) => self.drain(),
        }
        self.end_operation(targets);
        result
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
        let result = self.evict_below(floor);
        if result.is_err() {
            self.drain();
        }
        let total = result?;
        self.hist_floor = floor;
        // Eviction is the run's natural quiesce barrier: piggyback a
        // telemetry harvest so out-of-process buffers drain steadily
        // instead of ballooning until end of run.
        self.harvest_telemetry()?;
        Ok(total)
    }

    /// One [`CtrlMsg::EvictHistory`] round; the records evicted.
    fn evict_below(&mut self, floor: u32) -> Result<u64, StoreError> {
        for j in 0..self.lanes.len() {
            self.hand_off(j, [CtrlMsg::EvictHistory { floor }])?;
        }
        let mut total = 0u64;
        for j in 0..self.lanes.len() {
            let reply = self.recv_from(j)?;
            let ShardMsg::Evicted { removed } = reply else {
                return Err(protocol_err("Evicted", &reply));
            };
            total += removed;
        }
        Ok(total)
    }

    /// Severs worker `shard`'s link without a shutdown handshake —
    /// simulating a worker crash. Subsequent operations touching that
    /// shard fail until [`DistTracker::respawn_worker`] heals it; the
    /// worker's database (its durable storage) is retained.
    pub fn kill_worker(&mut self, shard: usize) {
        self.replace_link(shard, Box::new(SeveredLink::new(shard as u32)));
        self.lanes[shard].down = true;
        if let Some(hook) = self.on_severed.as_mut() {
            hook(shard as u32);
        }
    }

    /// Swaps worker `shard`'s link for `link`, returning the old one
    /// (not dropped, so its worker lives on behind it). For tests that
    /// wrap a live link to count or fail its calls.
    #[doc(hidden)]
    pub fn replace_link(
        &mut self,
        shard: usize,
        link: Box<dyn WorkerLink<S::Pos>>,
    ) -> Box<dyn WorkerLink<S::Pos>> {
        let lane = &mut self.lanes[shard];
        lane.owed = 0;
        lane.unwaited = 0;
        std::mem::replace(&mut lane.link, link)
    }

    /// Respawns worker `shard` over its retained database and brings it
    /// back to the mirror: the fresh worker rebuilds its members, index,
    /// and step bounds from its own store ([`CtrlMsg::Recover`]), the
    /// controller verifies them against its mirror (every acknowledged
    /// write was durable, so they must agree), and the agents of calls
    /// that failed while the worker could not be reached — which its
    /// store may hold at either state, or not at all — are reset to
    /// their mirrored state.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the recovered states disagree
    /// with the mirror or a record is missing; the worker stays down.
    pub fn respawn_worker(&mut self, shard: usize) -> Result<(), StoreError> {
        let link = ChannelLink::spawn(
            shard as u32,
            Arc::clone(&self.space),
            self.params,
            Arc::clone(&self.worker_dbs[shard]),
            self.history,
            Arc::clone(&self.shared_telemetry),
        );
        // Dropping the old link joins the old worker, if it still runs.
        drop(self.replace_link(shard, Box::new(link)));
        let lane = &mut self.lanes[shard];
        lane.down = false;
        // The fresh worker restarts its handled count at zero, so the
        // controller-side sent counter must follow or queue depth would
        // read as permanently backed up.
        lane.sent = 0;
        let agents = std::mem::take(&mut lane.in_doubt);
        self.pool = std::mem::take(&mut lane.held);
        let result = self
            .forget(shard, &agents)
            .and_then(|()| self.readopt(shard, &agents));
        if result.is_err() {
            self.leave_in_doubt(shard, &agents);
        }
        self.pool.clear();
        result
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
        for j in 0..self.lanes.len() {
            self.hand_off(j, [CtrlMsg::Quiesce]).expect("quiesce send");
            let reply = self.recv_from(j).expect("quiesce recv");
            let ShardMsg::Quiesced { states } = reply else {
                panic!("expected Quiesced, got {reply:?}");
            };
            assert_eq!(
                states.len(),
                self.members(j).len(),
                "worker {j} member count drifted from the mirror"
            );
            for (a, step, pos) in states {
                assert_eq!(self.part.owner(a), j, "ownership drift");
                let node = self.nodes[a as usize];
                assert_eq!(node.step.0, step, "stale mirror step for agent {a}");
                assert_eq!(node.pos, pos, "stale mirror position for agent {a}");
            }
        }
        self.part.check(&self.nodes);
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
