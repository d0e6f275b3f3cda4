//! The controller-side tracker driving isolated shard workers.
//!
//! [`DistTracker`] is the crate's one tracker — the committed-state
//! mirror [`crate::depgraph::DepGraph`] and
//! [`crate::shard::ShardedDepGraph`] keep, with the same refusal contract
//! and the same queries — over the remote sink: one lane per worker. Its
//! mirror's partition follows the workers' membership, so scheduling
//! queries and edge repair never cross the boundary. The workers
//! ([`super::worker::ShardWorker`], each behind a
//! [`super::worker::WorkerLink`]) hold the authoritative records, written
//! by the same store core the in-process graph writes through: every
//! **write** (commit, rollback, migration, history eviction) happens
//! worker-side, reached only through the typed [`super::msg`] protocol.
//!
//! # The hand-off rule
//!
//! Workers only receive writes, and the controller needs none of their
//! replies to schedule, so it does not wait for them. A write is queued
//! on its owner's *lane* (the controller's side of one worker) with the
//! controller's own copy held *in doubt*, and the call returns. A lane is
//! handed off ([`super::worker::WorkerLink`]: everything queued,
//! delivered as one unit, applied in order, answered as one unit) and its
//! replies reaped only:
//!
//! - when it holds [`WINDOW`] requests;
//! - when a migration needs the departing worker's records: its lane is
//!   handed off with the `Depart` last, and the call waits for the
//!   `Departed` reply — one blocking round on that lane. The arrival is
//!   queued on the new owner's lane like any write;
//! - at a quiesce point: [`DistTracker::evict_history`],
//!   [`DistTracker::harvest_telemetry`], [`DistTracker::poll_heartbeats`],
//!   [`Tracker::check_invariants`], [`DistTracker::respawn_worker`],
//!   the readers of the worker stores ([`DistTracker::worker_db`],
//!   [`DistTracker::commits`], [`DistTracker::history_records`]) and
//!   `Drop`. Construction and [`DistTracker::recover`] leave nothing
//!   queued.
//!
//! A worker therefore wakes about once per window instead of once per
//! commit. Handing off to a lane never waits for another, and one
//! agent's writes all queue on one lane (a migration empties the old
//! owner's), so each worker applies them in call order.
//!
//! The in-process sink of [`crate::depgraph::DepGraph`] and
//! [`crate::shard::ShardedDepGraph`] follows the same rule without the
//! thread: one queue, written on the graph's own store as one batch once
//! it holds [`WINDOW`] calls, or at a quiesce point — the store readers
//! (`db`, `commits`, `history_records`, `history_at`), a history
//! eviction, the invariant check, and `Drop`. It has no migration to
//! wait for. A window that fails to land (only a `dep:commits` value
//! that is not an integer fails it) fails the call that filled it, with
//! that call's writes withdrawn and every earlier call's kept queued.
//!
//! # What a failed call leaves behind
//!
//! A call fails before it queues anything when it is refused (it names an
//! agent twice, or a rollback target lies ahead of the agent), or when a
//! lane it would write to is down. Otherwise
//! it can only fail in a hand-off it triggered, and then:
//!
//! - The mirror is where it was: it only moves once the call has
//!   succeeded.
//! - The call's own queued requests are withdrawn, and every worker it
//!   handed anything is resynchronised in two steps that need no
//!   knowledge of how far it got. It *forgets* the call's agents and
//!   every agent it holds writes in doubt for (`[Recover` without them`,
//!   Arrive` them as stubs`, Depart` them`]` — whatever the store held
//!   comes back as departed records). Then the mirror's owner *re-adopts*
//!   each at its mirrored state, with the recovered history plus the
//!   in-doubt writes replayed over it.
//! - So writes of earlier calls that returned `Ok` are never lost: until
//!   a worker acknowledges one, the controller holds its own copy (not
//!   the link's queue, which [`DistTracker::kill_worker`] swaps out).
//! - A worker that cannot be reached is marked down with its in-doubt
//!   writes and agents, and the records in the controller's hands that it
//!   owns. [`DistTracker::respawn_worker`] runs the same two steps over
//!   its retained store.
//!
//! Not restored: `dep:commits` keeps counting an undone commit
//! transaction and does not count queued commits a resync re-adopted
//! instead; and history the failure itself destroyed (records of a
//! departure whose reply was lost, steps a failed rollback squashed).
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

use parking_lot::Mutex;

use aim_store::{Db, StoreError};

use crate::depgraph::GraphOptions;
use crate::edges::{Mirror, Node, Partition, Sink, Tracker};
use crate::health::{HealthBoard, WorkerHealth};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::shard::{owners_of, ShardMap};
use crate::space::Space;
use crate::telemetry::{BoundaryOp, Counter, SpanKind, Telemetry};

use super::msg::{CtrlMsg, NodeRecord, ShardMsg};
use super::worker::{floor_of, worker_down, ChannelLink, SeveredLink, SharedTelemetry, WorkerLink};

/// Requests a lane queues before it is handed off: the most writes a
/// worker holds in doubt between quiesce points, and the batching that
/// wakes it about once per `WINDOW` commits.
pub const WINDOW: usize = 32;

/// The controller's copy of one write a worker has been (or will be)
/// handed and has not acknowledged: what a resync replays.
#[derive(Debug, Clone)]
enum Unacked<P> {
    /// A commit or rollback of `agent` to `(step, pos)`.
    Write { agent: u32, step: u32, pos: P },
    /// A record the worker adopts: an arrival, or initial population.
    Arrive(NodeRecord<P>),
}

impl<P: Copy> Unacked<P> {
    fn agent(&self) -> u32 {
        match self {
            Unacked::Write { agent, .. } => *agent,
            Unacked::Arrive(r) => r.agent,
        }
    }

    /// Applies this write to `history` as the worker's store does: an
    /// arrival replaces it; a commit or rollback to step `s` leaves
    /// nothing from `s` up but its own record. Replaying a sequence this
    /// way from its first write gives the same history over any prefix
    /// of it already applied.
    fn replay(&self, history: &mut Vec<(u32, P)>) {
        match self {
            Unacked::Write { step, pos, .. } => {
                history.retain(|&(s, _)| s < *step);
                history.push((*step, *pos));
            }
            Unacked::Arrive(r) => history.clone_from(&r.history),
        }
    }
}

/// The controller's side of one worker: its link, the hand-off
/// accounting, the window of queued requests with the writes held in
/// doubt, and the per-worker grouping buffers an operation fills (kept,
/// so grouping allocates nothing once they have grown).
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
    /// Requests waiting for the next hand-off.
    queue: Vec<CtrlMsg<P>>,
    /// Every write queued or handed to this worker and not yet
    /// acknowledged, in order.
    unacked: Vec<Unacked<P>>,
    /// Where the running call's entries begin in `queue` and `unacked`,
    /// once it has queued any here.
    mark: Option<(usize, usize)>,
    /// Whether the running call handed this worker anything.
    handed: bool,
    /// Agents of failed calls whose state this worker may hold at
    /// either end while it cannot be reached, repaired at respawn.
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
}

impl<P: Copy + fmt::Debug> Lane<P> {
    fn new(link: Box<dyn WorkerLink<P>>) -> Self {
        Lane {
            link,
            down: false,
            sent: 0,
            owed: 0,
            unwaited: 0,
            queue: Vec::new(),
            unacked: Vec::new(),
            mark: None,
            handed: false,
            in_doubt: Vec::new(),
            held: Vec::new(),
            writes: Vec::new(),
            departs: Vec::new(),
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

    /// Notes that the running call queues here, remembering where its
    /// entries begin.
    fn begin(&mut self) {
        if self.mark.is_none() {
            self.mark = Some((self.queue.len(), self.unacked.len()));
        }
    }

    /// Hands `requests` to worker `j` as one unit — one wake-up however
    /// many there are — recorded as one boundary-send span. Does nothing
    /// for an empty hand-off. A link error leaves the lane down.
    fn hand_off(
        &mut self,
        j: usize,
        telemetry: Option<&Telemetry>,
        requests: impl IntoIterator<Item = CtrlMsg<P>>,
    ) -> Result<(), StoreError> {
        let mut requests = requests.into_iter().peekable();
        if requests.peek().is_none() {
            return Ok(());
        }
        if self.down {
            return Err(worker_down(j as u32));
        }
        // Even a hand-off that fails may have reached the worker.
        self.handed = true;
        let t0 = telemetry.and_then(|t| t.start());
        let mut messages = 0u32;
        let link = &mut self.link;
        let result = requests
            .try_for_each(|msg| {
                messages += 1;
                link.send(msg)
            })
            .and_then(|()| link.hand_off());
        match result {
            Ok(()) => {
                self.sent += u64::from(messages);
                self.owed += messages;
                self.unwaited += messages;
            }
            Err(_) => self.down = true,
        }
        if let (Some(t), Some(t0)) = (telemetry, t0) {
            t.counter_add(Counter::BoundaryMessages, u64::from(messages));
            let op = BoundaryOp::Send;
            let worker = j as u32;
            t.record(
                t0,
                SpanKind::Boundary {
                    worker,
                    op,
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
    fn recv(&mut self, j: usize, telemetry: Option<&Telemetry>) -> Result<ShardMsg<P>, StoreError> {
        if self.down {
            return Err(worker_down(j as u32));
        }
        let messages = std::mem::take(&mut self.unwaited);
        let t0 = telemetry.filter(|_| messages > 0).and_then(|t| t.start());
        let result = self.link.recv();
        match result {
            Ok(_) => self.owed = self.owed.saturating_sub(1),
            Err(_) => {
                self.down = true;
                self.owed = 0;
            }
        }
        if let (Some(t), Some(t0)) = (telemetry, t0) {
            t.counter_add(Counter::BoundaryMessages, u64::from(messages));
            let op = BoundaryOp::Wait;
            let worker = j as u32;
            t.record(
                t0,
                SpanKind::Boundary {
                    worker,
                    op,
                    messages,
                },
            );
        }
        result
    }

    /// Awaits a [`ShardMsg::Done`] from worker `j`.
    fn expect_done(&mut self, j: usize, telemetry: Option<&Telemetry>) -> Result<(), StoreError> {
        match self.recv(j, telemetry)? {
            ShardMsg::Done => Ok(()),
            other => Err(protocol_err("Done", &other)),
        }
    }

    /// Consumes every reply still owed on a healthy link, so the next
    /// hand-off's first reply is its own. Departed records go to `pool`:
    /// the reply may hold the only copy.
    fn drain(&mut self, j: usize, telemetry: Option<&Telemetry>, pool: &mut Vec<NodeRecord<P>>) {
        while !self.down && self.owed > 0 {
            if let Ok(ShardMsg::Departed { records }) = self.recv(j, telemetry) {
                pool.extend(records);
            }
        }
    }

    /// Hands off every queued request and reaps every reply, a `Depart`'s
    /// records into `pool`. On success the worker has acknowledged every
    /// write this lane held in doubt.
    fn flush(
        &mut self,
        j: usize,
        telemetry: Option<&Telemetry>,
        pool: &mut Vec<NodeRecord<P>>,
    ) -> Result<(), StoreError> {
        let mut queue = std::mem::take(&mut self.queue);
        let requests = queue.len();
        let handed = self.hand_off(j, telemetry, queue.drain(..));
        self.queue = queue;
        handed?;
        for _ in 0..requests {
            match self.recv(j, telemetry)? {
                ShardMsg::Done => {}
                ShardMsg::Departed { records } => pool.extend(records),
                other => return Err(protocol_err("Done", &other)),
            }
        }
        self.unacked.clear();
        if let Some(mark) = &mut self.mark {
            *mark = (0, 0);
        }
        Ok(())
    }

    /// Drops what a resync made redundant: the worker is at the mirror.
    fn resynced(&mut self) {
        self.queue.clear();
        self.unacked.clear();
        self.in_doubt.clear();
        self.held.clear();
    }
}

/// Flushes every healthy lane. A lane that fails is left down with its
/// writes still in doubt, for [`DistTracker::respawn_worker`]; the first
/// error is returned once every other lane has been flushed.
fn settle<P: Copy + fmt::Debug>(
    lanes: &mut [Lane<P>],
    telemetry: Option<&Telemetry>,
) -> Result<(), StoreError> {
    let mut result = Ok(());
    for (j, lane) in lanes.iter_mut().enumerate() {
        if lane.down {
            continue;
        }
        // Only a migrating call queues a `Depart`, and it flushes the
        // lane at once: nothing departs here.
        let mut departed = Vec::new();
        if let Err(e) = lane.flush(j, telemetry, &mut departed) {
            lane.down = true;
            lane.owed = 0;
            lane.unwaited = 0;
            result = result.and(Err(e));
        }
        lane.handed = false;
    }
    result
}

/// Hands each worker `request(j)` and gathers the `(step, position)` of
/// every one of `agents` agents from the member states the replies
/// carry (`Quiesced` and `Recovered` alike): each worker must report the
/// agents `owner` gives it, each once, and no other.
fn gather<P: Copy + fmt::Debug>(
    lanes: &mut [Lane<P>],
    telemetry: Option<&Telemetry>,
    agents: usize,
    owner: impl Fn(u32) -> usize,
    request: impl Fn(usize) -> CtrlMsg<P>,
) -> Result<Vec<(Step, P)>, StoreError> {
    for (j, lane) in lanes.iter_mut().enumerate() {
        lane.hand_off(j, telemetry, [request(j)])?;
    }
    let mut states = vec![None; agents];
    for (j, lane) in lanes.iter_mut().enumerate() {
        let reply = lane.recv(j, telemetry)?;
        let (ShardMsg::Quiesced { states: members } | ShardMsg::Recovered { states: members }) =
            reply
        else {
            return Err(protocol_err("member states", &reply));
        };
        for (a, step, pos) in members {
            match states.get_mut(a as usize) {
                Some(slot @ None) if owner(a) == j => *slot = Some((Step(step), pos)),
                _ => return Err(StoreError::Codec(format!("worker {j} reports agent {a}"))),
            }
        }
    }
    let missing = |a| StoreError::Codec(format!("no worker reports agent {a}"));
    (states.into_iter().enumerate())
        .map(|(a, state)| state.ok_or_else(|| missing(a)))
        .collect()
}

/// Queues every record of `pool` as an arrival on the lane of the worker
/// its position belongs to, each held in doubt there, and empties it.
fn queue_arrivals<P: Copy + fmt::Debug>(
    lanes: &mut [Lane<P>],
    part: &Partition<P>,
    pool: &mut Vec<NodeRecord<P>>,
) {
    for (j, lane) in lanes.iter_mut().enumerate() {
        let records: Vec<NodeRecord<P>> = pool
            .iter()
            .filter(|r| part.home(r.pos) == j)
            .cloned()
            .collect();
        if records.is_empty() {
            continue;
        }
        lane.begin();
        lane.unacked
            .extend(records.iter().cloned().map(Unacked::Arrive));
        lane.queue.push(CtrlMsg::Arrive { records });
    }
    pool.clear();
}

/// `a`'s record at its mirrored `node`, with whatever of `past` lies
/// below its step as history (and nothing above: a step the mirror
/// never reached did not happen).
fn mirror_record<P: Copy>(
    a: u32,
    node: Node<P>,
    history: bool,
    past: impl Iterator<Item = (u32, P)>,
) -> NodeRecord<P> {
    let mut records = Vec::new();
    if history {
        records.extend(past.filter(|&(step, _)| step < node.step.0));
        records.push((node.step.0, node.pos));
    }
    NodeRecord {
        agent: a,
        step: node.step.0,
        pos: node.pos,
        history: records,
    }
}

/// The distributed dependency tracker (see the [module docs](super)):
/// the one tracker, its mirror partitioned as the workers' membership,
/// writing through their lanes.
///
/// [`advance`](crate::depgraph::DepTracker::advance) and
/// [`rollback`](crate::depgraph::DepTracker::rollback) repair edges on
/// the controller and queue the write for its owner, waiting for a
/// worker only when a lane's window fills or for the `Departed` records
/// of a migrating agent; the module docs give the hand-off rule and what
/// a failed call leaves behind. Once a telemetry sink is attached
/// ([`set_telemetry`](crate::depgraph::DepTracker::set_telemetry)) every
/// hand-off and the wait for its replies is one [`SpanKind::Boundary`]
/// span, `messages` saying how many it carried
/// ([`Counter::BoundaryMessages`]); workers record their apply time
/// through the shared cell, or, out of process, buffer it for
/// [`DistTracker::harvest_telemetry`].
pub type DistTracker<S> = Tracker<S, Remote<S>>;

/// The lanes a [`DistTracker`] writes through: one per shard worker, with
/// each worker's database retained as its durable storage stand-in.
pub struct Remote<S: Space> {
    /// One lane per shard worker. Only the readers of the worker stores
    /// and their states lock it, to settle the window through `&self`;
    /// every other path reaches the lanes through `get_mut`.
    lanes: Mutex<Vec<Lane<S::Pos>>>,
    /// Each worker's database, retained as its durable storage stand-in.
    worker_dbs: Vec<Arc<Db>>,
    history: bool,
    /// History-eviction watermark mirror (guards redundant sweeps).
    hist_floor: u32,
    telemetry: Option<Arc<Telemetry>>,
    /// The cell worker threads read their telemetry sink from.
    shared_telemetry: SharedTelemetry,
    /// Invoked with the worker id when a link is severed
    /// ([`DistTracker::kill_worker`]) — the flight recorder's dump
    /// trigger.
    on_severed: Option<Box<dyn FnMut(u32) + Send>>,
    /// Records in the controller's hands: departed and not yet queued
    /// for their new owner, or recovered by a resync. Operation scratch,
    /// empty between calls.
    pool: Vec<NodeRecord<S::Pos>>,
}

impl<S: Space> fmt::Debug for Remote<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Remote")
            .field("workers", &self.worker_dbs.len())
            .field("history", &self.history)
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
    /// A tracker around `mirror` over one freshly spawned channel worker
    /// per store.
    fn spawn(mirror: Mirror<S>, worker_dbs: Vec<Arc<Db>>, history: bool) -> Self {
        let shared_telemetry: SharedTelemetry = Arc::default();
        let lanes = worker_dbs
            .iter()
            .enumerate()
            .map(|(j, db)| {
                Lane::new(Box::new(ChannelLink::spawn(
                    j as u32,
                    Arc::clone(mirror.space()),
                    mirror.params(),
                    Arc::clone(db),
                    history,
                    Arc::clone(&shared_telemetry),
                )))
            })
            .collect();
        let remote = Remote {
            lanes: Mutex::new(lanes),
            worker_dbs,
            history,
            hist_floor: 0,
            telemetry: None,
            shared_telemetry,
            on_severed: None,
            pool: Vec::new(),
        };
        Tracker::from_parts(mirror, remote)
    }

    /// Creates the tracker with every agent at [`Step::ZERO`]: one worker
    /// (and one fresh [`Db`]) per shard of `map`, populated in a single
    /// `[Arrive]` round. The `edges` field of `options` is ignored — the
    /// distributed tracker always maintains its adjacency.
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
        let step = Step::ZERO;
        let nodes = initial.iter().map(|&pos| Node { pos, step }).collect();
        let mirror = Mirror::new(space, params, map, nodes, true);
        let mut tracker = Self::spawn(mirror, worker_dbs, options.history);
        // Every agent's step-0 record (with its step-0 history record
        // when history is on) starts in the controller's hands, bound
        // for its owner.
        let (nodes, remote) = (tracker.mirror.nodes(), &mut tracker.sink);
        remote.pool = (nodes.iter().enumerate())
            .map(|(a, &node)| mirror_record(a as u32, node, remote.history, std::iter::empty()))
            .collect();
        let lanes = remote.lanes.get_mut();
        queue_arrivals(lanes, tracker.mirror.partition(), &mut remote.pool);
        settle(lanes, None)?;
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
        // The workers come up around an empty mirror; the real one is
        // assembled from the authoritative states they report, all
        // recovered in one round.
        let empty = Mirror::new(
            Arc::clone(&space),
            params,
            Arc::clone(&map),
            Vec::new(),
            true,
        );
        let mut tracker = Self::spawn(empty, worker_dbs, options.history);
        let lanes = tracker.sink.lanes.get_mut();
        let recover = |j: usize| CtrlMsg::Recover {
            expected: members[j].clone(),
        };
        let owned_by = |a: u32| owner[a as usize] as usize;
        let states = gather(lanes, None, num_agents, owned_by, recover)?;
        let nodes = (states.into_iter()).map(|(step, pos)| Node { pos, step });
        tracker.mirror = Mirror::new(space, params, map, nodes.collect(), true);
        tracker.mirror.partition().check_owners(&owner)?;
        let remote = &mut tracker.sink;
        if remote.history {
            remote.hist_floor = (remote.worker_dbs.iter())
                .map(|db| floor_of(db).unwrap_or(0))
                .min()
                .unwrap_or(0);
        }
        Ok(tracker)
    }

    /// Worker `shard`'s database — its durable storage stand-in. What a
    /// checkpoint of the distributed run snapshots, and what
    /// [`DistTracker::recover`] rebuilds from. Settles the window first.
    pub fn worker_db(&self, shard: usize) -> &Arc<Db> {
        &self.sink.stores()[shard]
    }

    /// Settles the window, then drains every worker's locally-buffered
    /// telemetry into the attached sink via the
    /// [`CtrlMsg::HarvestTelemetry`] round, returning the number of spans
    /// merged. Runs automatically after each history eviction barrier
    /// and at end of run; call it directly for an on-demand drain.
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
    /// Returns the first lane's failure to settle (that worker is then
    /// down, and skipped), or [`StoreError::Codec`] on a protocol
    /// violation (a live worker answering with something other than
    /// [`ShardMsg::Telemetry`]).
    pub fn harvest_telemetry(&mut self) -> Result<u64, StoreError> {
        self.sink.harvest()
    }

    /// Settles the window, then polls every worker with a
    /// [`CtrlMsg::Heartbeat`] and records the gauges on `board`.
    /// Best-effort, like harvest: a severed or misbehaving link marks the
    /// worker not-alive instead of failing the run, and the raw links
    /// are used so liveness polling never inflates the boundary
    /// accounting. Queue depth is derived controller-side as sent-count
    /// minus the worker's handled count — ≈ 0 on a settled link. Returns
    /// how many workers answered.
    pub fn poll_heartbeats(&mut self, board: &HealthBoard) -> usize {
        let remote = &mut self.sink;
        // A lane that fails to settle is down, and reported severed below.
        let _ = settle(remote.lanes.get_mut(), remote.telemetry.as_deref());
        let mut live = 0;
        for (j, lane) in remote.lanes.get_mut().iter_mut().enumerate() {
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
        self.sink.on_severed = Some(hook);
    }

    /// Severs worker `shard`'s link without a shutdown handshake —
    /// simulating a worker crash. Subsequent operations touching that
    /// shard fail until [`DistTracker::respawn_worker`] heals it; the
    /// worker's database (its durable storage) and the writes it holds
    /// in doubt are retained.
    pub fn kill_worker(&mut self, shard: usize) {
        self.replace_link(shard, Box::new(SeveredLink::new(shard as u32)));
        let remote = &mut self.sink;
        remote.lanes.get_mut()[shard].down = true;
        if let Some(hook) = remote.on_severed.as_mut() {
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
        let lane = &mut self.sink.lanes.get_mut()[shard];
        lane.owed = 0;
        lane.unwaited = 0;
        std::mem::replace(&mut lane.link, link)
    }

    /// Respawns worker `shard` over its retained database and brings it
    /// back to the mirror: the fresh worker rebuilds its members, index,
    /// and step bounds from its own store ([`CtrlMsg::Recover`]), the
    /// controller verifies them against its mirror (every acknowledged
    /// write was durable, so they must agree), and the agents it held in
    /// doubt — which its store may hold at any point of their in-doubt
    /// writes, or not at all — are re-adopted at their mirrored state
    /// with those writes replayed into their history.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the recovered states disagree
    /// with the mirror or a record is missing; the worker stays down.
    pub fn respawn_worker(&mut self, shard: usize) -> Result<(), StoreError> {
        let link = ChannelLink::spawn(
            shard as u32,
            Arc::clone(self.mirror.space()),
            self.mirror.params(),
            Arc::clone(&self.sink.worker_dbs[shard]),
            self.sink.history,
            Arc::clone(&self.sink.shared_telemetry),
        );
        // Dropping the old link joins the old worker, if it still runs.
        drop(self.replace_link(shard, Box::new(link)));
        let remote = &mut self.sink;
        let lane = &mut remote.lanes.get_mut()[shard];
        lane.down = false;
        // The fresh worker restarts its handled count at zero, so the
        // controller-side sent counter must follow or queue depth would
        // read as permanently backed up.
        lane.sent = 0;
        remote.pool = std::mem::take(&mut lane.held);
        let result = remote.resync(&self.mirror, &[shard], &[]);
        remote.pool.clear();
        result
    }
}

impl<S: Space> Remote<S> {
    /// [`DistTracker::harvest_telemetry`].
    fn harvest(&mut self) -> Result<u64, StoreError> {
        let settled = settle(self.lanes.get_mut(), self.telemetry.as_deref());
        let Some(t) = self.telemetry.clone() else {
            return settled.map(|()| 0);
        };
        let mut merged = 0u64;
        for lane in self.lanes.get_mut() {
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
        settled.map(|()| merged)
    }

    /// Queues the operation's writes on their owners' lanes, moves every
    /// migrating agent's records to its new owner's lane, and hands off
    /// whatever lane that leaves with a full window.
    fn queue_write(
        &mut self,
        mirror: &Mirror<S>,
        targets: &[(AgentId, Step, S::Pos)],
        commit: bool,
    ) -> Result<(), StoreError> {
        let (lanes, part) = (self.lanes.get_mut(), mirror.partition());
        for &(a, _, pos) in targets {
            for j in [part.owner(a.0), part.home(pos)] {
                if lanes[j].down {
                    return Err(worker_down(j as u32));
                }
            }
        }
        let mut migrations = 0u64;
        for &(a, step, pos) in targets {
            let from = part.owner(a.0);
            lanes[from].writes.push((a.0, step.0, pos));
            if part.home(pos) != from {
                lanes[from].departs.push(a.0);
                migrations += 1;
            }
        }
        for lane in lanes.iter_mut().filter(|lane| !lane.writes.is_empty()) {
            lane.begin();
            let writes = &lane.writes;
            lane.queue.push(match commit {
                true => CtrlMsg::Commit {
                    updates: writes.iter().map(|&(a, _, pos)| (a, pos)).collect(),
                },
                false => CtrlMsg::Rollback {
                    updates: writes.clone(),
                },
            });
            let unacked =
                (writes.iter()).map(|&(agent, step, pos)| Unacked::Write { agent, step, pos });
            lane.unacked.extend(unacked);
        }
        let t = self.telemetry.as_deref();
        if migrations > 0 {
            if let Some(t) = t {
                t.counter_add(Counter::ShardMigrations, migrations);
            }
            for (j, lane) in lanes.iter_mut().enumerate() {
                if lane.departs.is_empty() {
                    continue;
                }
                let agents = lane.departs.clone();
                lane.queue.push(CtrlMsg::Depart { agents });
                let held = self.pool.len();
                lane.flush(j, t, &mut self.pool)?;
                let departs = &lane.departs;
                if let Some(r) = self.pool[held..]
                    .iter()
                    .find(|r| !departs.contains(&r.agent))
                {
                    return Err(StoreError::Codec(format!(
                        "worker {j} departed agent {} that was not migrating",
                        r.agent
                    )));
                }
            }
            queue_arrivals(lanes, part, &mut self.pool);
        }
        for (j, lane) in lanes.iter_mut().enumerate() {
            if !lane.down && lane.queue.len() >= WINDOW {
                lane.flush(j, t, &mut self.pool)?;
            }
        }
        Ok(())
    }

    /// Undoes a failed write operation: healthy links are drained, the
    /// call's queued requests withdrawn (its arrivals back into the
    /// controller's hands), and every worker the call handed anything is
    /// resynchronised with the mirror.
    fn abort(&mut self, mirror: &Mirror<S>, targets: &[(AgentId, Step, S::Pos)]) {
        let t = self.telemetry.as_deref();
        let mut involved = Vec::new();
        for (j, lane) in self.lanes.get_mut().iter_mut().enumerate() {
            lane.drain(j, t, &mut self.pool);
            if let Some((queued, unacked)) = lane.mark.take() {
                lane.queue.truncate(queued);
                for u in lane.unacked.drain(unacked..) {
                    if let Unacked::Arrive(record) = u {
                        self.pool.push(record);
                    }
                }
            }
            if lane.handed {
                involved.push(j);
            }
        }
        let agents: Vec<u32> = targets.iter().map(|&(a, _, _)| a.0).collect();
        // The failure is already the call's error; a worker the resync
        // cannot reach stays down until respawned.
        let _ = self.resync(mirror, &involved, &agents);
    }

    /// Brings each `involved` worker back to the mirror for `agents`,
    /// the agents it holds in doubt and those it holds writes in doubt
    /// for: first every worker forgets them, then each owner re-adopts
    /// its own at their mirrored state, with the history recovered into
    /// the pool and its in-doubt writes replayed over it. A worker either
    /// step fails on is left down with the agents in doubt.
    ///
    /// # Errors
    ///
    /// Returns the first failure, or a down error for a worker that was
    /// down before.
    fn resync(
        &mut self,
        mirror: &Mirror<S>,
        involved: &[usize],
        agents: &[u32],
    ) -> Result<(), StoreError> {
        let lanes = self.lanes.get_mut();
        let sets: Vec<Vec<u32>> = involved
            .iter()
            .map(|&j| {
                let lane = &lanes[j];
                let mut set = agents.to_vec();
                set.extend_from_slice(&lane.in_doubt);
                set.extend(lane.unacked.iter().map(Unacked::agent));
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        let mut result = Ok(());
        // Forget everywhere before re-adopting anywhere: an agent's
        // history may sit with a worker other than its mirror owner.
        for (&j, set) in involved.iter().zip(&sets) {
            if let Err(e) = self.forget(mirror, j, set) {
                self.lanes.get_mut()[j].down = true;
                result = result.and(Err(e));
            }
        }
        for (&j, set) in involved.iter().zip(&sets) {
            if self.lanes.get_mut()[j].down {
                continue;
            }
            match self.readopt(mirror, j, set) {
                Ok(()) => self.lanes.get_mut()[j].resynced(),
                Err(e) => {
                    self.lanes.get_mut()[j].down = true;
                    result = result.and(Err(e));
                }
            }
        }
        for (&j, set) in involved.iter().zip(&sets) {
            if self.lanes.get_mut()[j].down {
                self.leave_in_doubt(mirror, j, set);
                result = result.and(Err(worker_down(j as u32)));
            }
        }
        result
    }

    /// Leaves `agents` in doubt on the unreachable worker `j`, keeping
    /// for its respawn the records in the controller's hands that it
    /// owns.
    fn leave_in_doubt(&mut self, mirror: &Mirror<S>, j: usize, agents: &[u32]) {
        let lane = &mut self.lanes.get_mut()[j];
        lane.down = true;
        lane.owed = 0;
        lane.unwaited = 0;
        lane.in_doubt.extend_from_slice(agents);
        lane.in_doubt.sort_unstable();
        lane.in_doubt.dedup();
        let part = mirror.partition();
        let owned =
            (self.pool.iter()).filter(|r| agents.contains(&r.agent) && part.owner(r.agent) == j);
        lane.held.extend(owned.cloned());
    }

    /// First half of a resync: worker `j` rebuilds itself from its store
    /// without `agents` (ascending), then forgets them there too —
    /// adopting each as a stub makes it a member whatever the store held,
    /// and departing it deletes its record and every history record,
    /// which come back into the controller's hands. Verifies the
    /// remaining members against the mirror (they have no write in
    /// doubt, so they must agree).
    fn forget(&mut self, mirror: &Mirror<S>, j: usize, agents: &[u32]) -> Result<(), StoreError> {
        let mut expected = mirror.partition().members(j);
        expected.retain(|a| agents.binary_search(a).is_err());
        let members = expected.len();
        let mut requests = vec![CtrlMsg::Recover { expected }];
        if !agents.is_empty() {
            let nodes = mirror.nodes();
            let stub =
                |a: u32| mirror_record(a, nodes[a as usize], self.history, std::iter::empty());
            requests.push(CtrlMsg::Arrive {
                records: agents.iter().map(|&a| stub(a)).collect(),
            });
            requests.push(CtrlMsg::Depart {
                agents: agents.to_vec(),
            });
        }
        let t = self.telemetry.as_deref();
        let lane = &mut self.lanes.get_mut()[j];
        lane.hand_off(j, t, requests)?;
        let reply = lane.recv(j, t)?;
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
            let node = mirror.nodes()[a as usize];
            if node.step.0 != step || node.pos != pos {
                return Err(StoreError::Codec(format!(
                    "worker {j} recovered agent {a} at {:?}/{step} but the \
                     controller mirror has {:?}/{}",
                    pos, node.pos, node.step
                )));
            }
        }
        if !agents.is_empty() {
            lane.expect_done(j, t)?;
            match lane.recv(j, t)? {
                ShardMsg::Departed { records } => self.pool.extend(records),
                other => return Err(protocol_err("Departed", &other)),
            }
        }
        Ok(())
    }

    /// Second half of a resync: worker `j` adopts those of `agents` the
    /// mirror says it owns, at their mirrored state, with the history the
    /// first half recovered and the writes `j` holds in doubt replayed
    /// over it.
    fn readopt(&mut self, mirror: &Mirror<S>, j: usize, agents: &[u32]) -> Result<(), StoreError> {
        let lanes = self.lanes.get_mut();
        let records: Vec<NodeRecord<S::Pos>> = agents
            .iter()
            .filter(|&&a| mirror.partition().owner(a) == j)
            .map(|&a| {
                let held = self.pool.iter().filter(|r| r.agent == a);
                let mut past: Vec<(u32, S::Pos)> =
                    held.flat_map(|r| r.history.iter().copied()).collect();
                for write in lanes[j].unacked.iter().filter(|u| u.agent() == a) {
                    write.replay(&mut past);
                }
                mirror_record(
                    a,
                    mirror.nodes()[a as usize],
                    self.history,
                    past.into_iter(),
                )
            })
            .collect();
        if records.is_empty() {
            return Ok(());
        }
        let t = self.telemetry.as_deref();
        lanes[j].hand_off(j, t, [CtrlMsg::Arrive { records }])?;
        lanes[j].expect_done(j, t)
    }

    /// Settles the window, then one [`CtrlMsg::EvictHistory`] round; the
    /// records evicted.
    fn evict_below(&mut self, floor: u32) -> Result<u64, StoreError> {
        let t = self.telemetry.as_deref();
        let lanes = self.lanes.get_mut();
        settle(lanes, t)?;
        for (j, lane) in lanes.iter_mut().enumerate() {
            lane.hand_off(j, t, [CtrlMsg::EvictHistory { floor }])?;
        }
        let mut total = 0u64;
        for (j, lane) in lanes.iter_mut().enumerate() {
            let reply = lane.recv(j, t)?;
            let ShardMsg::Evicted { removed } = reply else {
                return Err(protocol_err("Evicted", &reply));
            };
            total += removed;
        }
        Ok(total)
    }
}

impl<S: Space> Drop for Remote<S> {
    fn drop(&mut self) {
        // Quiesce: every write a call returned for reaches its store
        // before the workers stop. A worker that cannot be reached keeps
        // what it had.
        let _ = settle(self.lanes.get_mut(), self.telemetry.as_deref());
    }
}

/// The write path of the [module docs](super): each write is queued on
/// its owner's lane, the workers are brought back to the mirror if the
/// call fails, and the readers of the worker stores settle the window
/// first.
impl<S: Space> Sink<S> for Remote<S> {
    fn history(&self) -> bool {
        self.history
    }

    fn write(
        &mut self,
        mirror: &Mirror<S>,
        targets: &[(AgentId, Step, S::Pos)],
        commit: bool,
    ) -> Result<(), StoreError> {
        let result = self.queue_write(mirror, targets, commit);
        if result.is_err() {
            self.abort(mirror, targets);
        }
        for lane in self.lanes.get_mut() {
            lane.mark = None;
            lane.handed = false;
            lane.writes.clear();
            lane.departs.clear();
        }
        self.pool.clear();
        result
    }

    fn floor(&self) -> Result<u32, StoreError> {
        Ok(self.hist_floor)
    }

    /// Compacts history across every worker store (settling the window
    /// first), then harvests the workers' telemetry: eviction is the
    /// run's natural quiesce barrier, so out-of-process buffers drain
    /// steadily instead of ballooning until end of run.
    fn evict(&mut self, floor: u32) -> Result<u64, StoreError> {
        let result = self.evict_below(floor);
        if result.is_err() {
            let t = self.telemetry.as_deref();
            for (j, lane) in self.lanes.get_mut().iter_mut().enumerate() {
                lane.drain(j, t, &mut self.pool);
            }
            self.pool.clear();
        }
        let total = result?;
        self.hist_floor = floor;
        self.harvest()?;
        Ok(total)
    }

    /// The workers' stores (each worker bumps its own `dep:commits`
    /// once per commit request it applies), after handing every lane's
    /// queue over and reaping the replies. A lane that fails to settle
    /// is left down with its writes in doubt: the next operation touching
    /// it fails until it is respawned.
    fn stores(&self) -> &[Arc<Db>] {
        let _ = settle(&mut self.lanes.lock(), self.telemetry.as_deref());
        &self.worker_dbs
    }

    /// Every agent's state as its worker reports it in one
    /// [`CtrlMsg::Quiesce`] round, once the window has settled: each
    /// worker must report exactly the members the mirror gives it.
    fn states(&self, mirror: &Mirror<S>) -> Result<Vec<(Step, S::Pos)>, StoreError> {
        let t = self.telemetry.as_deref();
        let mut lanes = self.lanes.lock();
        settle(&mut lanes, t)?;
        let part = mirror.partition();
        gather(
            &mut lanes,
            t,
            mirror.len(),
            |a| part.owner(a),
            |_| CtrlMsg::Quiesce,
        )
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.shared_telemetry.set(Some(Arc::clone(&telemetry)));
        self.telemetry = Some(telemetry);
    }

    fn harvest_telemetry(&mut self) {
        // Best-effort by contract: a lane that fails to settle is down
        // with its writes kept, and a protocol violation is surfaced by
        // the next real request, not by the harvest.
        let _ = self.harvest();
    }
}
