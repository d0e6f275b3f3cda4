//! The shard worker: an isolated owner of one shard's agents.
//!
//! A [`ShardWorker`] holds everything a shard needs to serve the
//! [`super::msg`] protocol — its members' committed states, a spatial
//! index over exactly those members, their `(step, agent)` step bounds,
//! and **its own [`Db`] instance** holding the authoritative `dagt` /
//! `dhst` records for its members (the same layout as the single-shard
//! [`crate::depgraph::DepGraph`], so per-worker stores snapshot and
//! recover with the existing tooling). Nothing is shared with other
//! workers or with the controller: every state transfer is a protocol
//! message, which is what lets phase 2 move a worker out of process
//! behind the `dist-socket` transport without touching this file's
//! logic.
//!
//! The one deliberate exception is telemetry: a same-process worker
//! observes the controller's [`Telemetry`] sink through a
//! [`SharedTelemetry`] cell so `trace_tool stalls` can attribute apply
//! time per worker. That cell is observability-only — no simulation
//! state flows through it — and it cannot cross an OS-process boundary:
//! a socket-served worker instead records into its **own** local
//! `Telemetry` buffer (armed lazily by the first
//! [`CtrlMsg::HarvestTelemetry`]) which the controller drains over the
//! wire and merges onto its timeline.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use bytes::BytesMut;
use parking_lot::Mutex;

use aim_store::{Db, Key, StoreError};

use crate::depgraph::{
    decode_record, encode_record, evict_below, load_record, AGENT_TAG, HIST_TAG,
};
use crate::edges::{edges_of, Node, Partition, Whole};
use crate::ids::Step;
use crate::rules::RuleParams;
use crate::space::Space;
use crate::telemetry::{BoundaryOp, Counter, SpanKind, Telemetry};

use super::msg::{CtrlMsg, NodeRecord, Probe, ShardMsg, WireEdge};

/// A generation-counted slot for the controller's in-process telemetry
/// sink: set by [`crate::dist::DistTracker::set_telemetry`] (and cleared
/// on teardown), observed by workers. The generation counter lets a
/// worker cache the `Arc` locally and refresh with a single relaxed
/// atomic load per message — the mutex is touched only when the sink
/// actually changes, keeping the lock off the per-message hot path
/// (`dist/handle` in the bench suite pins this).
#[derive(Debug, Default)]
pub struct TelemetryCell {
    generation: AtomicU64,
    sink: Mutex<Option<Arc<Telemetry>>>,
}

impl TelemetryCell {
    /// Installs (or clears) the shared sink, bumping the generation so
    /// workers refresh their cached copy on their next message.
    pub fn set(&self, sink: Option<Arc<Telemetry>>) {
        *self.sink.lock() = sink;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The current generation (one relaxed-cost load; changes exactly
    /// when [`TelemetryCell::set`] is called).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clones the current sink out of the cell (locks; workers call this
    /// only on a generation change).
    pub fn get(&self) -> Option<Arc<Telemetry>> {
        self.sink.lock().clone()
    }
}

/// The controller's telemetry sink as seen by workers: filled in by
/// [`crate::dist::DistTracker::set_telemetry`], cached per worker via the
/// cell's generation counter. Observability-only — the message protocol
/// remains the sole channel for simulation state.
pub type SharedTelemetry = Arc<TelemetryCell>;

/// One side of the message boundary: how the controller reaches a shard
/// worker. Phase 1 is the in-process [`ChannelLink`]; phase 2 adds the
/// socket transport behind the `dist-socket` feature.
///
/// The unit that crosses the boundary is a **hand-off**: every request
/// queued by [`WorkerLink::send`] since the previous one, delivered
/// together by [`WorkerLink::hand_off`], applied in order worker-side
/// ([`ShardWorker::handle_all`]) and answered by one hand-off of replies
/// back — one wake-up of the worker and one of the controller however
/// many requests it carries, because the wake-ups, not the bytes, are
/// what the boundary costs. Queueing and handing over never wait for
/// the worker, so the controller can hand off to every worker before
/// collecting any reply (the workers then run concurrently).
///
/// A link that has returned an error is dead: the controller stops
/// using it until the worker is respawned behind a new one.
pub trait WorkerLink<P>: Send {
    /// Queues one request for the next hand-off. Never blocks and never
    /// wakes the worker.
    ///
    /// # Errors
    ///
    /// Fails if the link is already known to be severed.
    fn send(&mut self, msg: CtrlMsg<P>) -> Result<(), StoreError>;

    /// Hands every queued request over to the worker as one unit. Does
    /// nothing when nothing is queued; never blocks on the worker
    /// applying the requests.
    ///
    /// # Errors
    ///
    /// Fails if the worker is unreachable (dead thread, severed link,
    /// closed connection).
    fn hand_off(&mut self) -> Result<(), StoreError>;

    /// Returns the next reply, in request order — one per request. When
    /// none is buffered it first hands over whatever is queued, then
    /// blocks for the worker's next hand-off of replies.
    ///
    /// # Errors
    ///
    /// Fails if the worker is unreachable, or if no reply is owed (a
    /// call that could only hang).
    fn recv(&mut self) -> Result<ShardMsg<P>, StoreError>;
}

/// An isolated shard worker (see the [module docs](super)).
pub struct ShardWorker<S: Space> {
    id: u32,
    space: Arc<S>,
    params: RuleParams,
    db: Arc<Db>,
    history: bool,
    /// Committed `(position, step)` per member.
    members: HashMap<u32, (S::Pos, u32)>,
    /// The members as one shard of the edge engine's partition: their
    /// step bounds and spatial index (`None` for spaces without one —
    /// relink queries then scan the members).
    part: Partition<S::Pos>,
    commits_key: Key,
    telemetry: SharedTelemetry,
    /// Cached copy of the shared sink, refreshed when the cell's
    /// generation counter changes — keeps the cell's mutex off the
    /// per-message hot path.
    cached_sink: Option<Arc<Telemetry>>,
    cached_generation: u64,
    /// The worker's own recording buffer, used when no in-process sink
    /// is shared (the socket transport). Created disabled; the first
    /// [`CtrlMsg::HarvestTelemetry`] arms it.
    local: Arc<Telemetry>,
    /// Per-buffer drain watermarks: spans below these were already
    /// shipped in a previous harvest.
    harvest_cursor: Vec<usize>,
    /// Counter values as of the previous harvest (deltas go on the wire).
    harvest_counters: [u64; Counter::ALL.len()],
    /// Messages handled since the worker started (heartbeats included);
    /// reported in [`ShardMsg::Heartbeat`] so the controller can derive
    /// queue depth as sent − handled.
    handled: u64,
    /// Reused candidate buffer for relink queries.
    scratch: Vec<u32>,
    /// Reused scratch the records are encoded in before being copied out.
    encode_buf: BytesMut,
}

impl<S: Space> fmt::Debug for ShardWorker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardWorker")
            .field("id", &self.id)
            .field("members", &self.members.len())
            .field("history", &self.history)
            .finish()
    }
}

impl<S: Space> ShardWorker<S> {
    /// Creates an empty worker over its own database. Members arrive via
    /// [`CtrlMsg::Arrive`] (initial population and migrations alike) or
    /// [`CtrlMsg::Recover`] (rebuild from `db` after a crash).
    pub fn new(
        id: u32,
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        history: bool,
        telemetry: SharedTelemetry,
    ) -> Self {
        let part = Self::partition(&space, params);
        let local = Arc::new(Telemetry::new());
        local.set_enabled(false); // armed by the first HarvestTelemetry
        ShardWorker {
            id,
            space,
            params,
            db,
            history,
            members: HashMap::new(),
            part,
            commits_key: Key::new("dep:commits"),
            telemetry,
            cached_sink: None,
            cached_generation: 0,
            local,
            harvest_cursor: Vec::new(),
            harvest_counters: [0; Counter::ALL.len()],
            handled: 0,
            scratch: Vec::new(),
            encode_buf: BytesMut::new(),
        }
    }

    /// An empty one-shard partition, indexed when the space can be.
    fn partition(space: &Arc<S>, params: RuleParams) -> Partition<S::Pos> {
        Partition::new(Arc::new(Whole), || {
            space.make_index(params.coupling_units())
        })
    }

    /// This worker's shard id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The space this worker's positions live in (used by byte
    /// transports to encode and decode protocol frames).
    pub fn space(&self) -> &Arc<S> {
        &self.space
    }

    /// Applies one hand-off: every request in order, one reply each,
    /// appended to `replies`. The hand-off **stops at its first
    /// failure** — once a request is answered [`ShardMsg::Failed`],
    /// nothing further from this hand-off is applied and every remaining
    /// request is answered `Failed` too, so a request can never run
    /// behind a refused one it was queued after (a [`CtrlMsg::Depart`]
    /// behind its [`CtrlMsg::Commit`]).
    pub fn handle_all(
        &mut self,
        requests: impl IntoIterator<Item = CtrlMsg<S::Pos>>,
        replies: &mut Vec<ShardMsg<S::Pos>>,
    ) {
        let mut failed = false;
        for msg in requests {
            let reply = if failed {
                self.handled += 1;
                ShardMsg::Failed {
                    message: format!(
                        "worker {}: not applied, an earlier request of the hand-off failed",
                        self.id
                    ),
                }
            } else {
                self.handle(msg)
            };
            failed |= matches!(reply, ShardMsg::Failed { .. });
            replies.push(reply);
        }
    }

    /// Applies one request and produces its reply. Failures are returned
    /// as [`ShardMsg::Failed`] (the worker never panics on protocol
    /// input); a failed request commits nothing.
    pub fn handle(&mut self, msg: CtrlMsg<S::Pos>) -> ShardMsg<S::Pos> {
        // One relaxed-cost atomic load per message; the cell's mutex is
        // taken only when the installed sink actually changed.
        let generation = self.telemetry.generation();
        if generation != self.cached_generation {
            self.cached_sink = self.telemetry.get();
            self.cached_generation = generation;
        }
        self.handled += 1;
        // Harvest and heartbeat replies are bookkeeping, not protocol
        // work: answer before the Apply-span bracket so neither appears
        // as (or inflates) apply time on the merged timeline.
        if matches!(msg, CtrlMsg::HarvestTelemetry { .. }) {
            return self.harvest();
        }
        if matches!(msg, CtrlMsg::Heartbeat { .. }) {
            return self.heartbeat();
        }
        let sink = self.cached_sink.as_deref().unwrap_or(&self.local);
        let t0 = sink.start();
        let reply = match self.dispatch(msg) {
            Ok(reply) => reply,
            Err(e) => ShardMsg::Failed {
                message: format!("worker {}: {e}", self.id),
            },
        };
        if let Some(t0) = t0 {
            let sink = self.cached_sink.as_deref().unwrap_or(&self.local);
            sink.record(
                t0,
                SpanKind::Boundary {
                    worker: self.id,
                    op: BoundaryOp::Apply,
                    messages: 1,
                },
            );
            if self.cached_sink.is_none() {
                // The controller counts boundary messages on its side of
                // a shared sink; only the wire-harvested local buffer
                // must count its own.
                sink.counter_add(Counter::BoundaryMessages, 1);
            }
        }
        reply
    }

    /// Drains everything recorded since the previous harvest into a
    /// [`ShardMsg::Telemetry`] reply. With a shared in-process sink the
    /// worker's spans already live in the controller's buffers, so the
    /// reply is empty (merging it would double-count); without one, the
    /// first harvest arms the local buffer and each harvest ships the
    /// increment plus the running overflow total.
    fn harvest(&mut self) -> ShardMsg<S::Pos> {
        if self.cached_sink.is_some() {
            return ShardMsg::Telemetry {
                worker: self.id,
                now_us: self.local.now_us(),
                spans: Vec::new(),
                counters: Vec::new(),
                dropped: 0,
            };
        }
        self.local.set_enabled(true);
        let spans = self.local.drain_new_spans(&mut self.harvest_cursor);
        let mut counters = Vec::new();
        for (slot, &c) in self.harvest_counters.iter_mut().zip(Counter::ALL.iter()) {
            let total = self.local.counter(c);
            let delta = total - *slot;
            if delta > 0 {
                counters.push((c, delta));
            }
            *slot = total;
        }
        ShardMsg::Telemetry {
            worker: self.id,
            now_us: self.local.now_us(),
            spans,
            counters,
            dropped: self.local.dropped(),
        }
    }

    /// Answers a liveness poll from gauges the worker maintains anyway
    /// (no database access; protocol invariant 4). `last_step` is the
    /// highest applied member step — `u32::MAX` flags an empty worker.
    fn heartbeat(&self) -> ShardMsg<S::Pos> {
        let last_step = if self.members.is_empty() {
            u32::MAX
        } else {
            self.part.max_step().0
        };
        ShardMsg::Heartbeat {
            worker: self.id,
            now_us: self.local.now_us(),
            handled: self.handled,
            last_step,
            members: self.members.len() as u32,
            dropped: self.local.dropped(),
        }
    }

    fn dispatch(&mut self, msg: CtrlMsg<S::Pos>) -> Result<ShardMsg<S::Pos>, StoreError> {
        match msg {
            CtrlMsg::Commit { updates } => {
                self.commit(&updates)?;
                Ok(ShardMsg::Done)
            }
            CtrlMsg::Rollback { updates } => {
                self.rollback(&updates)?;
                Ok(ShardMsg::Done)
            }
            CtrlMsg::Depart { agents } => {
                let records = self.depart(&agents)?;
                Ok(ShardMsg::Departed { records })
            }
            CtrlMsg::Arrive { records } => {
                self.arrive(records)?;
                Ok(ShardMsg::Done)
            }
            CtrlMsg::RelinkQuery { probes } => {
                let edges = self.relink(&probes);
                Ok(ShardMsg::Edges { edges })
            }
            CtrlMsg::EvictHistory { floor } => {
                let removed = self.evict_history(floor);
                Ok(ShardMsg::Evicted { removed })
            }
            CtrlMsg::Quiesce => Ok(ShardMsg::Quiesced {
                states: self.states(),
            }),
            CtrlMsg::Recover { expected } => {
                let states = self.recover(&expected)?;
                Ok(ShardMsg::Recovered { states })
            }
            // Normally intercepted in `handle` (before the Apply-span
            // bracket); kept here so the match stays exhaustive.
            CtrlMsg::HarvestTelemetry { .. } => Ok(self.harvest()),
            CtrlMsg::Heartbeat { .. } => Ok(self.heartbeat()),
            CtrlMsg::Shutdown => Ok(ShardMsg::Done),
        }
    }

    /// `(agent, step, position)` of every member, ascending by agent.
    fn states(&self) -> Vec<(u32, u32, S::Pos)> {
        let mut out: Vec<(u32, u32, S::Pos)> = self
            .members
            .iter()
            .map(|(&a, &(pos, step))| (a, step, pos))
            .collect();
        out.sort_unstable_by_key(|&(a, _, _)| a);
        out
    }

    /// The member state of `a`, or a protocol error naming the worker.
    fn member(&self, a: u32) -> Result<(S::Pos, u32), StoreError> {
        self.members
            .get(&a)
            .copied()
            .ok_or_else(|| StoreError::Codec(format!("agent {a} is not a member")))
    }

    fn commit(&mut self, updates: &[(u32, S::Pos)]) -> Result<(), StoreError> {
        // One operation names each agent once: every agent moves to the
        // step after its current one, in the store first and in memory only
        // once the batch has committed.
        let mut buf = std::mem::take(&mut self.encode_buf);
        let written = self.db.transaction(|txn| {
            for &(a, pos) in updates {
                let next = self.member(a)?.1 + 1;
                let value = encode_record(&*self.space, &mut buf, Step(next), pos);
                txn.set_key(&Key::tagged_u32(AGENT_TAG, a), value.clone());
                if self.history {
                    txn.set_key(&Key::tagged_u32_pair(HIST_TAG, next, a), value);
                }
            }
            txn.incr_key(&self.commits_key, 1)
        });
        self.encode_buf = buf;
        written?;
        for &(a, pos) in updates {
            self.apply_state(a, self.members[&a].1 + 1, pos);
        }
        Ok(())
    }

    fn rollback(&mut self, updates: &[(u32, u32, S::Pos)]) -> Result<(), StoreError> {
        // A refused update fails the whole batch, so nothing is written.
        let mut buf = std::mem::take(&mut self.encode_buf);
        let written = self.db.transaction(|txn| {
            for &(a, step, pos) in updates {
                let (_, current) = self.member(a)?;
                if step > current {
                    return Err(StoreError::Codec(format!(
                        "rollback of agent {a} to step {step} is ahead of current {current}"
                    )));
                }
                let value = encode_record(&*self.space, &mut buf, Step(step), pos);
                txn.set_key(&Key::tagged_u32(AGENT_TAG, a), value.clone());
                if self.history {
                    // A squash rewrites history: the target step's record
                    // is replaced and discarded future steps vanish.
                    txn.set_key(&Key::tagged_u32_pair(HIST_TAG, step, a), value);
                    for squashed in (step + 1)..=current {
                        txn.del(Key::tagged_u32_pair(HIST_TAG, squashed, a));
                    }
                }
            }
            Ok(())
        });
        self.encode_buf = buf;
        written?;
        for &(a, step, pos) in updates {
            self.apply_state(a, step, pos);
        }
        Ok(())
    }

    /// Moves one member's in-memory state to its committed `(step, pos)`.
    fn apply_state(&mut self, a: u32, step: u32, pos: S::Pos) {
        let (old_pos, old_step) = self.members[&a];
        self.part.migrate(a, (old_step, old_pos), (step, pos));
        self.members.insert(a, (pos, step));
    }

    fn depart(&mut self, agents: &[u32]) -> Result<Vec<NodeRecord<S::Pos>>, StoreError> {
        for &a in agents {
            self.member(a)?; // validate the whole batch before mutating
        }
        // Gather resident history in one prefix walk (migrations are rare
        // next to commits; an O(worker history) sweep per batch is fine).
        let mut history: HashMap<u32, Vec<(u32, S::Pos)>> = HashMap::new();
        let mut doomed: Vec<Key> = Vec::new();
        if self.history {
            let departing: BTreeSet<u32> = agents.iter().copied().collect();
            let space = &*self.space;
            let mut walk_err = None;
            self.db.for_each_prefix(HIST_TAG, |k, v| {
                let agent = u32::from_be_bytes(k[8..12].try_into().expect("12-byte history key"));
                if !departing.contains(&agent) {
                    return std::ops::ControlFlow::Continue(());
                }
                let step = u32::from_be_bytes(k[4..8].try_into().expect("12-byte history key"));
                match decode_record(space, v.clone()) {
                    Ok((_, pos)) => history.entry(agent).or_default().push((step, pos)),
                    Err(e) => {
                        walk_err = Some(e);
                        return std::ops::ControlFlow::Break(());
                    }
                }
                doomed.push(Key::new(k.clone()));
                std::ops::ControlFlow::Continue(())
            });
            if let Some(e) = walk_err {
                return Err(e);
            }
        }
        let agent_keys: Vec<Key> = agents
            .iter()
            .map(|&a| Key::tagged_u32(AGENT_TAG, a))
            .collect();
        self.db.transaction(|txn| {
            for key in agent_keys.iter().chain(&doomed) {
                txn.del(key);
            }
            Ok(())
        })?;
        let mut records = Vec::with_capacity(agents.len());
        for &a in agents {
            let (pos, step) = self.members.remove(&a).expect("validated above");
            self.part.remove(a, step, pos);
            records.push(NodeRecord {
                agent: a,
                step,
                pos,
                history: history.remove(&a).unwrap_or_default(),
            });
        }
        Ok(records)
    }

    fn arrive(&mut self, records: Vec<NodeRecord<S::Pos>>) -> Result<(), StoreError> {
        for r in &records {
            if self.members.contains_key(&r.agent) {
                return Err(StoreError::Codec(format!(
                    "agent {} arrived but is already a member",
                    r.agent
                )));
            }
        }
        let (space, buf) = (&*self.space, &mut self.encode_buf);
        self.db.transaction(|txn| {
            for r in &records {
                let value = encode_record(space, buf, Step(r.step), r.pos);
                txn.set_key(&Key::tagged_u32(AGENT_TAG, r.agent), value);
                for &(step, pos) in &r.history {
                    let value = encode_record(space, buf, Step(step), pos);
                    txn.set_key(&Key::tagged_u32_pair(HIST_TAG, step, r.agent), value);
                }
            }
            Ok(())
        })?;
        for r in records {
            self.members.insert(r.agent, (r.pos, r.step));
            self.part.insert(r.agent, r.step, r.pos);
        }
        Ok(())
    }

    /// Answers relink probes with the exact rule edges between each probe
    /// and this worker's members — the edge engine's candidate query and
    /// pair classification, over the worker's own step bounds and index.
    fn relink(&mut self, probes: &[Probe<S::Pos>]) -> Vec<WireEdge> {
        let mut out = Vec::new();
        let mut scratch = std::mem::take(&mut self.scratch);
        let node = |c: u32| {
            let (pos, step) = self.members[&c];
            Node {
                pos,
                step: Step(step),
            }
        };
        for p in probes {
            scratch.clear();
            self.part
                .candidates(p.step, p.pos, self.params, &mut scratch);
            let at = Node {
                pos: p.pos,
                step: Step(p.step),
            };
            edges_of(
                &*self.space,
                self.params,
                p.agent,
                at,
                &scratch,
                node,
                &mut out,
            );
        }
        self.scratch = scratch;
        out
    }

    fn evict_history(&mut self, floor: u32) -> u64 {
        if self.history {
            evict_below(&self.db, floor)
        } else {
            0
        }
    }

    fn recover(&mut self, expected: &[u32]) -> Result<Vec<(u32, u32, S::Pos)>, StoreError> {
        self.members.clear();
        self.part = Self::partition(&self.space, self.params);
        for &a in expected {
            let (Step(step), pos) = load_record(&*self.space, &self.db, a)?;
            self.members.insert(a, (pos, step));
            self.part.insert(a, step, pos);
        }
        Ok(self.states())
    }
}

/// What the controller hands a channel worker: the queued requests, and
/// the emptied buffer of the previous hand-off's replies for the worker
/// to fill — the two buffers go back and forth, so a steady-state
/// hand-off allocates neither.
type Requests<P> = (Vec<CtrlMsg<P>>, Vec<ShardMsg<P>>);

/// What the worker hands back: one reply per request, and the emptied
/// request buffer.
type Replies<P> = (Vec<ShardMsg<P>>, Vec<CtrlMsg<P>>);

/// Phase-1 transport: a worker thread owning a [`ShardWorker`], driven
/// over a pair of in-process channels, one channel message per hand-off
/// each way. The only shared memory between the controller and the
/// worker is the channel itself (plus the observability-only
/// [`SharedTelemetry`] cell) — state crosses the boundary exclusively as
/// [`CtrlMsg`] / [`ShardMsg`] values, which is what the `prop_dist`
/// equivalence tests rely on.
pub struct ChannelLink<P> {
    worker: u32,
    tx: Option<mpsc::Sender<Requests<P>>>,
    rx: mpsc::Receiver<Replies<P>>,
    /// Requests queued since the last hand-off.
    queue: Vec<CtrlMsg<P>>,
    /// Hand-offs the worker has not answered yet.
    in_flight: usize,
    /// Replies received and not yet returned by `recv`.
    replies: VecDeque<ShardMsg<P>>,
    /// The emptied reply buffer that rides along with the next hand-off.
    spare: Vec<ShardMsg<P>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<P> fmt::Debug for ChannelLink<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelLink")
            .field("worker", &self.worker)
            .field("alive", &self.tx.is_some())
            .finish()
    }
}

impl<P> ChannelLink<P> {
    /// Spawns a shard-worker thread over its own database and returns the
    /// controller's end of the link.
    pub fn spawn<S: Space<Pos = P>>(
        id: u32,
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        history: bool,
        telemetry: SharedTelemetry,
    ) -> Self
    where
        P: Send + 'static,
    {
        let (tx, worker_rx) = mpsc::channel::<Requests<P>>();
        let (worker_tx, rx) = mpsc::channel::<Replies<P>>();
        let handle = std::thread::Builder::new()
            .name(format!("aim-dist-{id}"))
            .spawn(move || {
                let mut worker = ShardWorker::new(id, space, params, db, history, telemetry);
                while let Ok((mut requests, mut replies)) = worker_rx.recv() {
                    let shutdown = requests.iter().any(|m| matches!(m, CtrlMsg::Shutdown));
                    worker.handle_all(requests.drain(..), &mut replies);
                    if worker_tx.send((replies, requests)).is_err() || shutdown {
                        break;
                    }
                }
            })
            .expect("spawn shard worker thread");
        ChannelLink {
            worker: id,
            tx: Some(tx),
            rx,
            queue: Vec::new(),
            in_flight: 0,
            replies: VecDeque::new(),
            spare: Vec::new(),
            handle: Some(handle),
        }
    }

    fn severed(&self) -> StoreError {
        StoreError::Codec(format!("shard worker {} link severed", self.worker))
    }
}

impl<P: Send> WorkerLink<P> for ChannelLink<P> {
    fn send(&mut self, msg: CtrlMsg<P>) -> Result<(), StoreError> {
        self.queue.push(msg);
        Ok(())
    }

    fn hand_off(&mut self) -> Result<(), StoreError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let requests = std::mem::take(&mut self.queue);
        let spare = std::mem::take(&mut self.spare);
        self.tx
            .as_ref()
            .ok_or_else(|| self.severed())?
            .send((requests, spare))
            .map_err(|_| self.severed())?;
        self.in_flight += 1;
        Ok(())
    }

    fn recv(&mut self) -> Result<ShardMsg<P>, StoreError> {
        loop {
            if let Some(reply) = self.replies.pop_front() {
                return Ok(reply);
            }
            self.hand_off()?;
            if self.in_flight == 0 {
                return Err(StoreError::Codec(format!(
                    "shard worker {} owes no reply",
                    self.worker
                )));
            }
            let (mut replies, requests) = self.rx.recv().map_err(|_| self.severed())?;
            self.in_flight -= 1;
            self.replies.extend(replies.drain(..));
            self.spare = replies;
            if self.queue.capacity() == 0 {
                self.queue = requests;
            }
        }
    }
}

impl<P> Drop for ChannelLink<P> {
    fn drop(&mut self) {
        // Closing the request channel stops the worker loop; its database
        // outlives it (the controller holds the other Arc), so a dropped
        // link models a crash the Recover message can heal from.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A dead link: every operation fails. [`crate::dist::DistTracker`]
/// installs one when a worker is killed, until the worker is respawned
/// from its retained database.
#[derive(Debug)]
pub struct SeveredLink {
    worker: u32,
}

impl SeveredLink {
    /// A severed link for worker `worker`.
    pub fn new(worker: u32) -> Self {
        SeveredLink { worker }
    }
}

/// The error every operation through a dead worker fails with.
pub(super) fn worker_down(worker: u32) -> StoreError {
    StoreError::Codec(format!("shard worker {worker} is down"))
}

impl<P: Send> WorkerLink<P> for SeveredLink {
    fn send(&mut self, _msg: CtrlMsg<P>) -> Result<(), StoreError> {
        Err(worker_down(self.worker))
    }

    fn hand_off(&mut self) -> Result<(), StoreError> {
        Err(worker_down(self.worker))
    }

    fn recv(&mut self) -> Result<ShardMsg<P>, StoreError> {
        Err(worker_down(self.worker))
    }
}
