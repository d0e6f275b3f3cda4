//! The shard worker, and the store core every tracker writes through.
//!
//! [`Records`] is the one writer of the authoritative record layout —
//! `dagt ‖ agent` per agent, immutable `dhst ‖ step ‖ agent` history,
//! the `dep:commits` counter and the `dep:hist_floor` watermark: a batch
//! of moves as one transaction, the history rewrite of a squash, and
//! eviction. It keeps no node state; each agent's prior step comes from
//! its caller. [`crate::depgraph::DepGraph`] queues its calls in it, with
//! prior steps from its mirror, and it writes them on the graph's own
//! store a window at a time (see its [`Sink`] impl); a [`ShardWorker`]
//! calls it on **its own [`Db`] instance** for each hand-off, with prior
//! steps from its member table.
//!
//! Around that core a worker is a protocol shell: its members' states,
//! the gathering of a hand-off into write batches
//! ([`ShardWorker::handle_all`] applies each run of consecutive commits
//! as one batch), replies, telemetry, heartbeats, and the departure
//! index — the steps of each agent's history records, so a departure
//! reads only its own. It keeps no spatial index: the one query it
//! answers, [`CtrlMsg::RelinkQuery`], scans the members, and nothing
//! but the wire tests sends it.
//! Nothing is shared with other workers or with the controller: every
//! state transfer is a protocol message, which is what lets phase 2 move
//! a worker out of process behind the socket transport.
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

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use aim_store::{codec, Db, Key, StoreError};

use crate::edges::{edges_of, Mirror, Node, Sink};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::space::Space;
use crate::telemetry::{BoundaryOp, Counter, SpanKind, Telemetry};

use super::msg::{CtrlMsg, NodeRecord, Probe, ShardMsg, WireEdge};
use super::WINDOW;

/// Namespace tag of the per-agent node records (`Key::tagged_u32`).
const AGENT_TAG: [u8; 4] = *b"dagt";

/// Namespace tag of the per-step history records
/// (`Key::tagged_u32_pair(HIST_TAG, step, agent)`). Step-major layout:
/// an ordered prefix walk visits history oldest-step-first, so the
/// eviction pass stops touching records at the first retained step.
const HIST_TAG: [u8; 4] = *b"dhst";

/// Store key of the history-eviction watermark: every history record at a
/// step `< dep:hist_floor` has been compacted away.
const HIST_FLOOR_KEY: &str = "dep:hist_floor";

/// One agent's move: `(agent, prior step, step, position)`. A step at or
/// below the prior one rewinds the agent (a squash).
pub(crate) type Move<P> = (u32, u32, u32, P);

/// The store core (see the [module docs](self)): one store's
/// authoritative records, written in the one layout.
#[derive(Debug)]
pub struct Records<S: Space> {
    pub(crate) space: Arc<S>,
    pub(crate) db: Arc<Db>,
    /// Whether each record is also written as a history record.
    pub(crate) history: bool,
    /// The write path's state. The quiesce points lock it to land the
    /// queue, which lets the store readers do so through `&self`; the
    /// write paths reach it through `get_mut`.
    writer: Mutex<Writer<S::Pos>>,
}

/// What a [`Records`] keeps between writes: interned keys, scratch, and
/// the in-process sink's queue.
#[derive(Debug)]
struct Writer<P> {
    /// Interned `dagt` key per agent id, each interned on its first write
    /// (allocation-free write path).
    keys: Vec<Option<Key>>,
    commits_key: Key,
    /// Reused scratch the records are encoded in before being copied out.
    buf: BytesMut,
    /// Reused scratch of a batch: per agent, the index of its last move.
    last: Vec<u32>,
    /// The moves of every call the in-process sink has accepted and not
    /// yet written, in call order.
    queue: Vec<Move<P>>,
    /// How many calls `queue` holds.
    calls: usize,
    /// How many of them were advances: what landing adds to
    /// `dep:commits`.
    commits: i64,
}

impl<P: Copy> Writer<P> {
    /// See [`Records::write_moves`].
    fn write_moves<S: Space<Pos = P>>(
        &mut self,
        space: &S,
        db: &Db,
        history: bool,
        moves: &[Move<P>],
        commits: i64,
    ) -> Result<(), StoreError> {
        let Writer {
            keys,
            commits_key,
            buf,
            last,
            ..
        } = self;
        for (i, &(a, ..)) in moves.iter().enumerate() {
            if a as usize >= last.len() {
                last.resize(a as usize + 1, 0);
            }
            last[a as usize] = i as u32;
        }
        db.transaction(|txn| {
            for (i, &(a, prior, step, pos)) in moves.iter().enumerate() {
                let superseded = last[a as usize] != i as u32;
                if history {
                    let value = encode_record(space, buf, step, pos);
                    if !superseded {
                        txn.set_key(key(keys, a), value.clone());
                    }
                    txn.set_key(&history_key(step, a), value);
                    for squashed in step + 1..=prior {
                        txn.del(history_key(squashed, a));
                    }
                } else if !superseded {
                    txn.set_key(key(keys, a), encode_record(space, buf, step, pos));
                }
            }
            if commits > 0 {
                txn.incr_key(commits_key, commits)?;
            }
            Ok(())
        })
    }

    /// Writes the queue as one batch and empties it. On an error nothing
    /// is written and the queue is kept.
    fn land<S: Space<Pos = P>>(
        &mut self,
        space: &S,
        db: &Db,
        history: bool,
    ) -> Result<(), StoreError> {
        if self.calls == 0 {
            return Ok(());
        }
        let queue = std::mem::take(&mut self.queue);
        let landed = self.write_moves(space, db, history, &queue, self.commits);
        self.queue = queue;
        if landed.is_ok() {
            self.queue.clear();
            self.calls = 0;
            self.commits = 0;
        }
        landed
    }
}

impl<S: Space> Records<S> {
    /// The core over `db`, with the keys of agents `0..agents` interned.
    pub(crate) fn new(space: Arc<S>, db: Arc<Db>, history: bool, agents: u32) -> Self {
        let writer = Writer {
            keys: (0..agents)
                .map(|a| Some(Key::tagged_u32(AGENT_TAG, a)))
                .collect(),
            commits_key: Key::new("dep:commits"),
            buf: BytesMut::new(),
            last: Vec::new(),
            queue: Vec::new(),
            calls: 0,
            commits: 0,
        };
        Records {
            space,
            db,
            history,
            writer: Mutex::new(writer),
        }
    }

    /// Writes every agent of `initial` at step 0, with both counters at
    /// zero: a new tracker's store.
    pub(crate) fn open(&mut self, initial: &[S::Pos]) -> Result<(), StoreError> {
        let moves: Vec<Move<S::Pos>> = (initial.iter().enumerate())
            .map(|(a, &pos)| (a as u32, 0, 0, pos))
            .collect();
        self.write_moves(&moves, 0)?;
        self.db.set_i64("dep:commits", 0);
        if self.history {
            self.db.set_i64(HIST_FLOOR_KEY, 0);
        }
        Ok(())
    }

    /// Writes `moves` as one batch and adds `commits` (when positive) to
    /// `dep:commits`. Each agent's record is replaced by its last move;
    /// with history, each move's history record at the new step is
    /// written too, and a move back rewrites history: the target step's
    /// record is replaced (its position may differ from the first visit)
    /// and the record of every step it discards is deleted, so history
    /// only ever describes committed, non-squashed state. The batch
    /// allocates once per record it writes (a move superseded by its
    /// agent's later move writes none without history), once for the
    /// counter's new value, and nothing else. On an error nothing is
    /// written.
    pub(crate) fn write_moves(
        &mut self,
        moves: &[Move<S::Pos>],
        commits: i64,
    ) -> Result<(), StoreError> {
        let writer = self.writer.get_mut();
        writer.write_moves(&*self.space, &self.db, self.history, moves, commits)
    }

    /// Writes every queued move: a quiesce point of the in-process sink.
    /// On an error the queue is kept, unwritten.
    pub(crate) fn settle(&self) -> Result<(), StoreError> {
        (self.writer.lock()).land(&*self.space, &self.db, self.history)
    }

    /// Writes every record of `records` — each agent's current state and
    /// the history it brings — as one batch.
    fn adopt(&mut self, records: &[NodeRecord<S::Pos>]) -> Result<(), StoreError> {
        let Writer { keys, buf, .. } = self.writer.get_mut();
        let space = &*self.space;
        self.db.transaction(|txn| {
            for r in records {
                let value = encode_record(space, buf, r.step, r.pos);
                txn.set_key(key(keys, r.agent), value);
                for &(step, pos) in &r.history {
                    let value = encode_record(space, buf, step, pos);
                    txn.set_key(&history_key(step, r.agent), value);
                }
            }
            Ok(())
        })
    }

    /// Deletes the records of `agents` and the `history` records (keys
    /// from [`history_key`]) as one batch.
    fn delete(&mut self, agents: &[u32], history: &[Key]) -> Result<(), StoreError> {
        let keys = &mut self.writer.get_mut().keys;
        self.db.transaction(|txn| {
            for &a in agents {
                txn.del(key(keys, a));
            }
            for key in history {
                txn.del(key);
            }
            Ok(())
        })
    }

    /// Reads agent `a`'s record; [`StoreError::Codec`] if it is missing
    /// or malformed.
    pub(crate) fn load(&self, a: u32) -> Result<(Step, S::Pos), StoreError> {
        let missing = || StoreError::Codec(format!("missing record for agent {a}"));
        self.read(&Key::tagged_u32(AGENT_TAG, a))?
            .ok_or_else(missing)
    }

    /// Agent `a`'s history record at `step`, if it is resident;
    /// [`StoreError::Codec`] if it is malformed.
    pub(crate) fn history_at(
        &self,
        step: u32,
        a: u32,
    ) -> Result<Option<(Step, S::Pos)>, StoreError> {
        self.read(&history_key(step, a))
    }

    /// The record at `key`, if any; [`StoreError::Codec`] if it is
    /// malformed.
    fn read(&self, key: &Key) -> Result<Option<(Step, S::Pos)>, StoreError> {
        let raw = self.db.get(key);
        raw.map(|raw| decode_record(&*self.space, raw)).transpose()
    }

    /// Deletes every history record below step `floor` and raises the
    /// watermark to it, returning how many went. Keys sort step-major, so
    /// the deletes stop at the first retained step (the scan itself still
    /// visits the store's keys once). Call it from a quiesced writer: the
    /// scan and the deletes are not one batch.
    pub(crate) fn evict_below(&self, floor: u32) -> u64 {
        let mut evicted = 0u64;
        for (k, _) in self.db.scan_prefix(HIST_TAG) {
            let step = u32::from_be_bytes(k[4..8].try_into().expect("12-byte history key"));
            if step >= floor {
                break;
            }
            self.db.del(&k);
            evicted += 1;
        }
        self.db.set_i64(HIST_FLOOR_KEY, i64::from(floor));
        evicted
    }
}

impl<S: Space> Drop for Records<S> {
    fn drop(&mut self) {
        // Quiesce: every write a call returned for reaches the store. A
        // queue that cannot land (its counter is not an integer) is lost
        // with the tracker.
        let _ = self.settle();
    }
}

/// The in-process sink. It writes behind, by [`super::WINDOW`] calls
/// like a [`crate::dist::DistTracker`] lane but without the thread: each
/// call's moves are queued, each agent's prior step read from the
/// mirror, and the queue lands as one write batch once it holds `WINDOW`
/// calls, or at a quiesce point — the store readers (`DepGraph::db`,
/// `commits`, `history_records`, `history_at`), a history eviction
/// (before its walk), the invariant check and `Drop`. A call whose
/// window fails to land (only a `dep:commits` value that is not an
/// integer fails it) returns `Err` with its own moves withdrawn; the
/// earlier calls' stay queued.
impl<S: Space> Sink<S> for Records<S> {
    fn history(&self) -> bool {
        self.history
    }

    fn write(
        &mut self,
        mirror: &Mirror<S>,
        targets: &[(AgentId, Step, S::Pos)],
        commit: bool,
    ) -> Result<(), StoreError> {
        let writer = self.writer.get_mut();
        let mark = writer.queue.len();
        let moves = (targets.iter()).map(|&(a, step, pos)| (a.0, mirror.step(a).0, step.0, pos));
        writer.queue.extend(moves);
        writer.calls += 1;
        writer.commits += i64::from(commit);
        if writer.calls < WINDOW {
            return Ok(());
        }
        let landed = writer.land(&*self.space, &self.db, self.history);
        if landed.is_err() {
            writer.queue.truncate(mark);
            writer.calls -= 1;
            writer.commits -= i64::from(commit);
        }
        landed
    }

    /// Read from the store, so it survives snapshot and restore.
    fn floor(&self) -> Result<u32, StoreError> {
        floor_of(&self.db)
    }

    fn evict(&mut self, floor: u32) -> Result<u64, StoreError> {
        self.settle()?;
        Ok(self.evict_below(floor))
    }

    /// The graph's store, once the queue has landed. A queue that cannot
    /// land stays queued, and the store is returned without it.
    fn stores(&self) -> &[Arc<Db>] {
        let _ = self.settle();
        std::slice::from_ref(&self.db)
    }

    /// Every agent's record, once the queue has landed.
    fn states(&self, mirror: &Mirror<S>) -> Result<Vec<(Step, S::Pos)>, StoreError> {
        self.settle()?;
        (0..mirror.len() as u32).map(|a| self.load(a)).collect()
    }
}

/// The eviction watermark stored in `db`.
pub(super) fn floor_of(db: &Db) -> Result<u32, StoreError> {
    Ok(db.get_i64(HIST_FLOOR_KEY)?.max(0) as u32)
}

/// The count of committed advances stored in `db`.
pub(crate) fn commits_of(db: &Db) -> i64 {
    db.get_i64("dep:commits").unwrap_or(0)
}

/// Number of history records resident in `db` (an O(history) scan —
/// diagnostics and tests, not a hot path).
pub(crate) fn history_records_of(db: &Db) -> u64 {
    db.scan_prefix(HIST_TAG).len() as u64
}

/// The key of agent `a`'s history record at `step`.
fn history_key(step: u32, a: u32) -> Key {
    Key::tagged_u32_pair(HIST_TAG, step, a)
}

/// Agent `a`'s interned record key, interned on first use.
fn key(keys: &mut Vec<Option<Key>>, a: u32) -> &Key {
    if a as usize >= keys.len() {
        keys.resize(a as usize + 1, None);
    }
    keys[a as usize].get_or_insert_with(|| Key::tagged_u32(AGENT_TAG, a))
}

/// Encodes one `(step, pos)` state in the record layout. `buf` is
/// scratch: the record is built in it and copied out once, so a caller
/// that keeps `buf` around pays exactly one allocation per record — the
/// stored value.
fn encode_record<S: Space>(space: &S, buf: &mut BytesMut, step: u32, pos: S::Pos) -> Bytes {
    buf.clear();
    codec::put_u32(buf, step);
    space.encode_pos(pos, buf);
    Bytes::copy_from_slice(buf)
}

/// Decodes a record written by [`encode_record`].
fn decode_record<S: Space>(space: &S, mut raw: Bytes) -> Result<(Step, S::Pos), StoreError> {
    let step = Step(codec::get_u32(&mut raw)?);
    Ok((step, space.decode_pos(&mut raw)?))
}

/// A generation-counted slot for the controller's in-process telemetry
/// sink: set by the tracker's
/// [`crate::depgraph::DepTracker::set_telemetry`] (and cleared on
/// teardown), observed by workers. The generation counter lets a
/// worker cache the `Arc` locally and refresh with a single relaxed
/// atomic load per hand-off — the mutex is touched only when the sink
/// actually changes, keeping the lock off the hot path (`dist/handle` in
/// the bench suite pins this).
#[derive(Debug, Default)]
pub struct TelemetryCell {
    generation: AtomicU64,
    sink: Mutex<Option<Arc<Telemetry>>>,
}

impl TelemetryCell {
    /// Installs (or clears) the shared sink, bumping the generation so
    /// workers refresh their cached copy on their next hand-off.
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

/// The controller's telemetry sink as seen by workers: filled in by the
/// tracker's [`crate::depgraph::DepTracker::set_telemetry`], cached per
/// worker via the cell's generation counter. Observability-only — the message protocol
/// remains the sole channel for simulation state.
pub type SharedTelemetry = Arc<TelemetryCell>;

/// One side of the message boundary: how the controller reaches a shard
/// worker. Phase 1 is the in-process [`ChannelLink`]; phase 2 adds the
/// socket transport ([`super::socket`]).
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

/// One member's committed state.
struct Member<P> {
    pos: P,
    step: u32,
}

/// An isolated shard worker (see the [module docs](super)): a protocol
/// shell around the store core that writes the records of its own
/// database.
pub struct ShardWorker<S: Space> {
    id: u32,
    params: RuleParams,
    store: Records<S>,
    members: HashMap<u32, Member<S::Pos>>,
    /// The ascending steps of every `dhst` record in the store, per agent —
    /// members or not: a resync can leave a stub's history in the store.
    /// Kept equal to the store by every write the worker makes, and
    /// rebuilt from it by [`CtrlMsg::Recover`].
    history_steps: HashMap<u32, Vec<u32>>,
    /// The highest member step, or `None` after a write may have moved
    /// it (the next heartbeat recomputes it from the members).
    top_step: Option<u32>,
    telemetry: SharedTelemetry,
    /// Cached copy of the shared sink, refreshed when the cell's
    /// generation counter changes — keeps the cell's mutex off the
    /// per-hand-off path.
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
    /// The run of commits being gathered, reused across hand-offs.
    run: Vec<Vec<(u32, S::Pos)>>,
    /// The moves of the batch being written, reused.
    moves: Vec<Move<S::Pos>>,
    /// Reused id buffer: relink candidates and the named-twice check.
    scratch: Vec<u32>,
}

impl<S: Space> fmt::Debug for ShardWorker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardWorker")
            .field("id", &self.id)
            .field("members", &self.members.len())
            .field("history", &self.store.history)
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
        let local = Arc::new(Telemetry::new());
        local.set_enabled(false); // armed by the first HarvestTelemetry
        ShardWorker {
            id,
            params,
            store: Records::new(space, db, history, 0),
            members: HashMap::new(),
            history_steps: HashMap::new(),
            top_step: None,
            telemetry,
            cached_sink: None,
            cached_generation: 0,
            local,
            harvest_cursor: Vec::new(),
            harvest_counters: [0; Counter::ALL.len()],
            handled: 0,
            run: Vec::new(),
            moves: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// This worker's shard id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The space this worker's positions live in (used by byte
    /// transports to encode and decode protocol frames).
    pub fn space(&self) -> &Arc<S> {
        &self.store.space
    }

    /// Applies one hand-off: every request in order, one reply each,
    /// appended to `replies`.
    ///
    /// Each run of consecutive [`CtrlMsg::Commit`]s is one write batch,
    /// which bumps `dep:commits` by the run's length and is recorded as
    /// one apply span covering that many messages. The run's requests
    /// are checked in order first: if request k is refused, requests
    /// `0..k` commit and are answered [`ShardMsg::Done`], and request k
    /// is answered [`ShardMsg::Failed`] with its own error. If the store
    /// refuses the batch, every request of the run is answered `Failed`
    /// and none is applied.
    ///
    /// The hand-off **stops at its first failure** — once a request is
    /// answered `Failed`, nothing further from this hand-off is applied
    /// and every remaining request is answered `Failed` too, so a request
    /// can never run behind a refused one it was queued after (a
    /// [`CtrlMsg::Depart`] behind its `Commit`).
    pub fn handle_all(
        &mut self,
        requests: impl IntoIterator<Item = CtrlMsg<S::Pos>>,
        replies: &mut Vec<ShardMsg<S::Pos>>,
    ) {
        self.refresh_sink();
        let mut run = std::mem::take(&mut self.run);
        let mut failed = false;
        for msg in requests {
            if failed {
                self.handled += 1;
                replies.push(self.not_applied());
                continue;
            }
            match msg {
                CtrlMsg::Commit { updates } => run.push(updates),
                msg => {
                    failed = self.commit_run(&mut run, replies);
                    let reply = if failed {
                        self.handled += 1;
                        self.not_applied()
                    } else {
                        self.apply(msg)
                    };
                    failed = matches!(reply, ShardMsg::Failed { .. });
                    replies.push(reply);
                }
            }
        }
        self.commit_run(&mut run, replies);
        self.run = run;
    }

    /// Applies one request and produces its reply: a hand-off of one.
    /// Failures are returned as [`ShardMsg::Failed`] (the worker never
    /// panics on protocol input); a failed request commits nothing.
    pub fn handle(&mut self, msg: CtrlMsg<S::Pos>) -> ShardMsg<S::Pos> {
        if !matches!(msg, CtrlMsg::Commit { .. }) {
            self.refresh_sink();
            return self.apply(msg);
        }
        let mut replies = Vec::with_capacity(1);
        self.handle_all([msg], &mut replies);
        replies.pop().expect("one reply per request")
    }

    /// Picks up a change of the shared sink: one relaxed-cost atomic
    /// load, and the cell's mutex only when the sink actually changed.
    fn refresh_sink(&mut self) {
        let generation = self.telemetry.generation();
        if generation != self.cached_generation {
            self.cached_sink = self.telemetry.get();
            self.cached_generation = generation;
        }
    }

    /// The reply to a request behind a failed one of its hand-off.
    fn not_applied(&self) -> ShardMsg<S::Pos> {
        ShardMsg::Failed {
            message: format!(
                "worker {}: not applied, an earlier request of the hand-off failed",
                self.id
            ),
        }
    }

    fn failed(&self, e: &StoreError) -> ShardMsg<S::Pos> {
        ShardMsg::Failed {
            message: format!("worker {}: {e}", self.id),
        }
    }

    /// The sink apply spans go to: the controller's when shared, else the
    /// worker's own buffer.
    fn sink(&self) -> &Telemetry {
        self.cached_sink.as_deref().unwrap_or(&self.local)
    }

    /// Closes the apply span opened at `t0`, covering `messages` requests.
    fn record_apply(&self, t0: Option<u64>, messages: u32) {
        let Some(t0) = t0 else {
            return;
        };
        let sink = self.sink();
        sink.record(
            t0,
            SpanKind::Boundary {
                worker: self.id,
                op: BoundaryOp::Apply,
                messages,
            },
        );
        if self.cached_sink.is_none() {
            // The controller counts boundary messages on its side of a
            // shared sink; only the wire-harvested local buffer must
            // count its own.
            sink.counter_add(Counter::BoundaryMessages, u64::from(messages));
        }
    }

    /// Applies one request other than a commit.
    fn apply(&mut self, msg: CtrlMsg<S::Pos>) -> ShardMsg<S::Pos> {
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
        let t0 = self.sink().start();
        let reply = match self.dispatch(msg) {
            Ok(reply) => reply,
            Err(e) => self.failed(&e),
        };
        self.record_apply(t0, 1);
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

    /// Answers a liveness poll from the members alone (no database
    /// access; protocol invariant 4). `last_step` is the highest applied
    /// member step — `u32::MAX` flags an empty worker.
    fn heartbeat(&mut self) -> ShardMsg<S::Pos> {
        let members = &self.members;
        let last_step = *self
            .top_step
            .get_or_insert_with(|| members.values().map(|m| m.step).max().unwrap_or(u32::MAX));
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
            CtrlMsg::Commit { .. } => unreachable!("commits are applied in runs by handle_all"),
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
            // Normally intercepted in `apply` (before the Apply-span
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
            .map(|(&a, m)| (a, m.step, m.pos))
            .collect();
        out.sort_unstable_by_key(|&(a, _, _)| a);
        out
    }

    /// The member `a`, or a protocol error naming it.
    fn member(&self, a: u32) -> Result<&Member<S::Pos>, StoreError> {
        self.members
            .get(&a)
            .ok_or_else(|| StoreError::Codec(format!("agent {a} is not a member")))
    }

    /// Refuses a request that names one agent twice: its writes would
    /// disagree with each other.
    fn check_distinct(&mut self, agents: impl Iterator<Item = u32>) -> Result<(), StoreError> {
        let ids = &mut self.scratch;
        ids.clear();
        ids.extend(agents);
        ids.sort_unstable();
        match ids.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(StoreError::Codec(format!("agent {} is named twice", w[0]))),
            None => Ok(()),
        }
    }

    /// Applies the gathered run of commits (see
    /// [`ShardWorker::handle_all`]), appends one reply per commit and
    /// empties `run`. Returns whether any of them failed.
    fn commit_run(
        &mut self,
        run: &mut Vec<Vec<(u32, S::Pos)>>,
        replies: &mut Vec<ShardMsg<S::Pos>>,
    ) -> bool {
        if run.is_empty() {
            return false;
        }
        let n = run.len();
        self.handled += n as u64;
        let t0 = self.sink().start();
        let mut refused = None;
        for (k, updates) in run.iter().enumerate() {
            let known = updates
                .iter()
                .try_for_each(|&(a, _)| self.member(a).map(drop));
            if let Err(e) = known.and_then(|()| self.check_distinct(updates.iter().map(|u| u.0))) {
                refused = Some((k, e));
                break;
            }
        }
        let valid = refused.as_ref().map_or(n, |&(k, _)| k);
        let updates = run[..valid]
            .iter()
            .flatten()
            .map(|&(a, pos)| (a, None, pos));
        let written = match valid {
            0 => Ok(()),
            _ => self.write(updates, valid as i64),
        };
        let failed = match written {
            Ok(()) => {
                replies.extend((0..valid).map(|_| ShardMsg::Done));
                if let Some((_, e)) = &refused {
                    replies.push(self.failed(e));
                    replies.extend((valid + 1..n).map(|_| self.not_applied()));
                }
                refused.is_some()
            }
            Err(e) => {
                replies.extend((0..n).map(|_| self.failed(&e)));
                true
            }
        };
        self.record_apply(t0, n as u32);
        run.clear();
        failed
    }

    fn rollback(&mut self, updates: &[(u32, u32, S::Pos)]) -> Result<(), StoreError> {
        // A refused update fails the whole batch, so nothing is written.
        for &(a, step, _) in updates {
            let current = self.member(a)?.step;
            if step > current {
                return Err(StoreError::Codec(format!(
                    "rollback of agent {a} to step {step} is ahead of current {current}"
                )));
            }
        }
        self.check_distinct(updates.iter().map(|u| u.0))?;
        self.write(
            updates.iter().map(|&(a, step, pos)| (a, Some(step), pos)),
            0,
        )
    }

    /// Moves members through the store core as one batch, adding
    /// `commits` to the store's count: each `(agent, step, position)` to
    /// its step, or — `None`, a commit — to the step after its current
    /// one, so a later commit of a run builds on an earlier one. Once the
    /// batch lands the history index follows it; on an error nothing is
    /// written and memory is left as it was.
    fn write(
        &mut self,
        updates: impl Iterator<Item = (u32, Option<u32>, S::Pos)>,
        commits: i64,
    ) -> Result<(), StoreError> {
        let (mut moves, mut result) = (std::mem::take(&mut self.moves), Ok(()));
        moves.clear();
        for (a, to, pos) in updates {
            let m = self.members.get_mut(&a).expect("the request names members");
            let Some(step) = to.or(m.step.checked_add(1)) else {
                let e = format!("agent {a} has no step after {}", m.step);
                result = Err(StoreError::Codec(e));
                break;
            };
            moves.push((a, m.step, step, pos));
            m.step = step;
        }
        result = result.and_then(|()| self.store.write_moves(&moves, commits));
        match result {
            Ok(()) => {
                for &(a, prior, step, pos) in &moves {
                    self.members.get_mut(&a).expect("moves name members").pos = pos;
                    if self.store.history {
                        let steps = self.history_steps.entry(a).or_default();
                        insert_step(steps, step);
                        if prior > step {
                            let squashed = steps.partition_point(|&s| s <= step)
                                ..steps.partition_point(|&s| s <= prior);
                            steps.drain(squashed);
                        }
                    }
                }
            }
            Err(_) => {
                for &(a, prior, _, _) in moves.iter().rev() {
                    self.members.get_mut(&a).expect("moves name members").step = prior;
                }
            }
        }
        self.top_step = None;
        self.moves = moves;
        result
    }

    /// Removes the members `agents` and returns their records, reading
    /// only their own history records (the index names each one).
    fn depart(&mut self, agents: &[u32]) -> Result<Vec<NodeRecord<S::Pos>>, StoreError> {
        for &a in agents {
            self.member(a)?; // validate the whole batch before mutating
        }
        self.check_distinct(agents.iter().copied())?;
        let mut records = Vec::with_capacity(agents.len());
        let mut doomed = Vec::new();
        for &a in agents {
            let m = &self.members[&a];
            let mut history = Vec::new();
            let steps = self.history_steps.get(&a).filter(|_| self.store.history);
            for &step in steps.into_iter().flatten() {
                let key = history_key(step, a);
                let (_, pos) = self.store.read(&key)?.ok_or_else(|| {
                    StoreError::Codec(format!("agent {a} has no history record at step {step}"))
                })?;
                history.push((step, pos));
                doomed.push(key);
            }
            records.push(NodeRecord {
                agent: a,
                step: m.step,
                pos: m.pos,
                history,
            });
        }
        self.store.delete(agents, &doomed)?;
        for &a in agents {
            self.members.remove(&a);
            self.history_steps.remove(&a);
        }
        self.top_step = None;
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
        self.check_distinct(records.iter().map(|r| r.agent))?;
        self.store.adopt(&records)?;
        for r in records {
            if !r.history.is_empty() {
                let steps = self.history_steps.entry(r.agent).or_default();
                for &(step, _) in &r.history {
                    insert_step(steps, step);
                }
            }
            let (pos, step) = (r.pos, r.step);
            self.members.insert(r.agent, Member { pos, step });
        }
        self.top_step = None;
        Ok(())
    }

    /// Answers relink probes with the exact rule edges between each probe
    /// and this worker's members — the edge engine's pair classification
    /// over every member, in ascending id order.
    fn relink(&mut self, probes: &[Probe<S::Pos>]) -> Vec<WireEdge> {
        let mut out = Vec::new();
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        ids.extend(self.members.keys());
        ids.sort_unstable();
        let node = |c: u32| {
            let m = &self.members[&c];
            Node {
                pos: m.pos,
                step: Step(m.step),
            }
        };
        for p in probes {
            let at = Node {
                pos: p.pos,
                step: Step(p.step),
            };
            edges_of(
                &*self.store.space,
                self.params,
                p.agent,
                at,
                &ids,
                node,
                &mut out,
            );
        }
        self.scratch = ids;
        out
    }

    fn evict_history(&mut self, floor: u32) -> u64 {
        if !self.store.history {
            return 0;
        }
        let removed = self.store.evict_below(floor);
        self.history_steps.retain(|_, steps| {
            steps.drain(..steps.partition_point(|&s| s < floor));
            !steps.is_empty()
        });
        removed
    }

    fn recover(&mut self, expected: &[u32]) -> Result<Vec<(u32, u32, S::Pos)>, StoreError> {
        self.members.clear();
        self.history_steps.clear();
        self.top_step = None;
        for &a in expected {
            let (Step(step), pos) = self.store.load(a)?;
            self.members.insert(a, Member { pos, step });
        }
        // Keys sort step-major, so each agent's steps arrive ascending.
        for (k, _) in self.store.db.scan_prefix(HIST_TAG) {
            let (step, a) = history_ids(&k)
                .ok_or_else(|| StoreError::Codec(format!("malformed history key {k:?}")))?;
            self.history_steps.entry(a).or_default().push(step);
        }
        Ok(self.states())
    }
}

/// Adds `step` to an ascending step list, unless it is there already.
fn insert_step(steps: &mut Vec<u32>, step: u32) {
    if let Err(at) = steps.binary_search(&step) {
        steps.insert(at, step);
    }
}

/// `(step, agent)` of a `dhst` key, or `None` if it is not 12 bytes.
fn history_ids(key: &[u8]) -> Option<(u32, u32)> {
    let ids: [u8; 8] = key.get(4..)?.try_into().ok()?;
    let (step, agent) = ids.split_at(4);
    Some((
        u32::from_be_bytes(step.try_into().ok()?),
        u32::from_be_bytes(agent.try_into().ok()?),
    ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};

    fn worker(history: bool) -> (ShardWorker<GridSpace>, Arc<Db>) {
        let db = Arc::new(Db::new());
        let space = Arc::new(GridSpace::new(16, 16));
        let params = RuleParams::new(2, 1);
        let w = ShardWorker::new(0, space, params, Arc::clone(&db), history, Arc::default());
        (w, db)
    }

    fn at(x: i32) -> Point {
        Point::new(x, x)
    }

    fn stub(agent: u32, step: u32) -> NodeRecord<Point> {
        NodeRecord {
            agent,
            step,
            pos: at(1),
            history: vec![],
        }
    }

    /// A worker whose members `0..n` arrived at step 0 with that
    /// step's history record.
    fn populated(n: u32) -> (ShardWorker<GridSpace>, Arc<Db>) {
        let (mut w, db) = worker(true);
        let records = (0..n)
            .map(|a| NodeRecord {
                history: vec![(0, at(1))],
                ..stub(a, 0)
            })
            .collect();
        assert_eq!(w.handle(CtrlMsg::Arrive { records }), ShardMsg::Done);
        (w, db)
    }

    fn is_failed(reply: &ShardMsg<Point>) -> bool {
        matches!(reply, ShardMsg::Failed { .. })
    }

    fn steps(w: &mut ShardWorker<GridSpace>) -> Vec<(u32, u32)> {
        match w.handle(CtrlMsg::Quiesce) {
            ShardMsg::Quiesced { states } => states.iter().map(|&(a, s, _)| (a, s)).collect(),
            other => panic!("expected Quiesced, got {other:?}"),
        }
    }

    fn commits(db: &Db) -> i64 {
        db.get_i64("dep:commits").unwrap()
    }

    fn load_record(space: &GridSpace, db: &Arc<Db>, a: u32) -> Result<(Step, Point), StoreError> {
        Records::new(Arc::new(space.clone()), Arc::clone(db), false, 0).load(a)
    }

    /// Every history record of `agent` in `db`, ascending by step, found
    /// by walking the whole store.
    fn walked_history(db: &Db, space: &GridSpace, agent: u32) -> Vec<(u32, Point)> {
        let mut out = Vec::new();
        for (k, v) in db.scan_prefix(HIST_TAG) {
            let (step, a) = history_ids(&k).expect("12-byte history key");
            if a == agent {
                out.push((step, decode_record(space, v).unwrap().1));
            }
        }
        out
    }

    /// The store's history keys as the index keeps them.
    fn stored_steps(db: &Db) -> HashMap<u32, Vec<u32>> {
        let mut out: HashMap<u32, Vec<u32>> = HashMap::new();
        for (k, _) in db.scan_prefix(HIST_TAG) {
            let (step, a) = history_ids(&k).expect("12-byte history key");
            out.entry(a).or_default().push(step);
        }
        out
    }

    #[test]
    fn a_commit_naming_an_agent_twice_is_refused() {
        let (mut w, db) = populated(1);
        let reply = w.handle(CtrlMsg::Commit {
            updates: vec![(0, at(2)), (0, at(3))],
        });
        assert!(is_failed(&reply), "{reply:?}");
        assert_eq!(steps(&mut w), vec![(0, 0)]);
        assert_eq!(commits(&db), 0);
        let reply = w.handle(CtrlMsg::Recover { expected: vec![0] });
        assert!(matches!(reply, ShardMsg::Recovered { states } if states[0].1 == 0));
    }

    #[test]
    fn a_depart_naming_an_agent_twice_is_refused() {
        let (mut w, db) = populated(1);
        let reply = w.handle(CtrlMsg::Depart { agents: vec![0, 0] });
        assert!(is_failed(&reply), "{reply:?}");
        assert_eq!(steps(&mut w), vec![(0, 0)]);
        assert_eq!(stored_steps(&db)[&0], vec![0]);
    }

    #[test]
    fn a_rollback_naming_an_agent_twice_is_refused() {
        let (mut w, db) = populated(1);
        for x in 2..4 {
            let reply = w.handle(CtrlMsg::Commit {
                updates: vec![(0, at(x))],
            });
            assert_eq!(reply, ShardMsg::Done);
        }
        let reply = w.handle(CtrlMsg::Rollback {
            updates: vec![(0, 0, at(5)), (0, 1, at(6))],
        });
        assert!(is_failed(&reply), "{reply:?}");
        assert_eq!(steps(&mut w), vec![(0, 2)]);
        assert_eq!(stored_steps(&db)[&0], vec![0, 1, 2]);
    }

    #[test]
    fn an_arrival_naming_an_agent_twice_is_refused() {
        let (mut w, db) = worker(true);
        let reply = w.handle(CtrlMsg::Arrive {
            records: vec![stub(4, 1), stub(4, 2)],
        });
        assert!(is_failed(&reply), "{reply:?}");
        assert!(steps(&mut w).is_empty());
        assert!(db.is_empty());
    }

    /// A refused commit ends its run: the commits before it land as one
    /// batch, it fails with its own error, and what follows is not
    /// applied.
    #[test]
    fn a_refused_commit_ends_the_run_after_the_commits_before_it() {
        let (mut w, db) = populated(1);
        let space = GridSpace::new(16, 16);
        let batches = db.stats().txn_commits;
        let mut replies = Vec::new();
        let hand_off = [
            CtrlMsg::Commit {
                updates: vec![(0, at(2))],
            },
            CtrlMsg::Commit {
                updates: vec![(9, at(3))],
            },
            CtrlMsg::Commit {
                updates: vec![(0, at(4))],
            },
        ];
        w.handle_all(hand_off, &mut replies);
        assert_eq!(replies[0], ShardMsg::Done);
        let messages: Vec<String> = replies[1..]
            .iter()
            .map(|r| match r {
                ShardMsg::Failed { message } => message.clone(),
                other => panic!("expected Failed, got {other:?}"),
            })
            .collect();
        assert!(
            messages[0].contains("agent 9 is not a member"),
            "{messages:?}"
        );
        assert!(messages[1].contains("not applied"), "{messages:?}");
        assert_eq!(steps(&mut w), vec![(0, 1)]);
        assert_eq!(load_record(&space, &db, 0).unwrap(), (Step(1), at(2)));
        assert_eq!(walked_history(&db, &space, 0), vec![(0, at(1)), (1, at(2))]);
        assert_eq!(commits(&db), 1);
        assert_eq!(db.stats().txn_commits, batches + 1);
    }

    #[test]
    fn a_window_of_commits_is_one_batch() {
        let (mut w, db) = populated(2);
        let batches = db.stats().txn_commits;
        let window = crate::dist::WINDOW as u32;
        let hand_off = (0..window).map(|i| CtrlMsg::Commit {
            updates: vec![(i % 2, at(i as i32 % 16))],
        });
        let mut replies = Vec::new();
        w.handle_all(hand_off, &mut replies);
        assert_eq!(replies, vec![ShardMsg::Done; window as usize]);
        assert_eq!(db.stats().txn_commits, batches + 1);
        assert_eq!(commits(&db), i64::from(window));
        assert_eq!(steps(&mut w), vec![(0, window / 2), (1, window / 2)]);
        assert_eq!(w.history_steps, stored_steps(&db));
    }

    /// A batch the store refuses fails every commit of its run and
    /// leaves memory where the store is.
    #[test]
    fn a_refused_batch_fails_its_whole_run() {
        let (mut w, db) = populated(1);
        db.set("dep:commits", b"not an integer".to_vec());
        let mut replies = Vec::new();
        let commit = || CtrlMsg::Commit {
            updates: vec![(0, at(2))],
        };
        w.handle_all([commit(), commit(), CtrlMsg::Quiesce], &mut replies);
        assert!(replies.iter().all(is_failed), "{replies:?}");
        assert_eq!(steps(&mut w), vec![(0, 0)]);
        assert_eq!(w.history_steps, stored_steps(&db));
    }

    /// The history index is the store: through a seeded churn of every
    /// operation that writes history — the resync's forget sequence
    /// included — the index names exactly the store's `dhst` keys, and
    /// every departure returns what a walk of the whole store finds.
    #[test]
    fn the_history_index_is_the_store() {
        const AGENTS: u32 = 6;
        let (mut w, db) = populated(AGENTS);
        let space = GridSpace::new(16, 16);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(n)) as u32
        };
        let mut departed = 0;
        for op in 0..10_000 {
            let mut members: Vec<u32> = w.members.keys().copied().collect();
            members.sort_unstable();
            let absent: Vec<u32> = (0..AGENTS).filter(|a| !w.members.contains_key(a)).collect();
            let reply = match rand(7) {
                0 | 1 if !members.is_empty() => {
                    let a = members[rand(members.len() as u32) as usize];
                    let b = members[rand(members.len() as u32) as usize];
                    let mut updates = vec![(a, at(rand(16) as i32))];
                    if b != a {
                        updates.push((b, at(rand(16) as i32)));
                    }
                    w.handle(CtrlMsg::Commit { updates })
                }
                2 if !members.is_empty() => {
                    let a = members[rand(members.len() as u32) as usize];
                    let step = rand(w.members[&a].step + 1);
                    w.handle(CtrlMsg::Rollback {
                        updates: vec![(a, step, at(rand(16) as i32))],
                    })
                }
                3 if !absent.is_empty() => {
                    let a = absent[rand(absent.len() as u32) as usize];
                    let step = rand(40);
                    let history = (0..rand(4)).map(|_| (rand(step + 3), at(2))).collect();
                    w.handle(CtrlMsg::Arrive {
                        records: vec![NodeRecord {
                            history,
                            ..stub(a, step)
                        }],
                    })
                }
                4 if !members.is_empty() => {
                    let a = members[rand(members.len() as u32) as usize];
                    let walked = walked_history(&db, &space, a);
                    let reply = w.handle(CtrlMsg::Depart { agents: vec![a] });
                    let ShardMsg::Departed { records } = &reply else {
                        panic!("op {op}: expected Departed, got {reply:?}");
                    };
                    assert_eq!(records[0].history, walked, "op {op}: agent {a}");
                    departed += 1;
                    reply
                }
                5 => {
                    let floor = members.iter().map(|a| w.members[a].step).min().unwrap_or(0);
                    let reply = w.handle(CtrlMsg::EvictHistory {
                        floor: rand(floor + 1),
                    });
                    assert!(
                        matches!(reply, ShardMsg::Evicted { .. }),
                        "op {op}: {reply:?}"
                    );
                    reply
                }
                _ if !members.is_empty() => {
                    // The resync's forget: rebuild without one member,
                    // adopt it as a stub at some step, then depart it.
                    let a = members[rand(members.len() as u32) as usize];
                    let expected = members.iter().copied().filter(|&m| m != a).collect();
                    let reply = w.handle(CtrlMsg::Recover { expected });
                    assert!(
                        matches!(reply, ShardMsg::Recovered { .. }),
                        "op {op}: {reply:?}"
                    );
                    assert_eq!(w.history_steps, stored_steps(&db), "op {op}: recovered");
                    let reply = w.handle(CtrlMsg::Arrive {
                        records: vec![stub(a, rand(40))],
                    });
                    assert_eq!(reply, ShardMsg::Done, "op {op}");
                    let walked = walked_history(&db, &space, a);
                    let reply = w.handle(CtrlMsg::Depart { agents: vec![a] });
                    let ShardMsg::Departed { records } = &reply else {
                        panic!("op {op}: expected Departed, got {reply:?}");
                    };
                    assert_eq!(records[0].history, walked, "op {op}: stub {a}");
                    departed += 1;
                    reply
                }
                _ => continue,
            };
            assert!(!is_failed(&reply), "op {op}: {reply:?}");
            assert_eq!(w.history_steps, stored_steps(&db), "op {op}");
        }
        assert!(departed > 1_000, "{departed} departures");
    }
}
