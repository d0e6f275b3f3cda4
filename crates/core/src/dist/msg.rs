//! The typed controller ↔ worker message protocol.
//!
//! These enums are the **entire** interface between the controller-side
//! [`crate::dist::DistTracker`] and a shard worker: no other state
//! crosses the boundary, which is what makes the channel transport of
//! phase 1 and the socket transport of phase 2 interchangeable. Every
//! variant is plain data (`u32` ids, raw steps, positions) so the whole
//! protocol serializes through the `AIMMSG v1` codec
//! ([`crate::dist::codec`]) without referencing in-process state.
//!
//! # Protocol invariants
//!
//! The exactness argument of [`crate::shard`]'s boundary-edge protocol
//! is made on the controller's mirror; the messages keep what it
//! assumes:
//!
//! 1. **Ownership is total and current.** Every agent is owned by
//!    exactly one worker. A commit ([`CtrlMsg::Commit`] /
//!    [`CtrlMsg::Rollback`]) is always sent to the agent's *current*
//!    owner (which holds its authoritative record); if the committed
//!    position crosses a shard boundary the controller moves the agent
//!    with a [`CtrlMsg::Depart`] (queued behind the commit, in the same
//!    hand-off) → [`ShardMsg::Departed`] → [`CtrlMsg::Arrive`]
//!    handshake, so a [`CtrlMsg::Quiesce`] queued after an operation
//!    finds each of its agents with exactly one worker.
//! 2. **Edges never cross the boundary.** The controller derives every
//!    edge from its own mirror, whose partition follows the workers'
//!    membership; the invariant check holds that mirror to the states
//!    the workers report ([`ShardMsg::Quiesced`]) and to a from-scratch
//!    rebuild over them. No run and no check sends
//!    [`CtrlMsg::RelinkQuery`]: it and its [`ShardMsg::Edges`] reply stay
//!    in the protocol only for the wire tests and the end-to-end
//!    benchmark's codec row.
//! 3. **Replies are complete, and a hand-off stops at its first
//!    failure.** Requests cross the boundary in *hand-offs*
//!    ([`crate::dist::WorkerLink`]): everything queued for one worker,
//!    delivered together, applied in order, answered together. Each
//!    request receives exactly one reply, in request order;
//!    [`ShardMsg::Failed`] is the only error channel, and the controller
//!    converts it into a store error rather than applying a partial
//!    result. Once a request of a hand-off has failed, the worker
//!    applies nothing further from that hand-off and answers each
//!    remaining request `Failed` as well — a `Depart` never runs behind
//!    the `Commit` it was queued after if that commit was refused.
//! 4. **Harvest never blocks commits, and drops are counted, never
//!    silent.** [`CtrlMsg::HarvestTelemetry`] is an ordinary
//!    request–reply on the same ordered stream — it never preempts,
//!    cancels, or delays protocol work, and a worker with nothing
//!    recorded answers with an empty [`ShardMsg::Telemetry`] rather
//!    than stalling. Spans the worker's fixed-size buffer overflowed
//!    before a harvest are reported in the reply's running `dropped`
//!    total, so observability loss is always visible in the merged
//!    report. [`CtrlMsg::Heartbeat`] follows the same discipline: an
//!    ordinary in-order request answered from gauges the worker
//!    maintains anyway ([`ShardMsg::Heartbeat`]), so liveness polling
//!    is cheap, never reorders protocol work, and a severed link shows
//!    up as a poll failure on the controller's health board rather
//!    than a hang.

/// One agent's authoritative state in transit between two workers (the
/// migration payload of [`ShardMsg::Departed`] / [`CtrlMsg::Arrive`]).
///
/// Carries everything the receiving worker must write into its own
/// database: the current `dagt` record plus every resident `dhst`
/// history record, so a migrated agent remains rollback-able and
/// recoverable from its *new* owner's store alone.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord<P> {
    /// Agent id.
    pub agent: u32,
    /// Current (next-to-execute) step.
    pub step: u32,
    /// Committed position.
    pub pos: P,
    /// Resident per-step history `(step, position)` records, if the run
    /// records history (empty otherwise).
    pub history: Vec<(u32, P)>,
}

/// One probe of a [`CtrlMsg::RelinkQuery`] (protocol invariant 2):
/// "which of your members have a rule edge with this agent?" It carries
/// the agent's committed state, so the worker needs no foreign lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe<P> {
    /// The relinking agent.
    pub agent: u32,
    /// Its committed (next-to-execute) step.
    pub step: u32,
    /// Its committed position.
    pub pos: P,
}

/// One derived edge: what the controller's edge engine emits, and what
/// a [`ShardMsg::Edges`] reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEdge {
    /// `true` for a same-step coupling edge `{a, b}`; `false` for a
    /// blocking edge where `a` (the lower-step agent) blocks `b`.
    pub coupled: bool,
    /// First endpoint (the blocker when `coupled` is `false`).
    pub a: u32,
    /// Second endpoint (the blocked agent when `coupled` is `false`).
    pub b: u32,
}

/// Controller → worker requests. Each request receives exactly one
/// [`ShardMsg`] reply, in request order; after the first
/// [`ShardMsg::Failed`] of a hand-off the rest of it is answered
/// `Failed` without being applied (protocol invariant 3).
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg<P> {
    /// Advance every `(agent, new_position)` by one step. Every agent
    /// must be a current member, named once. A run of consecutive
    /// commits in one hand-off is written as one batch against the
    /// worker's own database. Reply: [`ShardMsg::Done`].
    Commit {
        /// `(agent, new_position)` per advancing member.
        updates: Vec<(u32, P)>,
    },
    /// Rewind every `(agent, target_step, position)` — the speculative
    /// squash path. Each agent is a member named once, and its target
    /// step must not exceed its current step. Reply: [`ShardMsg::Done`].
    Rollback {
        /// `(agent, target_step, position)` per rewinding member.
        updates: Vec<(u32, u32, P)>,
    },
    /// Remove the agents (members, each named once) from this worker and
    /// return their full authoritative records for re-homing. Reply:
    /// [`ShardMsg::Departed`].
    Depart {
        /// Members crossing out of this worker's region.
        agents: Vec<u32>,
    },
    /// Adopt the records (writing them into this worker's database) as
    /// new members: none may be a member already, and no agent may
    /// appear twice. Reply: [`ShardMsg::Done`].
    Arrive {
        /// Records handed over by the departing workers.
        records: Vec<NodeRecord<P>>,
    },
    /// Compute the rule edges between each probe and this worker's
    /// members; never sent by a run or a check (protocol invariant 2).
    /// Reply: [`ShardMsg::Edges`].
    RelinkQuery {
        /// Agents whose incident edges are being rebuilt.
        probes: Vec<Probe<P>>,
    },
    /// Compact history records below `floor` (the controller's global
    /// minimum step — the deepest legal rollback). Reply:
    /// [`ShardMsg::Evicted`].
    EvictHistory {
        /// Steps strictly below this are dead for scheduling purposes.
        floor: u32,
    },
    /// Report the worker's full member state (checkpoint barriers and
    /// invariant checks). Reply: [`ShardMsg::Quiesced`].
    Quiesce,
    /// Rebuild the worker's in-memory state (its members, and the index
    /// of the history records its store holds) from its own database,
    /// given the member list the controller expects it to own. Reply:
    /// [`ShardMsg::Recovered`].
    Recover {
        /// The agents this worker must own per the controller's mirror.
        expected: Vec<u32>,
    },
    /// Drain the spans and counter increments the worker has recorded
    /// since the previous harvest (protocol invariant 4: this is an
    /// ordinary in-order request that never blocks or reorders commits,
    /// and worker-side buffer overflow is reported, never silent).
    /// Reply: [`ShardMsg::Telemetry`].
    ///
    /// `now_us` is the controller's clock at send time; together with
    /// the reply's `now_us` (the worker's clock) and the reply's arrival
    /// time it forms the per-harvest clock-offset handshake that lands
    /// spans from both clock domains on one timeline.
    HarvestTelemetry {
        /// Controller clock (µs on its telemetry epoch) at send time.
        now_us: u64,
    },
    /// Poll the worker's liveness/lag gauges (protocol invariant 4: an
    /// ordinary in-order request answered without touching the
    /// database). Reply: [`ShardMsg::Heartbeat`].
    Heartbeat {
        /// Controller clock (µs on its telemetry epoch) at send time.
        now_us: u64,
    },
    /// Terminate the worker loop after one final [`ShardMsg::Done`].
    Shutdown,
}

/// Worker → controller replies.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMsg<P> {
    /// The request was applied in full.
    Done,
    /// Reply to [`CtrlMsg::Depart`]: the removed agents' full records.
    Departed {
        /// One record per departed agent, in request order.
        records: Vec<NodeRecord<P>>,
    },
    /// Reply to [`CtrlMsg::RelinkQuery`]: every exact rule edge between
    /// a probe and a member.
    Edges {
        /// The verified edges (possibly empty).
        edges: Vec<WireEdge>,
    },
    /// Reply to [`CtrlMsg::EvictHistory`].
    Evicted {
        /// History records deleted by this pass.
        removed: u64,
    },
    /// Reply to [`CtrlMsg::Quiesce`]: `(agent, step, position)` of every
    /// member, ascending by agent id.
    Quiesced {
        /// The worker's complete member state.
        states: Vec<(u32, u32, P)>,
    },
    /// Reply to [`CtrlMsg::Recover`]: the rebuilt member states,
    /// ascending by agent id.
    Recovered {
        /// `(agent, step, position)` per recovered member.
        states: Vec<(u32, u32, P)>,
    },
    /// Reply to [`CtrlMsg::HarvestTelemetry`]: everything the worker
    /// recorded since the previous harvest. Spans and counters are
    /// *increments* (drained exactly once); `dropped` is the worker's
    /// running overflow total (absolute, so a lost harvest can only
    /// over-report, never hide, a drop).
    Telemetry {
        /// The replying worker's shard index.
        worker: u32,
        /// Worker clock (µs on its telemetry epoch) at reply time — the
        /// other half of the clock-offset handshake.
        now_us: u64,
        /// Spans recorded since the previous harvest, worker clock.
        spans: Vec<crate::telemetry::Span>,
        /// Counter increments since the previous harvest.
        counters: Vec<(crate::telemetry::Counter, u64)>,
        /// Running total of spans the worker's buffer overflowed.
        dropped: u64,
    },
    /// Reply to [`CtrlMsg::Heartbeat`]: the worker's liveness/lag
    /// gauges. All counts are running totals or current values — the
    /// controller derives queue depth as its own sent-count minus
    /// `handled`, which on a healthy lock-step link is ≈ 0.
    Heartbeat {
        /// The replying worker's shard index.
        worker: u32,
        /// Worker clock (µs on its telemetry epoch) at reply time.
        now_us: u64,
        /// Messages the worker has handled since it started, this
        /// heartbeat included.
        handled: u64,
        /// Highest step any member has applied; `u32::MAX` when the
        /// worker currently owns no agents.
        last_step: u32,
        /// Current member count.
        members: u32,
        /// Running total of spans the worker's local buffer overflowed.
        dropped: u64,
    },
    /// The request could not be applied — or was not attempted, because
    /// an earlier request of the same hand-off failed; nothing was
    /// committed.
    Failed {
        /// Human-readable cause.
        message: String,
    },
}
