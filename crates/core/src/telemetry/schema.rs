//! The span schema: what a span measured ([`SpanKind`], grouped by
//! [`Phase`]), its payload fields as every format walks them ([`Field`],
//! [`FieldReader`]), the [`Span`] itself, and the named [`Counter`]s
//! recorded beside spans.

use aim_llm::{AttemptOutcome, CallKind};

/// Why an agent was waiting instead of executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// The scheduler's blocked predicate held: a lagging agent (the
    /// span's `blocker`) was close enough to causally affect this one
    /// (paper §3.2).
    Dependency,
    /// Intra-cluster barrier: this member finished its step and waited
    /// for the cluster's straggler (the span's `blocker`) before commit.
    /// Under lock-step scheduling this is where the whole synchronization
    /// cost of the run appears.
    Barrier,
}

impl BlockReason {
    /// Every reason, in wire-index order.
    pub const ALL: [BlockReason; 2] = [BlockReason::Dependency, BlockReason::Barrier];

    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            BlockReason::Dependency => "dependency",
            BlockReason::Barrier => "barrier",
        }
    }
}

/// Which side of the worker message boundary a [`SpanKind::Boundary`]
/// span measured (the `dist` controller/worker protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryOp {
    /// Controller-side: encoding + enqueueing a request to a worker.
    Send,
    /// Controller-side: blocked waiting for a worker's reply.
    Wait,
    /// Worker-side: decoding + applying a request against local state.
    Apply,
}

impl BoundaryOp {
    /// Every op, in wire-index order.
    pub const ALL: [BoundaryOp; 3] = [BoundaryOp::Send, BoundaryOp::Wait, BoundaryOp::Apply];

    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            BoundaryOp::Send => "send",
            BoundaryOp::Wait => "wait",
            BoundaryOp::Apply => "apply",
        }
    }
}

/// What a [`Span`] measured. All payloads are small `Copy` data — ids and
/// counts only — so recording never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One cluster's full lifetime on a worker: dispatch → member agent
    /// steps (each an [`SpanKind::LlmCall`] child) → commit → ack.
    Cluster {
        /// Cluster instance id.
        cluster: u64,
        /// Step every member executed.
        step: u32,
        /// Member count.
        members: u32,
    },
    /// One blocking LLM call, attributed to the issuing agent.
    LlmCall {
        /// Issuing agent.
        agent: u32,
        /// Simulation step of the call.
        step: u32,
        /// Request id (links fleet attempts to this call).
        request: u64,
        /// Agent function.
        kind: CallKind,
    },
    /// World-commit section of a cluster (under the program's world
    /// lock).
    Commit {
        /// Cluster instance id.
        cluster: u64,
        /// Step committed.
        step: u32,
        /// Member count.
        members: u32,
    },
    /// An agent waiting instead of executing; `blocker` names the agent
    /// it waited on (`u32::MAX` when unknown).
    Blocked {
        /// The waiting agent.
        agent: u32,
        /// The agent it waited on (the paper's "blocking agent").
        blocker: u32,
        /// The step the waiting agent wanted to execute.
        step: u32,
        /// Which wait this was (scheduling rule vs. barrier join).
        reason: BlockReason,
    },
    /// One sharded-tracker relink batch (possibly parallel).
    Relink {
        /// Agents relinked in the batch.
        agents: u32,
        /// Parallel workers used (1 = serial path).
        workers: u32,
    },
    /// Shard-membership migration pass for one commit batch.
    Migrate {
        /// Agents examined.
        agents: u32,
        /// Agents that changed owning shard.
        crossings: u32,
    },
    /// Quiesce + checkpoint barrier: from the moment the controller began
    /// deferring ready work to the completion of the checkpoint hook.
    Checkpoint {
        /// Minimum agent step at the barrier (the checkpoint's step).
        step: u32,
    },
    /// One claimed per-replica attempt inside the serving fleet (first
    /// try or retry), linked to its parent [`SpanKind::LlmCall`] by
    /// `request`.
    FleetAttempt {
        /// Request id of the parent call.
        request: u64,
        /// Replica the attempt landed on.
        replica: u32,
        /// Kept in the wire format so recorded telemetry still decodes.
        /// The fleet never runs one call on two replicas at once, so
        /// nothing sets it: it always reads `false`.
        hedge: bool,
        /// How the attempt resolved.
        outcome: AttemptOutcome,
    },
    /// Controller bookkeeping for one completed cluster: graph advance,
    /// watcher wakes, readiness re-evaluation, ready-queue push.
    Control {
        /// Cluster instance id completed.
        cluster: u64,
        /// Member count.
        members: u32,
    },
    /// Time spent at the distributed-shard message boundary (the `dist`
    /// controller/worker protocol): one send, reply-wait, or apply
    /// interval, attributed to the worker involved.
    Boundary {
        /// Worker (shard) index the messages crossed to or from.
        worker: u32,
        /// Which side of the boundary was measured.
        op: BoundaryOp,
        /// Protocol messages covered by the interval.
        messages: u32,
    },
}

/// Coarse grouping of [`SpanKind`]s for per-phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Cluster lifetime on a worker.
    Cluster,
    /// LLM calls.
    Llm,
    /// World commits.
    Commit,
    /// Blocked waits (both reasons).
    Blocked,
    /// Relink batches.
    Relink,
    /// Shard migrations.
    Migrate,
    /// Checkpoint barriers.
    Checkpoint,
    /// Fleet call attempts.
    Attempt,
    /// Controller bookkeeping.
    Control,
    /// Distributed-shard message-boundary time (send/wait/apply).
    Boundary,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 10] = [
        Phase::Cluster,
        Phase::Llm,
        Phase::Commit,
        Phase::Blocked,
        Phase::Relink,
        Phase::Migrate,
        Phase::Checkpoint,
        Phase::Attempt,
        Phase::Control,
        Phase::Boundary,
    ];

    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Cluster => "cluster",
            Phase::Llm => "llm",
            Phase::Commit => "commit",
            Phase::Blocked => "blocked",
            Phase::Relink => "relink",
            Phase::Migrate => "migrate",
            Phase::Checkpoint => "checkpoint",
            Phase::Attempt => "attempt",
            Phase::Control => "control",
            Phase::Boundary => "boundary",
        }
    }
}

impl SpanKind {
    /// The histogram phase this span belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            SpanKind::Cluster { .. } => Phase::Cluster,
            SpanKind::LlmCall { .. } => Phase::Llm,
            SpanKind::Commit { .. } => Phase::Commit,
            SpanKind::Blocked { .. } => Phase::Blocked,
            SpanKind::Relink { .. } => Phase::Relink,
            SpanKind::Migrate { .. } => Phase::Migrate,
            SpanKind::Checkpoint { .. } => Phase::Checkpoint,
            SpanKind::FleetAttempt { .. } => Phase::Attempt,
            SpanKind::Control { .. } => Phase::Control,
            SpanKind::Boundary { .. } => Phase::Boundary,
        }
    }

    /// Hands each payload field to `f` by name, in schema order: the one
    /// layout every span format writes, after the [`Phase`] that tags
    /// the kind. [`SpanKind::read_fields`] reads the same fields back.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn write_fields<E>(
        &self,
        mut f: impl FnMut(&'static str, Field) -> Result<(), E>,
    ) -> Result<(), E> {
        match *self {
            SpanKind::Cluster {
                cluster,
                step,
                members,
            }
            | SpanKind::Commit {
                cluster,
                step,
                members,
            } => {
                f("cluster", Field::U64(cluster))?;
                f("step", Field::U32(step))?;
                f("members", Field::U32(members))
            }
            SpanKind::LlmCall {
                agent,
                step,
                request,
                kind,
            } => {
                f("agent", Field::U32(agent))?;
                f("step", Field::U32(step))?;
                f("request", Field::U64(request))?;
                f(
                    "call",
                    Field::choice(&CallKind::ALL, kind, CallKind::as_str),
                )
            }
            SpanKind::Blocked {
                agent,
                blocker,
                step,
                reason,
            } => {
                f("agent", Field::U32(agent))?;
                f("blocker", Field::U32(blocker))?;
                f("step", Field::U32(step))?;
                f(
                    "reason",
                    Field::choice(&BlockReason::ALL, reason, BlockReason::as_str),
                )
            }
            SpanKind::Relink { agents, workers } => {
                f("agents", Field::U32(agents))?;
                f("workers", Field::U32(workers))
            }
            SpanKind::Migrate { agents, crossings } => {
                f("agents", Field::U32(agents))?;
                f("crossings", Field::U32(crossings))
            }
            SpanKind::Checkpoint { step } => f("step", Field::U32(step)),
            SpanKind::FleetAttempt {
                request,
                replica,
                hedge,
                outcome,
            } => {
                f("request", Field::U64(request))?;
                f("replica", Field::U32(replica))?;
                f("hedge", Field::Flag(hedge))?;
                f(
                    "outcome",
                    Field::choice(&AttemptOutcome::ALL, outcome, AttemptOutcome::as_str),
                )
            }
            SpanKind::Control { cluster, members } => {
                f("cluster", Field::U64(cluster))?;
                f("members", Field::U32(members))
            }
            SpanKind::Boundary {
                worker,
                op,
                messages,
            } => {
                f("worker", Field::U32(worker))?;
                f(
                    "op",
                    Field::choice(&BoundaryOp::ALL, op, BoundaryOp::as_str),
                )?;
                f("messages", Field::U32(messages))
            }
        }
    }

    /// Reads the payload of a span tagged `phase` from `r`, field by
    /// field in the order [`SpanKind::write_fields`] writes them.
    ///
    /// # Errors
    ///
    /// Whatever `r` reports for a missing or malformed field.
    pub fn read_fields<R: FieldReader>(phase: Phase, r: &mut R) -> Result<SpanKind, R::Error> {
        Ok(match phase {
            Phase::Cluster => SpanKind::Cluster {
                cluster: r.u64("cluster")?,
                step: r.u32("step")?,
                members: r.u32("members")?,
            },
            Phase::Llm => SpanKind::LlmCall {
                agent: r.u32("agent")?,
                step: r.u32("step")?,
                request: r.u64("request")?,
                kind: r.choice("call", &CallKind::ALL, CallKind::as_str)?,
            },
            Phase::Commit => SpanKind::Commit {
                cluster: r.u64("cluster")?,
                step: r.u32("step")?,
                members: r.u32("members")?,
            },
            Phase::Blocked => SpanKind::Blocked {
                agent: r.u32("agent")?,
                blocker: r.u32("blocker")?,
                step: r.u32("step")?,
                reason: r.choice("reason", &BlockReason::ALL, BlockReason::as_str)?,
            },
            Phase::Relink => SpanKind::Relink {
                agents: r.u32("agents")?,
                workers: r.u32("workers")?,
            },
            Phase::Migrate => SpanKind::Migrate {
                agents: r.u32("agents")?,
                crossings: r.u32("crossings")?,
            },
            Phase::Checkpoint => SpanKind::Checkpoint {
                step: r.u32("step")?,
            },
            Phase::Attempt => SpanKind::FleetAttempt {
                request: r.u64("request")?,
                replica: r.u32("replica")?,
                hedge: r.flag("hedge")?,
                outcome: r.choice("outcome", &AttemptOutcome::ALL, AttemptOutcome::as_str)?,
            },
            Phase::Control => SpanKind::Control {
                cluster: r.u64("cluster")?,
                members: r.u32("members")?,
            },
            Phase::Boundary => SpanKind::Boundary {
                worker: r.u32("worker")?,
                op: r.choice("op", &BoundaryOp::ALL, BoundaryOp::as_str)?,
                messages: r.u32("messages")?,
            },
        })
    }
}

/// One span payload field, as [`SpanKind::write_fields`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// A 32-bit unsigned integer.
    U32(u32),
    /// A 64-bit unsigned integer.
    U64(u64),
    /// A yes/no flag.
    Flag(bool),
    /// One value of a closed set: its index in the set's `ALL`, and its
    /// `as_str` name.
    Choice(u8, &'static str),
}

impl Field {
    fn choice<T: Copy + PartialEq>(all: &[T], v: T, name: fn(T) -> &'static str) -> Field {
        let index = all
            .iter()
            .position(|&x| x == v)
            .expect("ALL lists every value");
        Field::Choice(index as u8, name(v))
    }
}

/// One format's reader of span payload fields, for
/// [`SpanKind::read_fields`]. Each method reads the next field, named
/// `name` for error messages.
pub trait FieldReader {
    /// How a missing or malformed field is reported.
    type Error;

    /// Reads a 32-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// A missing, malformed or out-of-range field.
    fn u32(&mut self, name: &'static str) -> Result<u32, Self::Error>;

    /// Reads a 64-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// A missing or malformed field.
    fn u64(&mut self, name: &'static str) -> Result<u64, Self::Error>;

    /// Reads a yes/no flag.
    ///
    /// # Errors
    ///
    /// A missing field or one that is neither yes nor no.
    fn flag(&mut self, name: &'static str) -> Result<bool, Self::Error>;

    /// Reads one of `all`, whose values `name_of` names.
    ///
    /// # Errors
    ///
    /// A missing field or one naming no value of `all`.
    fn choice<T: Copy>(
        &mut self,
        name: &'static str,
        all: &[T],
        name_of: fn(T) -> &'static str,
    ) -> Result<T, Self::Error>;
}

/// One recorded interval on the run's shared clock (µs since the
/// telemetry epoch; [`Telemetry::finish`](super::Telemetry::finish) rebases
/// onto the run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, µs.
    pub start_us: u64,
    /// End, µs (`>= start_us`).
    pub end_us: u64,
    /// Producer track: 0 is the shared (controller + backend) buffer,
    /// `1..` are per-worker recorders in registration order.
    pub track: u32,
    /// What was measured.
    pub kind: SpanKind,
}

impl Span {
    /// Span duration, µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Named monotonic counters recorded alongside spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// LLM calls issued through the observed backend.
    LlmCalls,
    /// Per-replica fleet attempts claimed (served + refused).
    FleetAttempts,
    /// Kept in the counter table so recorded telemetry still decodes.
    /// The fleet never runs one call on two replicas at once, so nothing
    /// adds to it: it always reads 0.
    FleetHedges,
    /// Sharded-tracker relink batches.
    RelinkBatches,
    /// Agents that changed owning shard.
    ShardMigrations,
    /// Quiesce + checkpoint barriers taken.
    CheckpointBarriers,
    /// Protocol messages crossing the distributed-shard boundary.
    BoundaryMessages,
    /// Helper threads the threaded executor spawned to run agent steps.
    AgentThreadsSpawned,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 8] = [
        Counter::LlmCalls,
        Counter::FleetAttempts,
        Counter::FleetHedges,
        Counter::RelinkBatches,
        Counter::ShardMigrations,
        Counter::CheckpointBarriers,
        Counter::BoundaryMessages,
        Counter::AgentThreadsSpawned,
    ];

    /// Stable snake_case name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::LlmCalls => "llm_calls",
            Counter::FleetAttempts => "fleet_attempts",
            Counter::FleetHedges => "fleet_hedges",
            Counter::RelinkBatches => "relink_batches",
            Counter::ShardMigrations => "shard_migrations",
            Counter::CheckpointBarriers => "checkpoint_barriers",
            Counter::BoundaryMessages => "boundary_messages",
            Counter::AgentThreadsSpawned => "agent_threads_spawned",
        }
    }

    /// This counter's value in a `(counter, value)` list (0 when absent).
    pub(super) fn value_in(self, counters: &[(Counter, u64)]) -> u64 {
        let found = counters.iter().find(|(c, _)| *c == self);
        found.map_or(0, |&(_, n)| n)
    }
}
