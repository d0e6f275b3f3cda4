//! The virtual-time event loop behind [`run_sim`], [`run_spec_sim`] and
//! [`run_hybrid_sim`]: the controller loop of §3.3–3.5 (pull ready
//! clusters, run their call chains, commit, repeat) against a
//! [`SimServer`], generic over the [`Controller`] that decides what is
//! ready.
//!
//! # Event order
//!
//! A run's report is an exact function of the order in which events are
//! handled, so that order is a contract:
//!
//! * There are three event sources — interactive arrivals, server
//!   completions, and CPU events (`Start`/`Commit` of a cluster). The
//!   loop always moves to the earliest pending instant; at one instant
//!   interactive arrivals are submitted first, then the server is
//!   advanced to the instant and the completions due there are
//!   delivered, then CPU events run.
//! * The server is advanced to every instant the loop visits, not only
//!   to its own run ends, so an iteration boundary inside a decode run
//!   that falls on the instant has passed before a CPU event submits
//!   there: the new call waits for the next boundary, exactly as it
//!   would behind an iteration that ended at the instant. Arrivals,
//!   submitted before the advance, join at the instant's boundary.
//! * CPU events pop in `(at, seq)` order, `seq` assigned at push.
//! * Request ids are issued `0, 1, 2, …` in submit order; interactive
//!   requests carry ids from [`INTERACTIVE_BASE`] up, set by the caller.
//! * Ready clusters wait for a worker slot in a backlog that pops in
//!   `(step priority, arrival seq)` order — priority is `0` for every
//!   cluster without [`SimConfig::priority_ready_queue`].
//! * A cluster starts `step_cpu_us` after it gets a slot. At the start
//!   instant its members' first calls are submitted in member order —
//!   under [`SimConfig::serial_agents`] one member at a time, the next
//!   when the previous member's chain has finished. Calls of one chain
//!   never overlap.
//! * A cluster commits `commit_cpu_us` after its last completion, or
//!   after its start when no member has a call.
//! * After every commit the controller is asked for ready clusters, then
//!   free slots drain the backlog.
//!
//! Speculation adds two hooks and no branch in the order: after `ready`
//! and after `complete` the squashed `(agent, step)` executions are
//! drained and charged to the waste ledger, and an execution the
//! controller does not accept is charged to waste whole. A squashed
//! execution costs what [`Workload::calls`] names for its `(agent,
//! step)`: the workload contract makes that deterministic, so it is what
//! the accepted execution ran.
//!
//! [`run_sim`]: crate::exec::sim::run_sim
//! [`run_spec_sim`]: crate::exec::spec_sim::run_spec_sim
//! [`run_hybrid_sim`]: crate::exec::hybrid::run_hybrid_sim

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aim_llm::{LlmRequest, RequestId, ServerMetrics, SimServer, VirtualTime};
use aim_store::StoreError;

use crate::error::EngineError;
use crate::exec::sim::SimConfig;
use crate::ids::{AgentId, ClusterId, Step};
use crate::metrics::{CallSpan, RunReport, Timeline};
use crate::scheduler::{Cluster, SchedStats};
use crate::space::IdMap;
use crate::spec::{SpecReport, SpecStats};
use crate::workload::{CallSpec, Workload};

/// First id of the interactive namespace: completions at or above it are
/// interactive requests, below it simulation calls.
pub(crate) const INTERACTIVE_BASE: u64 = 1 << 40;

/// What the kernel needs from a scheduler over positions `P`.
pub(crate) trait Controller<P> {
    /// Whether executions can be discarded after the fact. Selects the
    /// waste ledger at compile time: a conservative run never touches it.
    const SPECULATIVE: bool;

    /// Every cluster that may execute now, marked in flight.
    fn ready(&mut self) -> Result<Vec<Cluster>, StoreError>;

    /// Reports `cluster` executed with its members now at `new_pos`;
    /// `false` when the execution was discarded and its members re-emit.
    fn complete(
        &mut self,
        cluster: &ClusterId,
        new_pos: &[(AgentId, P)],
    ) -> Result<bool, StoreError>;

    /// Accepted `(agent, step)` executions discarded since the last call;
    /// only asked of a [`Controller::SPECULATIVE`] scheduler.
    fn drain_squashed(&mut self) -> Vec<(AgentId, Step)> {
        Vec::new()
    }

    /// Every agent has finished for good.
    fn is_done(&self) -> bool;

    /// Clusters handed out and not yet completed (diagnostics).
    fn inflight_len(&self) -> usize;

    /// The event loop is over: the tracker settles what it buffers
    /// ([`crate::depgraph::DepTracker::harvest_telemetry`]) inside the
    /// run, not after it.
    fn finish(&mut self);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    Start(ClusterId),
    Commit(ClusterId),
}

/// LLM work: calls and their tokens.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    calls: u64,
    input: u64,
    output: u64,
}

impl Cost {
    fn of(calls: &[CallSpec]) -> Cost {
        Cost {
            calls: calls.len() as u64,
            input: calls.iter().map(|c| u64::from(c.input_tokens)).sum(),
            output: calls.iter().map(|c| u64::from(c.output_tokens)).sum(),
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.calls += other.calls;
        self.input += other.input;
        self.output += other.output;
    }
}

struct MemberChain {
    agent: AgentId,
    calls: Vec<CallSpec>,
    /// Index of the next call to issue.
    next: usize,
    /// Submission time of the call in flight.
    issued_at: VirtualTime,
}

struct Active {
    cluster: Cluster,
    chains: Vec<MemberChain>,
    /// Members whose chain has not finished.
    remaining: usize,
}

/// What a finished run measured; [`Outcome::report`] turns it into the
/// caller's [`RunReport`].
pub(crate) struct Outcome {
    /// Instant of the last cluster commit — the simulation's makespan.
    last_commit: VirtualTime,
    /// Instant of the last event of any source, which is as far as
    /// `server` has been advanced.
    end: VirtualTime,
    total: Cost,
    waste: Cost,
    timeline: Option<Timeline>,
    server: ServerMetrics,
    /// Latency of every interactive request, µs, in completion order.
    pub(crate) interactive_latencies_us: Vec<u64>,
}

impl Outcome {
    /// The run's report; `spec` carries the scheduler-side counters of a
    /// speculative run, to which the waste ledger is added.
    pub(crate) fn report(
        self,
        mode: String,
        sched: SchedStats,
        spec: Option<SpecStats>,
    ) -> RunReport {
        RunReport {
            mode,
            makespan: self.last_commit,
            total_calls: self.total.calls,
            total_input_tokens: self.total.input,
            total_output_tokens: self.total.output,
            achieved_parallelism: self.server.achieved_parallelism(self.end),
            gpu_utilization: self.server.utilization(self.end),
            sched,
            server: Some(self.server),
            spec: spec.map(|stats| SpecReport {
                stats,
                wasted_calls: self.waste.calls,
                wasted_input_tokens: self.waste.input,
                wasted_output_tokens: self.waste.output,
            }),
            timeline: self.timeline,
        }
    }
}

/// The request side of the loop, apart from the cluster records so a
/// cluster's chains can be walked while its calls are submitted.
struct Issuer {
    req_map: IdMap<RequestId, (ClusterId, usize)>,
    next_req: u64,
    total: Cost,
    timeline: Option<Timeline>,
}

impl Issuer {
    /// Submits the next call of `active`'s member `member` at `at`.
    fn submit(
        &mut self,
        server: &mut SimServer,
        cid: ClusterId,
        active: &mut Active,
        member: usize,
        at: VirtualTime,
    ) {
        let chain = &mut active.chains[member];
        let spec = chain.calls[chain.next];
        chain.next += 1;
        chain.issued_at = at;
        let id = RequestId(self.next_req);
        self.next_req += 1;
        self.req_map.insert(id, (cid, member));
        self.total += Cost::of(&[spec]);
        server.submit(
            at,
            LlmRequest::new(
                id,
                chain.agent.0,
                active.cluster.step.priority(),
                spec.input_tokens,
                spec.output_tokens,
                spec.kind,
            ),
        );
    }
}

struct Kernel<'a> {
    cfg: &'a SimConfig,
    events: BinaryHeap<Reverse<(VirtualTime, u64, EvKind)>>,
    event_seq: u64,
    /// Ready clusters waiting for a worker slot.
    backlog: BinaryHeap<Reverse<(u64, u64, ClusterId)>>,
    backlog_seq: u64,
    slots_used: usize,
    active: IdMap<ClusterId, Active>,
    issuer: Issuer,
    waste: Cost,
    last_commit: VirtualTime,
}

impl Kernel<'_> {
    fn schedule(&mut self, at: VirtualTime, kind: EvKind) {
        self.events.push(Reverse((at, self.event_seq, kind)));
        self.event_seq += 1;
    }

    fn charge_squashed<P, C: Controller<P>, W: Workload<P> + ?Sized>(
        &mut self,
        ctl: &mut C,
        workload: &W,
    ) {
        if !C::SPECULATIVE {
            return;
        }
        for (agent, step) in ctl.drain_squashed() {
            self.waste += Cost::of(&workload.calls(agent, step));
        }
    }

    fn pull_ready<P, C: Controller<P>, W: Workload<P> + ?Sized>(
        &mut self,
        ctl: &mut C,
        workload: &W,
    ) -> Result<(), EngineError> {
        let ready = ctl.ready()?;
        self.charge_squashed(ctl, workload);
        for cluster in ready {
            let prio = if self.cfg.priority_ready_queue {
                cluster.step.priority()
            } else {
                0
            };
            self.backlog
                .push(Reverse((prio, self.backlog_seq, cluster.id)));
            self.backlog_seq += 1;
            let record = Active {
                cluster,
                chains: Vec::new(),
                remaining: 0,
            };
            self.active.insert(record.cluster.id, record);
        }
        Ok(())
    }

    fn drain_slots(&mut self, now: VirtualTime) {
        let limit = self.cfg.max_concurrent_clusters.unwrap_or(usize::MAX);
        while self.slots_used < limit {
            let Some(Reverse((_, _, cid))) = self.backlog.pop() else {
                break;
            };
            self.slots_used += 1;
            self.schedule(
                now + VirtualTime::from_micros(self.cfg.step_cpu_us),
                EvKind::Start(cid),
            );
        }
    }

    fn on_start<P, W: Workload<P> + ?Sized>(
        &mut self,
        server: &mut SimServer,
        workload: &W,
        cid: ClusterId,
        at: VirtualTime,
    ) {
        let active = self
            .active
            .get_mut(&cid)
            .expect("started cluster is active");
        let step = active.cluster.step;
        active.chains = active
            .cluster
            .members
            .iter()
            .map(|m| MemberChain {
                agent: *m,
                calls: workload.calls(*m, step),
                next: 0,
                issued_at: at,
            })
            .collect();
        active.remaining = active.chains.iter().filter(|c| !c.calls.is_empty()).count();
        if active.remaining == 0 {
            self.schedule(
                at + VirtualTime::from_micros(self.cfg.commit_cpu_us),
                EvKind::Commit(cid),
            );
            return;
        }
        for member in 0..active.chains.len() {
            if active.chains[member].calls.is_empty() {
                continue;
            }
            self.issuer.submit(server, cid, active, member, at);
            if self.cfg.serial_agents {
                break;
            }
        }
    }

    fn on_completion(&mut self, server: &mut SimServer, req: RequestId, at: VirtualTime) {
        let (cid, member) = self
            .issuer
            .req_map
            .remove(&req)
            .expect("completion for unknown request");
        let active = self
            .active
            .get_mut(&cid)
            .expect("completion for inactive cluster");
        let chain = &active.chains[member];
        if let Some(tl) = &mut self.issuer.timeline {
            tl.spans.push(CallSpan {
                agent: chain.agent,
                step: active.cluster.step,
                kind: chain.calls[chain.next - 1].kind,
                start: chain.issued_at,
                end: at,
            });
        }
        if chain.next < chain.calls.len() {
            self.issuer.submit(server, cid, active, member, at);
            return;
        }
        active.remaining -= 1;
        if active.remaining == 0 {
            self.schedule(
                at + VirtualTime::from_micros(self.cfg.commit_cpu_us),
                EvKind::Commit(cid),
            );
        } else if self.cfg.serial_agents {
            // The finished member was the only one issuing: hand over to
            // the next member that has calls.
            let next = (member + 1..active.chains.len())
                .find(|&i| !active.chains[i].calls.is_empty())
                .expect("an unfinished member follows");
            self.issuer.submit(server, cid, active, next, at);
        }
    }

    fn on_commit<P, C: Controller<P>, W: Workload<P> + ?Sized>(
        &mut self,
        ctl: &mut C,
        workload: &W,
        cid: ClusterId,
        at: VirtualTime,
    ) -> Result<(), EngineError> {
        let active = self
            .active
            .remove(&cid)
            .expect("committed cluster is active");
        let step = active.cluster.step;
        let new_pos: Vec<(AgentId, P)> = active
            .cluster
            .members
            .iter()
            .map(|m| (*m, workload.pos_after(*m, step)))
            .collect();
        let committed = ctl.complete(&cid, &new_pos)?;
        self.charge_squashed(ctl, workload);
        if C::SPECULATIVE && !committed {
            // Every chain ran to its end before the commit was scheduled,
            // so an execution costs the sum of its calls.
            for chain in &active.chains {
                self.waste += Cost::of(&chain.calls);
            }
        }
        if committed {
            if let Some(tl) = &mut self.issuer.timeline {
                tl.commits.push((step, at));
            }
        }
        self.last_commit = at;
        self.slots_used -= 1;
        self.pull_ready(ctl, workload)?;
        self.drain_slots(at);
        Ok(())
    }
}

/// Runs `workload` under `ctl` against `server` until no event is left,
/// with `interactive` requests (arrival time ascending, ids from
/// [`INTERACTIVE_BASE`]) injected into the same server.
///
/// # Errors
///
/// Propagates store failures, and reports a run that ends before `ctl` is
/// done as [`EngineError::Deadlock`].
pub(crate) fn run<P, C, W>(
    ctl: &mut C,
    workload: &W,
    server: &mut SimServer,
    interactive: &[(VirtualTime, LlmRequest)],
    cfg: &SimConfig,
) -> Result<Outcome, EngineError>
where
    C: Controller<P>,
    W: Workload<P> + ?Sized,
{
    let mut k = Kernel {
        cfg,
        events: BinaryHeap::new(),
        event_seq: 0,
        backlog: BinaryHeap::new(),
        backlog_seq: 0,
        slots_used: 0,
        active: IdMap::default(),
        issuer: Issuer {
            req_map: IdMap::default(),
            next_req: 0,
            total: Cost::default(),
            timeline: cfg.record_timeline.then(Timeline::default),
        },
        waste: Cost::default(),
        last_commit: VirtualTime::ZERO,
    };
    let mut now = VirtualTime::ZERO;
    let mut arrivals = interactive.iter().peekable();
    let mut latencies = Vec::with_capacity(interactive.len());
    let mut finished = Vec::new();
    k.pull_ready(ctl, workload)?;
    k.drain_slots(now);

    loop {
        let t_ev = k.events.peek().map(|Reverse((at, ..))| *at);
        let t_srv = server.next_event();
        let t_arr = arrivals.peek().map(|(at, _)| *at);
        let Some(next) = [t_ev, t_srv, t_arr].into_iter().flatten().min() else {
            break;
        };
        now = next;
        while let Some((at, req)) = arrivals.next_if(|(at, _)| *at <= next) {
            server.submit(*at, *req);
        }
        server.advance(next, &mut finished);
        for c in finished.drain(..) {
            if c.req.id.0 >= INTERACTIVE_BASE {
                latencies.push(c.latency().as_micros());
            } else {
                k.on_completion(server, c.req.id, c.finished_at);
            }
        }
        while let Some(&Reverse((at, _, kind))) = k.events.peek() {
            if at > next {
                break;
            }
            k.events.pop();
            match kind {
                EvKind::Start(cid) => k.on_start(server, workload, cid, at),
                EvKind::Commit(cid) => k.on_commit(ctl, workload, cid, at)?,
            }
        }
    }

    ctl.finish();
    if !ctl.is_done() {
        return Err(EngineError::Deadlock {
            detail: format!(
                "simulation stalled at {now}: {} clusters in flight, {} active records",
                ctl.inflight_len(),
                k.active.len()
            ),
        });
    }
    Ok(Outcome {
        last_commit: k.last_commit,
        end: now,
        total: k.issuer.total,
        waste: k.waste,
        timeline: k.issuer.timeline,
        server: server.metrics(),
        interactive_latencies_us: latencies,
    })
}
