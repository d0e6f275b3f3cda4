//! The optimistic scheduler: the conservative §3.2 state machine with
//! bounded run-ahead, race detection, cascading squash, and retirement
//! layered on it.
//!
//! See the [module docs](crate::spec) for the protocol. Agent states,
//! the dirty set, the watcher table, cluster growth, emission and the
//! completion check are the conservative [`crate::scheduler::Scheduler`]'s
//! own core; what this layer adds is *what happens to a cluster*:
//! emission vetting (safety nets 1a–1c below), the in-flight index, the
//! [`EntryTable`] of unretired executions, the squash cascade,
//! retirement, and [`SpecStats`]. The interface mirrors the conservative
//! scheduler's — callers pull
//! [`ready_clusters`](SpecScheduler::ready_clusters) and report
//! [`complete`](SpecScheduler::complete) — with three differences: both
//! calls can perform store writes (squash rollbacks), `complete` returns
//! a [`CommitOutcome`] saying whether the execution was accepted, and
//! discarded work is reported through
//! [`drain_squashed`](SpecScheduler::drain_squashed) so the caller can
//! account its LLM calls as waste.
//!
//! Speculation runs on any [`DepTracker`] that implements
//! [`DepTracker::rollback`] (see [`SpecScheduler::from_graph`]); trackers
//! answer every query identically by contract, so the schedule does not
//! depend on which one hosts it.
//!
//! # Safety nets, from first line of defense to last
//!
//! Every check below is a question about a *neighbourhood* — the §3.2
//! rules are spatially local — so none of them walks the population.
//! Each takes a candidate set from a spatial index (or, for retirement
//! clearance, an adjacency list) and re-checks every candidate with the
//! exact rule ([`Space::within_units`]); an index only ever changes what
//! a check costs. The indexes:
//!
//! * the **entry index** (inside [`EntryTable`]): every live entry filed
//!   under its `start_pos` with its agent's id. An agent with several
//!   unretired steps is present at several positions — duplicate ids are
//!   part of the [`SpatialIndex`] contract for exactly this reason;
//! * the **in-flight index**: every member of an executing cluster under
//!   the position it started from (`inflight_of` names its cluster);
//! * the **tracker's position index**, through
//!   [`DepTracker::candidates_within`]: where every agent stands now;
//! * the **front index** (inside [`EntryTable`]): each holder's oldest
//!   entry, once per holder; only retirement clearance asks it (below).
//!
//! In a space without an index ([`crate::space::SocialSpace`]) each of
//! them names every agent id, and the same code is the linear reference.
//! Candidates are visited in the order a full scan would visit them
//! (agent id then step; cluster id; `(step, id)` for clearance), so the
//! first hit — and with it every watcher registration and squash
//! sequence — does not depend on which path answered. Costs are per
//! cluster member, in grid cells probed plus candidates re-checked; on a
//! map with few cells per agent a probe is an array read from a slot
//! table, otherwise a hash look-up (see [`crate::space::UniformGrid`]),
//! and so is each filing and unfiling of an entry.
//!
//! 1. **Emission vetting** (in `ready_clusters`): before a cluster at
//!    step `s` starts,
//!    * (1a) run-ahead entries whose state overlaps its read/write
//!      region are squashed out (nobody reads future state) — entry
//!      index at the coupling radius, 9 cells;
//!    * (1b) a same-step cluster in flight within coupling range defers
//!      emission (the agents belong together) — in-flight index at the
//!      coupling radius, 9 cells;
//!    * (1c) a *certain race* — a lagging agent already inside the
//!      combined read+write radius, whose very next commit must collide
//!      — denies speculation outright — position index at the coupling
//!      radius, 9 cells, and only asked of blocked clusters with budget
//!      left.
//! 2. **Commit-time checks** (in `complete`): a committing write
//!    (2a) squashes overlapping entries that were created while it ran
//!    and (2b) poisons overlapping *in-flight* executions — entry and
//!    in-flight index at the coupling radius, 9 cells each. With the
//!    GenAgent geometry (write radius = movement radius = `max_vel`)
//!    emission vetting provably prevents most of these; they remain as
//!    load-bearing checks for overlapping flights and as
//!    defense-in-depth elsewhere.
//! 3. **Observation edges**: each emission records which speculative
//!    states fell inside its perception region — position index at
//!    `radius_p`, 9 cells, keeping candidates that hold entries; the
//!    squash cascade invalidates observers transitively. Under the
//!    standard radii this set is empty by construction (vetting keeps
//!    speculative state out of read regions) — it is a backstop for
//!    exotic `Space` geometries.
//!
//! **Retirement clearance** is the §3.2 blocking rule run backwards from
//! each member's start at step `s`: an agent at step `t ≤ s` within
//! `blocking_units(s − t)` of it could still write into the read region.
//! That radius grows with the step gap (17–90 units at the skews
//! speculation reaches) and the check runs once per member per
//! retirement attempt, so a ball of that radius over every agent and
//! every entry used to dominate the scheduler. Each half now takes a far
//! smaller superset:
//!
//! * agents **without** live entries come from the member's blocked-by
//!   list ([`DepTracker::blockers_within`]). The instance retires only
//!   while it is the member's front entry, so the member stands at step
//!   `s + k` (k ≥ 1), at most `k · max_vel` from its start (`complete`
//!   refuses a longer move). By the triangle inequality every agent the
//!   rule names is within `blocking_units(s + k − t)` of the member —
//!   it blocks the member, and the tracker already lists it;
//! * agents **with** live entries are assessed at their rollback floor,
//!   their front entry, which the table's **front index** files once
//!   per holder: a superset of the floors within the widest radius on
//!   offer, `blocking_units(s − oldest live step)`.
//!
//! Each candidate is re-checked with its own radius and the first in
//! `(step, id)` (respectively id) order wins, so the blocker — and every
//! watcher registration — is the one the gap-widened balls named.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{DepGraph, DepTracker};
use crate::exec::kernel::Controller;
use crate::ids::{AgentId, ClusterId, Step};
use crate::rules::RuleParams;
use crate::scheduler::{Cluster, Core};
use crate::space::{query_or_all, IdMap, Space, SpatialIndex};
use crate::spec::table::{EntryTable, Instance};
use crate::spec::{SpecParams, SpecStats};

struct Inflight<P> {
    /// Step, members, their start positions at emission, and the
    /// speculative states within perception range at emission.
    inst: Instance<P>,
    /// Hit by a squash while executing: discard the result on completion.
    poisoned: bool,
}

/// What happened when a cluster execution was reported complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CommitOutcome {
    /// `true`: the execution was accepted and the agents advanced.
    /// `false`: the execution read stale or since-discarded state and was
    /// dropped; its members re-emit from their rolled-back steps.
    pub committed: bool,
}

/// The speculative out-of-order scheduler (paper §6's future-work design).
///
/// Generic over its dependency tracker `G` like the conservative
/// scheduler: the single-shard [`DepGraph`] by default (built by
/// [`SpecScheduler::new`]), or any tracker that can roll back, mounted
/// with [`SpecScheduler::from_graph`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use aim_core::prelude::*;
/// use aim_core::spec::{SpecParams, SpecScheduler};
/// use aim_store::Db;
///
/// # fn main() -> Result<(), aim_store::StoreError> {
/// let mut sched = SpecScheduler::new(
///     Arc::new(GridSpace::new(100, 140)),
///     RuleParams::genagent(),
///     SpecParams::new(2),
///     Arc::new(Db::new()),
///     &[Point::new(0, 0), Point::new(60, 60)],
///     Step(2),
/// )?;
/// while !sched.is_done() {
///     let ready = sched.ready_clusters()?;
///     for c in ready {
///         let pos: Vec<_> =
///             c.members.iter().map(|m| (*m, sched.graph().pos(*m))).collect();
///         sched.complete(&c.id, &pos)?;
///     }
/// }
/// assert_eq!(sched.stats().retired_steps, 4);
/// # Ok(())
/// # }
/// ```
pub struct SpecScheduler<S: Space, G: DepTracker<S> = DepGraph<S>> {
    core: Core<S, G>,
    /// The tracker's space and rules (a [`DepTracker`] does not expose
    /// them).
    space: Arc<S>,
    params: RuleParams,
    spec: SpecParams,
    inflight: IdMap<ClusterId, Inflight<S::Pos>>,
    /// Every in-flight member under its start position; ids are agent
    /// ids, resolved to clusters through `inflight_of`.
    inflight_index: Option<Box<dyn SpatialIndex<S::Pos>>>,
    inflight_of: Vec<Option<ClusterId>>,
    table: EntryTable<S::Pos>,
    /// `(step, instance)` retirement candidates.
    retire_dirty: BTreeSet<(u32, u64)>,
    /// clearance-blocking agent → instances to re-check when it moves.
    retire_watch: IdMap<u32, Vec<u64>>,
    /// Discarded `(agent, step)` executions awaiting caller pickup.
    squash_log: Vec<(AgentId, Step)>,
    /// The counters only speculation keeps; emission and skew counters
    /// are read off the core.
    stats: SpecStats,
    /// Records of retired and discarded executions, emptied, whose
    /// buffers the next emissions fill.
    spare: Vec<Instance<S::Pos>>,
    /// Reused candidate buffer for index queries.
    candidates: Vec<u32>,
}

impl<S: Space, G: DepTracker<S>> std::fmt::Debug for SpecScheduler<S, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecScheduler")
            .field("agents", &self.graph().len())
            .field("target_step", &self.target_step())
            .field("max_runahead", &self.spec.max_runahead)
            .field("live_entries", &self.table.len())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

/// Fills `out` with the ids `probe` reports around any of `centers`,
/// ascending and each once — the order a scan over agents visits them.
fn gather<P: Copy>(centers: &[P], out: &mut Vec<u32>, mut probe: impl FnMut(P, &mut Vec<u32>)) {
    out.clear();
    for c in centers {
        probe(*c, out);
    }
    out.sort_unstable();
    out.dedup();
}

impl<S: Space> SpecScheduler<S> {
    /// Creates a speculative scheduler with all agents at step 0 on a
    /// fresh single-shard [`DepGraph`].
    ///
    /// # Errors
    ///
    /// Propagates store errors from the initial graph population.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or `target_step` is zero.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        spec: SpecParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        target_step: Step,
    ) -> Result<Self, StoreError> {
        let graph = DepGraph::new(Arc::clone(&space), params, db, initial)?;
        Ok(Self::from_graph(graph, space, params, spec, target_step))
    }
}

impl<S: Space, G: DepTracker<S>> SpecScheduler<S, G> {
    /// Mounts speculation on an assembled dependency tracker — e.g. a
    /// [`ShardedDepGraph`](crate::shard::ShardedDepGraph) — deriving agent
    /// states from its steps. `space` and `params` must be the ones the
    /// tracker was built with. The tracker must maintain blocked/coupled
    /// edges and implement [`DepTracker::rollback`]; with the default
    /// body the first squash fails the run with its error.
    ///
    /// # Panics
    ///
    /// Panics if the tracker is empty or `target_step` is zero.
    pub fn from_graph(
        graph: G,
        space: Arc<S>,
        params: RuleParams,
        spec: SpecParams,
        target_step: Step,
    ) -> Self {
        let n = graph.len();
        let coupling = params.coupling_units();
        SpecScheduler {
            core: Core::new(graph, target_step),
            table: EntryTable::new(
                n,
                space.make_index(coupling, n),
                space.make_index(coupling, n),
            ),
            inflight_index: space.make_index(coupling, n),
            space,
            params,
            spec,
            inflight: IdMap::default(),
            inflight_of: vec![None; n],
            retire_dirty: BTreeSet::new(),
            retire_watch: IdMap::default(),
            squash_log: Vec::new(),
            stats: SpecStats::default(),
            spare: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The dependency tracker (positions, steps).
    pub fn graph(&self) -> &G {
        self.core.graph()
    }

    /// The speculation parameters in force.
    pub fn spec_params(&self) -> SpecParams {
        self.spec
    }

    /// The step at which agents finish.
    pub fn target_step(&self) -> Step {
        self.core.target_step()
    }

    /// Counters for reporting.
    pub fn stats(&self) -> SpecStats {
        let core = self.core.stats();
        SpecStats {
            agent_steps: core.agent_steps,
            max_step_skew: core.max_step_skew,
            max_cluster_size: core.max_cluster_size,
            ..self.stats
        }
    }

    /// Live (unretired) speculative entries.
    pub fn live_entries(&self) -> usize {
        self.table.len()
    }

    /// Clusters currently handed out and not yet completed.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Discarded `(agent, step)` executions since the last call — the
    /// caller re-executes them implicitly (the agents re-emit) and should
    /// account their LLM calls as wasted work.
    pub fn drain_squashed(&mut self) -> Vec<(AgentId, Step)> {
        std::mem::take(&mut self.squash_log)
    }

    /// Every agent has *retired* at the target step: all executions are
    /// validated final — no squash can rewind the simulation anymore.
    pub fn is_done(&self) -> bool {
        self.core.is_done() && self.table.is_empty() && self.inflight.is_empty()
    }

    /// Current step skew: max step − min step over all agents.
    pub fn current_skew(&self) -> u32 {
        self.core.current_skew()
    }

    /// Is `x` within `units` of any of `starts`?
    fn any_within(&self, x: S::Pos, starts: &[S::Pos], units: u64) -> bool {
        starts.iter().any(|p| self.space.within_units(x, *p, units))
    }

    /// Empties a finished record and keeps its buffers for reuse.
    fn recycle(&mut self, mut inst: Instance<S::Pos>) {
        inst.members.clear();
        inst.starts.clear();
        inst.observed.clear();
        self.spare.push(inst);
    }

    /// Computes and returns every cluster that may execute now, marking
    /// members in-flight. Blocked clusters with remaining run-ahead
    /// budget (and no certain race) are emitted optimistically.
    ///
    /// # Errors
    ///
    /// Propagates store errors from squash rollbacks performed while
    /// clearing run-ahead state out of a forming cluster's read region.
    pub fn ready_clusters(&mut self) -> Result<Vec<Cluster>, StoreError> {
        let mut out = Vec::new();
        let mut candidates = std::mem::take(&mut self.candidates);
        while let Some((step, a)) = self.core.next_dirty() {
            let mut inst = self.spare.pop().unwrap_or_default();
            inst.step = step;
            self.core.grow(a, &mut inst.members);
            let graph = self.core.graph();
            inst.starts
                .extend(inst.members.iter().map(|m| graph.pos(*m)));
            match self.vet(&mut inst, a, &mut candidates)? {
                Some(speculative) => out.push(self.emit(inst, speculative)),
                None => self.recycle(inst),
            }
        }
        self.candidates = candidates;
        Ok(out)
    }

    /// Runs the emission checks on the cluster in `inst`, grown from
    /// dirty agent `a`: `Some(speculative)` if it may execute now (with
    /// `inst.observed` filled in), `None` if it was squashed around,
    /// deferred or denied and will be re-evaluated later.
    fn vet(
        &mut self,
        inst: &mut Instance<S::Pos>,
        a: AgentId,
        candidates: &mut Vec<u32>,
    ) -> Result<Option<bool>, StoreError> {
        let step = inst.step;
        let (members, starts) = (&inst.members, &inst.starts);

        // Safety net 1a: run-ahead state overlapping this cluster's
        // combined read/write region is about to become stale —
        // squash it *before* executing (nobody reads future state),
        // then re-evaluate: membership may change.
        let seeds = self.overlapping_entries(step, members, starts, candidates);
        if !seeds.is_empty() {
            self.cascade(seeds)?;
            self.core.mark_dirty(step, a);
            return Ok(None);
        }

        // Safety net 1b: a same-step cluster already executing within
        // coupling range means these agents belong together — wait
        // for it rather than executing a conflicting write.
        if let Some(defer_on) = self.same_step_inflight_nearby(step, starts, candidates) {
            self.stats.deferrals += 1;
            self.core.wait_on(defer_on, step, members);
            return Ok(None);
        }

        // Conservative blocking check; blocked clusters may run ahead
        // within budget unless the race is already certain.
        let speculative = match self.core.first_blocker(members) {
            None => false,
            Some(b) => {
                let budget_ok = self.spec.speculation_enabled()
                    && members
                        .iter()
                        .all(|m| (self.table.stack_len(*m) as u32) < self.spec.max_runahead);
                // Safety net 1c: a laggard already within the
                // combined read+write radius collides on its very
                // next commit — speculating is guaranteed waste.
                let hopeless = budget_ok && self.certain_race(step, starts, candidates);
                if !budget_ok || hopeless {
                    if self.spec.speculation_enabled() {
                        self.stats.spec_denied += 1;
                    }
                    self.core.wait_on(b, step, members);
                    return Ok(None);
                }
                true
            }
        };

        // Safety net 3: record which speculative states this
        // execution can perceive — if any squashes, this execution
        // is invalidated with it.
        let radius = self.params.radius_p as u64;
        if !self.table.is_empty() {
            let graph = self.graph();
            gather(starts, candidates, |c, out| {
                graph.candidates_within(c, radius, out)
            });
            for &y in candidates.iter() {
                let y = AgentId(y);
                if self.table.stack_len(y) == 0 || members.contains(&y) {
                    continue;
                }
                if self.any_within(graph.pos(y), starts, radius) {
                    inst.observed.push((y, graph.step(y)));
                }
            }
        }
        Ok(Some(speculative))
    }

    /// Live entries at or above `step`, of agents outside `members`,
    /// whose read ball overlaps a write from any of `starts` — in
    /// (agent, step) order. Safety nets 1a (the cluster is about to
    /// write there) and 2a (it just did).
    fn overlapping_entries(
        &self,
        step: Step,
        members: &[AgentId],
        starts: &[S::Pos],
        candidates: &mut Vec<u32>,
    ) -> Vec<(AgentId, Step)> {
        let mut seeds = Vec::new();
        if self.table.is_empty() {
            return seeds;
        }
        let coupling = self.params.coupling_units();
        gather(starts, candidates, |c, out| {
            self.table.holders_near(c, coupling, out)
        });
        for &holder in candidates.iter() {
            let holder = AgentId(holder);
            if members.contains(&holder) {
                continue;
            }
            for e in self.table.stack(holder) {
                if e.step >= step && self.any_within(e.start_pos, starts, coupling) {
                    seeds.push((e.agent, e.step));
                }
            }
        }
        seeds
    }

    /// Is some agent at a step below `s` close enough that its next
    /// commit's write region must overlap this cluster's read region?
    fn certain_race(&self, s: Step, starts: &[S::Pos], candidates: &mut Vec<u32>) -> bool {
        let coupling = self.params.coupling_units();
        let below = Step(s.0.saturating_sub(1));
        let graph = self.graph();
        starts.iter().any(|p| {
            candidates.clear();
            graph.candidates_within(*p, coupling, candidates);
            candidates.iter().any(|&b| {
                let b = AgentId(b);
                graph.step(b) <= below && self.space.within_units(graph.pos(b), *p, coupling)
            })
        })
    }

    /// Fills `out` with the members of executing clusters that may have
    /// started within `units` of any of `centers`, ascending.
    fn inflight_members_near(&self, centers: &[S::Pos], units: u64, out: &mut Vec<u32>) {
        let index = self.inflight_index.as_deref();
        gather(centers, out, |c, out| {
            query_or_all(index, self.inflight_of.len(), c, units, out)
        });
    }

    /// The first member of the earliest-emitted cluster in flight at
    /// `step` with a start within coupling range of any of `starts`.
    fn same_step_inflight_nearby(
        &self,
        step: Step,
        starts: &[S::Pos],
        candidates: &mut Vec<u32>,
    ) -> Option<AgentId> {
        let coupling = self.params.coupling_units();
        self.inflight_members_near(starts, coupling, candidates);
        let mut first: Option<ClusterId> = None;
        for &m in candidates.iter() {
            let Some(cid) = self.inflight_of[m as usize] else {
                continue;
            };
            if first.is_some_and(|f| f <= cid) {
                continue;
            }
            let rec = &self.inflight[&cid].inst;
            if rec.step == step
                && rec
                    .starts
                    .iter()
                    .any(|st| self.any_within(*st, starts, coupling))
            {
                first = Some(cid);
            }
        }
        first.map(|cid| self.inflight[&cid].inst.members[0])
    }

    fn emit(&mut self, inst: Instance<S::Pos>, speculative: bool) -> Cluster {
        let id = self.core.emit(inst.step, &inst.members);
        for (m, start) in inst.members.iter().zip(&inst.starts) {
            self.inflight_of[m.index()] = Some(id);
            if let Some(idx) = self.inflight_index.as_mut() {
                idx.insert(m.0, *start);
            }
        }
        if speculative {
            self.stats.emitted_spec += 1;
        } else {
            self.stats.emitted_firm += 1;
        }
        // The caller's copy of the member list is the one allocation an
        // emission makes; the record's own buffers are recycled.
        let cluster = Cluster {
            id,
            step: inst.step,
            members: inst.members.clone(),
        };
        self.inflight.insert(
            id,
            Inflight {
                inst,
                poisoned: false,
            },
        );
        cluster
    }

    /// Reports a cluster execution finished at the recorded positions.
    ///
    /// Runs race detection against live run-ahead state, cascades any
    /// squashes, then either accepts the execution (agents advance, an
    /// entry is recorded, retirement runs) or discards it (stale reads).
    ///
    /// # Errors
    ///
    /// Propagates store errors from graph advancement or rollback.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is not in flight, `new_pos` does not name
    /// each of its members exactly once, or it puts a member more than
    /// `max_vel` from where its step started — checked before any
    /// scheduler or store state changes.
    pub fn complete(
        &mut self,
        cluster: &ClusterId,
        new_pos: &[(AgentId, S::Pos)],
    ) -> Result<CommitOutcome, StoreError> {
        let Entry::Occupied(rec) = self.inflight.entry(*cluster) else {
            panic!("{cluster} is not in flight");
        };
        let checked = &rec.get().inst;
        self.core
            .check_completion(cluster, &checked.members, new_pos);
        // Retirement clearance relies on this bound (`clearance_blocker`).
        let max_vel = u64::from(self.params.max_vel);
        for (a, to) in new_pos {
            let i = checked.members.binary_search(a).expect("checked a member");
            let from = checked.starts[i];
            assert!(
                self.space.within_units(from, *to, max_vel),
                "{a} of {cluster} moved from {from:?} to {to:?}, farther than max_vel {max_vel}"
            );
        }
        let Inflight { inst, poisoned } = rec.remove();
        for (m, start) in inst.members.iter().zip(&inst.starts) {
            self.inflight_of[m.index()] = None;
            if let Some(idx) = self.inflight_index.as_mut() {
                idx.remove(m.0, *start);
            }
        }
        if poisoned {
            return Ok(self.discard(inst));
        }

        let s = inst.step;
        let coupling = self.params.coupling_units();
        let mut candidates = std::mem::take(&mut self.candidates);

        // Safety net 2a: this commit writes ball(start, max_vel) at step
        // s; any live entry at step >= s whose read ball overlaps was
        // created while this cluster flew and read stale state.
        let seeds = self.overlapping_entries(s, &inst.members, &inst.starts, &mut candidates);

        // Safety net 2b: the same hazard for executions still in flight —
        // poison them so their results are dropped on completion (no
        // preemption mid-inference, matching §3.5).
        self.inflight_members_near(&inst.starts, coupling, &mut candidates);
        for &m in &candidates {
            let Some(cid2) = self.inflight_of[m as usize] else {
                continue;
            };
            let rec2 = self
                .inflight
                .get_mut(&cid2)
                .expect("inflight_of is consistent");
            if rec2.poisoned || rec2.inst.step < s {
                continue;
            }
            let space = &self.space;
            rec2.poisoned = rec2.inst.starts.iter().any(|st2| {
                inst.starts
                    .iter()
                    .any(|st| space.within_units(*st2, *st, coupling))
            });
        }
        self.candidates = candidates;

        self.cascade(seeds)?;

        // The cascade may have rolled back this very cluster's members
        // (their earlier steps were invalidated, so they now sit below
        // `s`) — then this execution read discarded state and must be
        // dropped too.
        if inst.members.iter().any(|m| self.graph().step(*m) != s) {
            return Ok(self.discard(inst));
        }

        // Accept: advance, requeue and wake through the core, record the
        // entries (the record moves into the table), retire eagerly.
        self.core.commit(new_pos)?;
        for m in &inst.members {
            self.wake_retire_watch(*m);
        }
        self.table.push_instance(cluster.0, inst, new_pos);
        self.stats.max_live_entries = self.stats.max_live_entries.max(self.table.len() as u32);
        self.retire_dirty.insert((s.0, cluster.0));
        self.run_retirement();
        Ok(CommitOutcome { committed: true })
    }

    /// Drops a poisoned or invalidated execution: members return to
    /// Waiting at their (possibly rolled back) current steps.
    fn discard(&mut self, inst: Instance<S::Pos>) -> CommitOutcome {
        for m in &inst.members {
            self.core.reopen(*m);
            self.core.wake(*m);
        }
        self.stats.poisoned_clusters += 1;
        self.stats.poisoned_steps += inst.members.len() as u64;
        self.recycle(inst);
        self.run_retirement();
        CommitOutcome { committed: false }
    }

    fn wake_retire_watch(&mut self, agent: AgentId) {
        if let Some(list) = self.retire_watch.remove(&agent.0) {
            for seq in list {
                if let Some(inst) = self.table.instance(seq) {
                    self.retire_dirty.insert((inst.step.0, seq));
                }
            }
        }
    }

    /// The anti-message cascade: discards entries at or above the seed
    /// steps, rolls the graph back, and transitively invalidates cluster
    /// partners and executions that observed discarded state.
    fn cascade(&mut self, seeds: Vec<(AgentId, Step)>) -> Result<(), StoreError> {
        let mut work: VecDeque<(AgentId, Step)> = seeds.into();
        let mut rollback: IdMap<u32, (Step, S::Pos)> = IdMap::default();
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        while let Some((x, u)) = work.pop_front() {
            // An execution in flight at or above the squash point is
            // reading discarded state: poison it.
            if let Some(cid) = self.inflight_of[x.index()] {
                let rec = self
                    .inflight
                    .get_mut(&cid)
                    .expect("inflight_of is consistent");
                if rec.inst.step >= u {
                    rec.poisoned = true;
                }
            }
            let dropped = self.table.squash_from(x, u);
            if dropped.is_empty() {
                continue;
            }
            touched.insert(x.0);
            let low = dropped[0];
            match rollback.get(&x.0) {
                Some((prev, _)) if *prev <= low.step => {}
                _ => {
                    rollback.insert(x.0, (low.step, low.start_pos));
                }
            }
            for e in &dropped {
                self.squash_log.push((e.agent, e.step));
                self.stats.squashed_steps += 1;
                if let Some(inst) = self.table.remove_instance(e.instance) {
                    for p in &inst.members {
                        if *p != x {
                            work.push_back((*p, e.step));
                        }
                    }
                    self.recycle(inst);
                }
            }
            // Executions that observed any of the discarded states.
            let new_step = rollback[&x.0].0;
            for seq in self.table.observers_above(x, new_step) {
                if let Some(inst) = self.table.instance(seq) {
                    for p in &inst.members {
                        work.push_back((*p, inst.step));
                    }
                }
            }
        }
        if !rollback.is_empty() {
            let mut batch: Vec<(AgentId, Step, S::Pos)> = rollback
                .iter()
                .map(|(a, (s, p))| (AgentId(*a), *s, *p))
                .collect();
            batch.sort_unstable_by_key(|(a, _, _)| a.0);
            self.core.graph_mut().rollback(&batch)?;
        }
        for a in touched {
            // In-flight agents are requeued when their poisoned
            // completion arrives.
            if self.inflight_of[a as usize].is_none() {
                self.core.reopen(AgentId(a));
            }
        }
        Ok(())
    }

    /// Retires every instance whose reads can no longer be invalidated.
    fn run_retirement(&mut self) {
        let mut candidates = std::mem::take(&mut self.candidates);
        while let Some((_, seq)) = self.retire_dirty.pop_first() {
            self.try_retire_instance(seq, &mut candidates);
        }
        self.candidates = candidates;
    }

    fn try_retire_instance(&mut self, seq: u64, candidates: &mut Vec<u32>) {
        let Some(inst) = self.table.instance(seq) else {
            return; // squashed since it was queued
        };
        // Entries retire oldest-first: every member's front entry must be
        // this instance (predecessors retired). Re-queued when the
        // predecessor's instance retires.
        for m in &inst.members {
            match self.table.front(*m) {
                Some(e) if e.instance == seq => {}
                _ => return,
            }
        }
        // Everything this execution read must itself be final. Re-queued
        // when the observed entry retires (or squashed along with it).
        for (y, q) in &inst.observed {
            if q.0 > 0 && self.table.has_step(*y, Step(q.0 - 1)) {
                return;
            }
        }
        // Clearance: no agent may still write into the read region —
        // including by rolling back and re-executing, so agents with live
        // entries are assessed from their rollback floor (their oldest
        // entry), not their current state.
        let blocker = (inst.members.iter().zip(&inst.starts)).find_map(|(m, start)| {
            self.clearance_blocker(&inst.members, *m, *start, inst.step, candidates)
        });
        if let Some(b) = blocker {
            self.retire_watch.entry(b.0).or_default().push(seq);
            return;
        }
        // Retire the whole instance atomically.
        let inst = self
            .table
            .remove_instance(seq)
            .expect("looked up at the top");
        for m in &inst.members {
            let retired = self.table.retire_front(*m);
            debug_assert_eq!(retired.instance, seq);
            self.stats.retired_steps += 1;
            if let Some(next) = self.table.front(*m) {
                self.retire_dirty.insert((next.step.0, next.instance));
            }
            for obs in self.table.observers_above(*m, retired.step) {
                if let Some(i2) = self.table.instance(obs) {
                    self.retire_dirty.insert((i2.step.0, obs));
                }
            }
            self.wake_retire_watch(*m);
        }
        self.recycle(inst);
    }

    /// First agent that could still write into `ball(start, radius_p)` at
    /// step `step`, where `start` is member `member`'s — the §3.2 blocking
    /// rule evaluated from each agent's deepest possible rollback state.
    /// Each half takes a superset of the agents it assesses (see the
    /// [module docs](self)) and applies each candidate's own radius.
    fn clearance_blocker(
        &self,
        members: &[AgentId],
        member: AgentId,
        start: S::Pos,
        step: Step,
        candidates: &mut Vec<u32>,
    ) -> Option<AgentId> {
        let (space, graph) = (&self.space, self.graph());
        // Agents without live entries: assessed at their current state,
        // first in (step, id) order.
        let lowest = graph.min_step();
        if lowest <= step {
            candidates.clear();
            let reach = self.params.blocking_units(step.0 - lowest.0);
            graph.blockers_within(member, start, reach, candidates);
            let mut first: Option<(Step, AgentId)> = None;
            for &b in candidates.iter() {
                let b = AgentId(b);
                let tb = graph.step(b);
                if tb > step || first.is_some_and(|f| f <= (tb, b)) {
                    continue;
                }
                if members.contains(&b) || self.table.stack_len(b) > 0 {
                    continue; // co-members retire together; entry-holders below
                }
                let units = self.params.blocking_units(step.0 - tb.0);
                if space.within_units(start, graph.pos(b), units) {
                    first = Some((tb, b));
                }
            }
            if let Some((_, b)) = first {
                return Some(b);
            }
        }
        // Agents with live entries could squash back to their oldest
        // entry and re-execute from there; first in id order.
        let oldest = self.table.min_live_step()?;
        if oldest > step {
            return None;
        }
        candidates.clear();
        let reach = self.params.blocking_units(step.0 - oldest.0);
        self.table.floors_near(start, reach, candidates);
        let mut first: Option<AgentId> = None;
        for &b in candidates.iter() {
            let b = AgentId(b);
            if members.contains(&b) || first.is_some_and(|f| f <= b) {
                continue;
            }
            let Some(front) = self.table.front(b) else {
                continue; // named by the no-index fallback only
            };
            if front.step > step {
                continue;
            }
            let units = self.params.blocking_units(step.0 - front.step.0);
            if space.within_units(start, front.start_pos, units) {
                first = Some(b);
            }
        }
        first
    }
}

/// The speculative scheduler as the virtual-time kernel sees it: an
/// execution may be refused on completion or squashed after it.
impl<S: Space, G: DepTracker<S>> Controller<S::Pos> for SpecScheduler<S, G> {
    const SPECULATIVE: bool = true;

    fn ready(&mut self) -> Result<Vec<Cluster>, StoreError> {
        self.ready_clusters()
    }

    fn complete(
        &mut self,
        cluster: &ClusterId,
        new_pos: &[(AgentId, S::Pos)],
    ) -> Result<bool, StoreError> {
        SpecScheduler::complete(self, cluster, new_pos).map(|outcome| outcome.committed)
    }

    fn drain_squashed(&mut self) -> Vec<(AgentId, Step)> {
        SpecScheduler::drain_squashed(self)
    }

    fn is_done(&self) -> bool {
        SpecScheduler::is_done(self)
    }

    fn inflight_len(&self) -> usize {
        SpecScheduler::inflight_len(self)
    }

    fn finish(&mut self) {
        self.core.graph_mut().harvest_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};

    const A: AgentId = AgentId(0);
    const B: AgentId = AgentId(1);
    const C: AgentId = AgentId(2);

    fn sched(points: &[(i32, i32)], runahead: u32, target: u32) -> SpecScheduler<GridSpace> {
        let space = Arc::new(GridSpace::new(400, 400));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        SpecScheduler::new(
            space,
            RuleParams::genagent(),
            SpecParams::new(runahead),
            Arc::new(Db::new()),
            &initial,
            Step(target),
        )
        .unwrap()
    }

    /// Completes `c` in place (agents stay put).
    fn finish(s: &mut SpecScheduler<GridSpace>, c: &Cluster) -> CommitOutcome {
        let pos: Vec<(AgentId, Point)> =
            c.members.iter().map(|m| (*m, s.graph().pos(*m))).collect();
        s.complete(&c.id, &pos).unwrap()
    }

    /// Completes `c` moving `mover` to `to` (others stay put).
    fn finish_moving(
        s: &mut SpecScheduler<GridSpace>,
        c: &Cluster,
        mover: AgentId,
        to: Point,
    ) -> CommitOutcome {
        let pos: Vec<(AgentId, Point)> = c
            .members
            .iter()
            .map(|m| (*m, if *m == mover { to } else { s.graph().pos(*m) }))
            .collect();
        s.complete(&c.id, &pos).unwrap()
    }

    /// Runs `agent`'s singleton clusters to exhaustion (stationary),
    /// returning how many executions committed.
    fn run_solo(s: &mut SpecScheduler<GridSpace>, agent: AgentId) -> u32 {
        let mut advanced = 0;
        loop {
            let ready = s.ready_clusters().unwrap();
            let Some(c) = ready.iter().find(|c| c.members == vec![agent]) else {
                assert!(ready.is_empty(), "unexpected clusters: {ready:?}");
                return advanced;
            };
            let c = c.clone();
            if finish(s, &c).committed {
                advanced += 1;
            }
        }
    }

    /// Drives the scheduler to completion with stationary agents.
    fn drain(s: &mut SpecScheduler<GridSpace>) {
        let mut safety = 0;
        while !s.is_done() {
            let ready = s.ready_clusters().unwrap();
            assert!(
                !ready.is_empty() || s.inflight_len() > 0,
                "no ready clusters and nothing in flight: deadlock"
            );
            for c in ready {
                finish(s, &c);
            }
            safety += 1;
            assert!(safety < 10_000, "failed to converge");
        }
    }

    #[test]
    fn conservative_mode_matches_blocking_rule() {
        // Agents 10 apart; with runahead 0 agent B stops exactly where the
        // conservative scheduler stops: blocked at gap 5 (10 <= (5+1)+4).
        let mut s = sched(&[(0, 0), (10, 0)], 0, 20);
        let ready = s.ready_clusters().unwrap();
        assert_eq!(ready.len(), 2);
        finish(&mut s, &ready[1]);
        let advanced = 1 + run_solo(&mut s, B);
        assert_eq!(advanced, 5);
        assert_eq!(s.stats().emitted_spec, 0);
        assert_eq!(
            s.stats().spec_denied,
            0,
            "disabled speculation is not 'denied'"
        );
        assert_eq!(
            s.live_entries(),
            0,
            "conservative executions retire eagerly"
        );
    }

    #[test]
    fn speculation_runs_past_conservative_block() {
        let mut s = sched(&[(0, 0), (10, 0)], 3, 20);
        let ready = s.ready_clusters().unwrap();
        finish(&mut s, &ready[1]);
        let advanced = 1 + run_solo(&mut s, B);
        assert_eq!(advanced, 8, "5 conservative + 3 speculative");
        assert_eq!(s.stats().emitted_spec, 3);
        assert_eq!(s.live_entries(), 3, "speculative entries await validation");
        assert!(s.stats().spec_denied >= 1, "budget exhaustion recorded");
    }

    #[test]
    fn distant_laggard_commit_retires_runahead() {
        let mut s = sched(&[(0, 0), (10, 0)], 3, 20);
        let ready = s.ready_clusters().unwrap();
        let c0 = ready[0].clone();
        finish(&mut s, &ready[1]);
        run_solo(&mut s, B);
        assert_eq!(s.live_entries(), 3);
        // The laggard commits step 0 in place: no overlap (distance 10 >
        // coupling 5), and its advance retires the now-cleared entry.
        let out = finish(&mut s, &c0);
        assert!(out.committed);
        assert!(s.drain_squashed().is_empty());
        assert_eq!(s.live_entries(), 2, "entry at gap-cleared step retired");
        assert_eq!(s.stats().squashed_steps, 0);
    }

    #[test]
    fn emission_squash_rolls_back_overlapping_runahead() {
        // B speculates two steps while A's step 0 is in flight; A then
        // advances next to B's read region: emission of A's step-1
        // cluster squashes B's stale entries, and the two agents couple.
        let mut s = sched(&[(0, 0), (6, 0)], 2, 20);
        let ready = s.ready_clusters().unwrap();
        let c_a = ready[0].clone();
        finish(&mut s, &ready[1]);
        let advanced = 1 + run_solo(&mut s, B);
        assert_eq!(advanced, 3, "1 firm + 2 speculative");
        assert_eq!(s.live_entries(), 2);
        // A commits step 0 one cell toward B: its *start* (0,0) is 6 away
        // from B's entries, so the commit itself does not race...
        let out = finish_moving(&mut s, &c_a, A, Point::new(1, 0));
        assert!(out.committed);
        assert!(s.drain_squashed().is_empty());
        // ...but A's next emission from (1,0) is 5 away: squash, then
        // couple.
        let ready = s.ready_clusters().unwrap();
        assert_eq!(s.drain_squashed(), vec![(B, Step(1)), (B, Step(2))]);
        assert_eq!(
            s.graph().step(B),
            Step(1),
            "rolled back to first stale step"
        );
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].members, vec![A, B], "squashed agent re-couples");
        assert_eq!(ready[0].step, Step(1));
        finish(&mut s, &ready[0]);
        drain(&mut s);
        assert!(s.is_done());
        assert_eq!(s.graph().step(A), Step(20));
        assert_eq!(s.graph().step(B), Step(20));
    }

    #[test]
    fn inflight_speculation_is_poisoned_not_preempted() {
        let mut s = sched(&[(0, 0), (6, 0)], 2, 20);
        let ready = s.ready_clusters().unwrap();
        let c_a = ready[0].clone();
        finish(&mut s, &ready[1]); // B step 0 (firm, retires)
        let c_b1 = s.ready_clusters().unwrap()[0].clone();
        finish(&mut s, &c_b1); // B step 1 (speculative, entry lives)
        assert_eq!(s.live_entries(), 1);
        let c_b2 = s.ready_clusters().unwrap()[0].clone();
        assert_eq!(c_b2.step, Step(2));
        // Hold B's step-2 speculation in flight; A commits toward B.
        let out = finish_moving(&mut s, &c_a, A, Point::new(1, 0));
        assert!(out.committed);
        // A's step-1 emission squashes B's entry AND poisons the flight.
        let ready = s.ready_clusters().unwrap();
        assert_eq!(s.drain_squashed(), vec![(B, Step(1))]);
        assert_eq!(ready.len(), 1, "A executes alone; B is still in flight");
        assert_eq!(ready[0].members, vec![A]);
        let poisoned = finish(&mut s, &c_b2);
        assert!(
            !poisoned.committed,
            "poisoned in-flight result must be dropped"
        );
        assert_eq!(s.stats().poisoned_clusters, 1);
        assert_eq!(
            s.graph().step(B),
            Step(1),
            "B re-executes from the squash point"
        );
        finish(&mut s, &ready[0]);
        drain(&mut s);
        assert!(s.is_done());
    }

    #[test]
    fn certain_race_speculation_is_denied() {
        // B walks adjacent to the unexecuted laggard: any further
        // speculation is guaranteed to be squashed, so it is denied.
        let mut s = sched(&[(0, 0), (6, 0)], 4, 20);
        let ready = s.ready_clusters().unwrap();
        finish(&mut s, &ready[1]); // firm step 0
        let c_b1 = s.ready_clusters().unwrap()[0].clone();
        finish_moving(&mut s, &c_b1, B, Point::new(5, 0)); // spec step 1
        assert_eq!(s.live_entries(), 1);
        let denied_at = s.stats().spec_denied;
        assert!(
            s.ready_clusters().unwrap().is_empty(),
            "B must not run further"
        );
        assert_eq!(s.stats().spec_denied, denied_at + 1);
        assert_eq!(s.live_entries(), 1, "no new speculative work");
    }

    #[test]
    fn same_step_inflight_defers_emission() {
        // B's speculative step 2 is in flight when A arrives at step 2
        // within coupling range: A defers, B's stale result is then
        // squashed, and the two couple.
        let mut s = sched(&[(0, 0), (7, 0)], 2, 20);
        let ready = s.ready_clusters().unwrap();
        let c_a0 = ready[0].clone();
        finish(&mut s, &ready[1]); // B step 0 firm
        let c_b1 = s.ready_clusters().unwrap()[0].clone();
        finish(&mut s, &c_b1); // B step 1 firm (7 > blocking 6)
        let c_b2 = s.ready_clusters().unwrap()[0].clone();
        assert_eq!(c_b2.step, Step(2), "B blocked at step 2 → speculative");
        // Hold c_b2 in flight. A walks two steps to (2,0).
        finish_moving(&mut s, &c_a0, A, Point::new(1, 0));
        let c_a1 = s.ready_clusters().unwrap()[0].clone();
        finish_moving(&mut s, &c_a1, A, Point::new(2, 0));
        // A's step-2 cluster would sit within coupling of in-flight B@2.
        assert!(s.ready_clusters().unwrap().is_empty(), "A must defer");
        assert_eq!(s.stats().deferrals, 1);
        // B's completion wakes A; its entry is then squashed at A's
        // emission and the agents couple at step 2.
        finish(&mut s, &c_b2);
        let ready = s.ready_clusters().unwrap();
        assert_eq!(s.drain_squashed(), vec![(B, Step(2))]);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].members, vec![A, B]);
        assert_eq!(ready[0].step, Step(2));
        finish(&mut s, &ready[0]);
        drain(&mut s);
        assert!(s.is_done());
    }

    #[test]
    fn coupled_speculation_squashes_partners_together() {
        // B and C are permanently coupled; both speculate past A. A race
        // against B's entries must take partner C's executions down too.
        let mut s = sched(&[(0, 0), (6, 0), (8, 0)], 2, 20);
        let ready = s.ready_clusters().unwrap();
        assert_eq!(ready.len(), 2);
        let c_a = ready[0].clone();
        assert_eq!(ready[1].members, vec![B, C]);
        let mut c_bc = ready[1].clone();
        loop {
            finish(&mut s, &c_bc);
            let next = s.ready_clusters().unwrap();
            let Some(c) = next.first() else { break };
            c_bc = c.clone();
        }
        assert_eq!(s.live_entries(), 4, "two speculative joint steps");
        finish_moving(&mut s, &c_a, A, Point::new(1, 0));
        let ready = s.ready_clusters().unwrap();
        let squashed = s.drain_squashed();
        assert!(squashed.contains(&(B, Step(1))));
        assert!(
            squashed.contains(&(C, Step(1))),
            "partner rolled back: {squashed:?}"
        );
        assert_eq!(squashed.len(), 4);
        assert_eq!(s.graph().step(C), Step(1));
        assert_eq!(ready.len(), 1);
        assert_eq!(
            ready[0].members,
            vec![A, B, C],
            "all three couple after the squash"
        );
        finish(&mut s, &ready[0]);
        drain(&mut s);
        assert!(s.is_done());
    }

    #[test]
    fn successful_speculation_validates_after_laggard_passes() {
        // B finishes the whole run speculatively; once A (far enough to
        // never interact) catches up, everything retires with zero waste.
        let mut s = sched(&[(0, 0), (6, 0)], 4, 3);
        let ready = s.ready_clusters().unwrap();
        let c_a = ready[0].clone();
        finish(&mut s, &ready[1]);
        run_solo(&mut s, B);
        assert_eq!(
            s.graph().step(B),
            Step(3),
            "B reached the target speculatively"
        );
        assert!(!s.is_done(), "unvalidated speculation is not done");
        assert_eq!(s.live_entries(), 2);
        finish(&mut s, &c_a);
        drain(&mut s);
        assert!(s.is_done());
        assert_eq!(
            s.stats().squashed_steps,
            0,
            "no waste when speculation wins"
        );
        assert_eq!(s.stats().emitted_spec, 2);
        assert_eq!(s.stats().retired_steps, 6);
    }

    #[test]
    fn single_agent_trivially_completes() {
        let mut s = sched(&[(5, 5)], 4, 10);
        drain(&mut s);
        assert!(s.is_done());
        assert_eq!(s.stats().retired_steps, 10);
        assert_eq!(s.stats().emitted_spec, 0);
    }

    #[test]
    fn distant_agents_never_speculate() {
        let mut s = sched(&[(0, 0), (200, 200)], 4, 3);
        drain(&mut s);
        let st = s.stats();
        assert_eq!(st.emitted_spec, 0);
        assert_eq!(st.emitted_firm, 6);
        assert_eq!(st.retired_steps, 6);
        assert_eq!(st.waste_ratio(), 0.0);
    }

    #[test]
    fn completion_validation_panics_on_bad_cluster() {
        let mut s = sched(&[(0, 0)], 0, 2);
        let _ready = s.ready_clusters().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.complete(&ClusterId(999), &[]).unwrap();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn complete_rejects_a_repeated_member_before_changing_anything() {
        let mut s = sched(&[(0, 0), (5, 0)], 2, 3);
        let ready = s.ready_clusters().unwrap();
        assert_eq!(ready[0].members, vec![A, B]);
        let twice = [(A, Point::new(1, 0)), (A, Point::new(2, 0))];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.complete(&ready[0].id, &twice)
        }));
        assert!(result.is_err(), "a repeated member must be rejected");
        assert_eq!(s.graph().step(A), Step(0), "the store moved");
        assert_eq!(s.inflight_len(), 1, "the cluster left flight");
        // The rejected call changed nothing: the run still completes.
        finish(&mut s, &ready[0]);
        drain(&mut s);
        assert_eq!(s.stats().retired_steps, 6);
    }

    #[test]
    fn complete_rejects_a_move_past_max_vel_before_changing_anything() {
        let mut s = sched(&[(0, 0), (5, 0)], 2, 3);
        let ready = s.ready_clusters().unwrap();
        assert_eq!(ready[0].members, vec![A, B]);
        // max_vel is 1: a diagonal step is √2 units.
        let far = [(A, Point::new(1, 1)), (B, Point::new(5, 0))];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.complete(&ready[0].id, &far)
        }));
        assert!(result.is_err(), "a move past max_vel must be rejected");
        assert_eq!(s.graph().step(A), Step(0), "the store moved");
        assert_eq!(s.graph().pos(A), Point::new(0, 0), "the store moved");
        assert_eq!(s.inflight_len(), 1, "the cluster left flight");
        // The rejected call changed nothing: a move of exactly max_vel
        // is accepted and the run still completes.
        assert!(finish_moving(&mut s, &ready[0], A, Point::new(1, 0)).committed);
        drain(&mut s);
        assert_eq!(s.stats().retired_steps, 6);
    }

    #[test]
    fn skew_is_tracked() {
        let mut s = sched(&[(0, 0), (100, 100)], 2, 4);
        let ready = s.ready_clusters().unwrap();
        finish(&mut s, &ready[1]);
        run_solo(&mut s, B);
        assert_eq!(s.current_skew(), 4);
        assert!(s.stats().max_step_skew >= 4);
    }
}
