//! Bookkeeping for speculative executions: per-agent entry stacks, the
//! cluster instances they ran in, and the observation index used for
//! cascading invalidation.
//!
//! An **entry** records one optimistically executed agent-step: the
//! position the agent read the world from (`start_pos`), where it ended
//! up, and which cluster instance it executed with. Entries live from
//! commit until they either *retire* (validated — popped from the front
//! of the agent's stack, oldest first) or are *squashed* (invalidated —
//! popped from the back, newest first). The two disciplines never
//! interleave on the same entry, so each agent's live entries always form
//! a contiguous run of steps.
//!
//! The table also answers the scheduler's spatial questions from two
//! indexes it keeps in step with the stacks:
//!
//! * "which agents hold a live entry that started near here?" — every
//!   live entry is filed under its `start_pos` with its agent's id, so an
//!   agent with several unretired steps is indexed at several positions
//!   (the duplicate-id contract of [`SpatialIndex`]);
//! * "whose rollback floor started near here?" — only each holder's
//!   front (oldest) entry, the deepest state a squash could rewind it
//!   to, so every holder is indexed once.

use std::collections::VecDeque;
use std::fmt;

use crate::ids::{AgentId, Step};
use crate::space::{query_or_all, IdMap, SpatialIndex};
use crate::step_counts::StepCounts;

/// One speculatively executed (unretired) agent-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecEntry<P> {
    /// The executing agent.
    pub agent: AgentId,
    /// The step this execution performed.
    pub step: Step,
    /// Position the step was executed from (the agent's state after
    /// `step - 1`); its perception ball is centered here.
    pub start_pos: P,
    /// Position after the step committed.
    pub end_pos: P,
    /// The cluster instance this execution belonged to.
    pub instance: u64,
}

/// One cluster execution, from emission to retirement: in flight it
/// belongs to the scheduler; once committed it lives here for as long as
/// its entries do. The record is recycled whole, so its buffers are
/// allocated once.
#[derive(Debug)]
pub(crate) struct Instance<P> {
    pub step: Step,
    pub members: Vec<AgentId>,
    /// Member start positions at emission, aligned with `members`.
    pub starts: Vec<P>,
    /// `(agent, graph step at observation)`: speculative states within
    /// perception range that this execution read. Invalidated when the
    /// observed agent squashes below the observed step.
    pub observed: Vec<(AgentId, Step)>,
}

impl<P> Default for Instance<P> {
    fn default() -> Self {
        Instance {
            step: Step::ZERO,
            members: Vec::new(),
            starts: Vec::new(),
            observed: Vec::new(),
        }
    }
}

/// The live-entry table: stacks, instances, the observation index and
/// the spatial indexes over entry and front-entry start positions.
pub struct EntryTable<P> {
    stacks: Vec<VecDeque<SpecEntry<P>>>,
    instances: IdMap<u64, Instance<P>>,
    /// observed agent → `(observed step, observing instance)`; cleaned
    /// lazily (dead instances are skipped on read).
    observers: IdMap<u32, Vec<(u32, u64)>>,
    /// Every live entry as `(agent id, start_pos)`; `None` for spaces
    /// without an index, where [`EntryTable::holders_near`] names every
    /// agent instead.
    index: Option<Box<dyn SpatialIndex<P>>>,
    /// Every holder's front entry as `(agent id, start_pos)`; `None`
    /// alongside `index`.
    fronts: Option<Box<dyn SpatialIndex<P>>>,
    /// Live entries per step. Its lowest step bounds how far back any
    /// agent could still roll, hence how wide a clearance query must be.
    per_step: StepCounts,
    live: usize,
}

impl<P> fmt::Debug for EntryTable<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EntryTable")
            .field("agents", &self.stacks.len())
            .field("live_entries", &self.live)
            .field("instances", &self.instances.len())
            .finish()
    }
}

impl<P: Copy + fmt::Debug + PartialEq + 'static> EntryTable<P> {
    /// Creates an empty table for `num_agents` agents, filing entries in
    /// `index` and front entries in `fronts` (empty indexes from
    /// [`crate::space::Space::make_index`], or `None` if the space has
    /// none).
    pub fn new(
        num_agents: usize,
        index: Option<Box<dyn SpatialIndex<P>>>,
        fronts: Option<Box<dyn SpatialIndex<P>>>,
    ) -> Self {
        EntryTable {
            stacks: (0..num_agents).map(|_| VecDeque::new()).collect(),
            instances: IdMap::default(),
            observers: IdMap::default(),
            index,
            fronts,
            per_step: StepCounts::default(),
            live: 0,
        }
    }

    /// Total live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live entries of `agent`, oldest first.
    pub fn stack(&self, agent: AgentId) -> impl Iterator<Item = &SpecEntry<P>> {
        self.stacks[agent.index()].iter()
    }

    /// Number of live entries of `agent`.
    pub fn stack_len(&self, agent: AgentId) -> usize {
        self.stacks[agent.index()].len()
    }

    /// The oldest live entry of `agent`.
    pub fn front(&self, agent: AgentId) -> Option<&SpecEntry<P>> {
        self.stacks[agent.index()].front()
    }

    /// Whether `agent`'s state after `step` is still speculative, i.e. a
    /// live entry for `step` exists.
    pub fn has_step(&self, agent: AgentId, step: Step) -> bool {
        let stack = &self.stacks[agent.index()];
        match (stack.front(), stack.back()) {
            (Some(f), Some(b)) => f.step <= step && step <= b.step,
            _ => false,
        }
    }

    /// The lowest step any live entry is at.
    pub fn min_live_step(&self) -> Option<Step> {
        self.per_step.bounds().map(|(lo, _)| Step(lo))
    }

    /// Appends to `out` the id of every agent that may hold a live entry
    /// whose `start_pos` is within `units` of `center`: a superset in no
    /// particular order, once per matching entry — or every agent id
    /// when the space has no index. `out` is not cleared; callers walk
    /// the candidates' [`stack`](EntryTable::stack)s and re-check.
    pub fn holders_near(&self, center: P, units: u64, out: &mut Vec<u32>) {
        query_or_all(self.index.as_deref(), self.stacks.len(), center, units, out);
    }

    /// Appends to `out` the id of every agent whose [`front`](EntryTable::front)
    /// entry — its rollback floor — may have started within `units` of
    /// `center`: a superset in no particular order, each holder at most
    /// once — or every agent id when the space has no index. `out` is
    /// not cleared.
    pub fn floors_near(&self, center: P, units: u64, out: &mut Vec<u32>) {
        query_or_all(
            self.fronts.as_deref(),
            self.stacks.len(),
            center,
            units,
            out,
        );
    }

    /// Files `entry` as its agent's new front.
    fn file_front(&mut self, entry: &SpecEntry<P>) {
        if let Some(idx) = self.fronts.as_mut() {
            idx.insert(entry.agent.0, entry.start_pos);
        }
    }

    /// Unfiles `entry`, which was its agent's front.
    fn unfile_front(&mut self, entry: &SpecEntry<P>) {
        if let Some(idx) = self.fronts.as_mut() {
            idx.remove(entry.agent.0, entry.start_pos);
        }
    }

    fn file(&mut self, entry: &SpecEntry<P>) {
        if let Some(idx) = self.index.as_mut() {
            idx.insert(entry.agent.0, entry.start_pos);
        }
        self.per_step.add(entry.step.0);
        self.live += 1;
    }

    fn unfile(&mut self, entry: &SpecEntry<P>) {
        if let Some(idx) = self.index.as_mut() {
            idx.remove(entry.agent.0, entry.start_pos);
        }
        self.per_step.remove(entry.step.0);
        self.live -= 1;
    }

    /// Records a committed cluster execution: one entry per member, each
    /// ending where `new_pos` says.
    ///
    /// # Panics
    ///
    /// Panics if a member's new entry does not directly follow its stack
    /// (live steps must stay contiguous) or `new_pos` lacks a member.
    pub(crate) fn push_instance(&mut self, seq: u64, inst: Instance<P>, new_pos: &[(AgentId, P)]) {
        debug_assert!(!inst.members.is_empty());
        debug_assert_eq!(inst.members.len(), inst.starts.len());
        let step = inst.step;
        for (agent, start) in inst.members.iter().zip(&inst.starts) {
            let end_pos = new_pos
                .iter()
                .find(|(a, _)| a == agent)
                .map(|(_, p)| *p)
                .unwrap_or_else(|| panic!("{agent} has no end position"));
            let entry = SpecEntry {
                agent: *agent,
                step,
                start_pos: *start,
                end_pos,
                instance: seq,
            };
            let stack = &mut self.stacks[agent.index()];
            match stack.back() {
                Some(back) => assert_eq!(
                    back.step.next(),
                    step,
                    "{agent} entry for {step} must follow {}",
                    back.step
                ),
                None => self.file_front(&entry),
            }
            self.stacks[agent.index()].push_back(entry);
            self.file(&entry);
        }
        for (obs, at) in &inst.observed {
            self.observers.entry(obs.0).or_default().push((at.0, seq));
        }
        let prev = self.instances.insert(seq, inst);
        debug_assert!(prev.is_none(), "instance {seq} recorded twice");
    }

    /// The instance record for `seq`, if its entries are still live.
    pub(crate) fn instance(&self, seq: u64) -> Option<&Instance<P>> {
        self.instances.get(&seq)
    }

    /// Drops `agent`'s entries at steps `>= step` (newest first),
    /// returning them oldest-first. Dropping the front too empties the
    /// stack, and the agent leaves the front index.
    ///
    /// Instance records are *not* removed: the squash cascade needs their
    /// member lists to roll cluster partners back, and removes each record
    /// once via `remove_instance`.
    pub fn squash_from(&mut self, agent: AgentId, step: Step) -> Vec<SpecEntry<P>> {
        let mut dropped = Vec::new();
        while self.stacks[agent.index()]
            .back()
            .is_some_and(|e| e.step >= step)
        {
            let entry = self.stacks[agent.index()]
                .pop_back()
                .expect("checked non-empty");
            self.unfile(&entry);
            dropped.push(entry);
        }
        dropped.reverse();
        if self.stacks[agent.index()].is_empty() {
            if let Some(front) = dropped.first() {
                self.unfile_front(front);
            }
        }
        dropped
    }

    /// Retires the oldest entry of `agent`.
    ///
    /// The caller (the retirement pass) must retire whole instances: it
    /// removes the instance record once via `remove_instance` and pops
    /// each member's front entry with this method.
    ///
    /// # Panics
    ///
    /// Panics if `agent` has no live entries.
    pub fn retire_front(&mut self, agent: AgentId) -> SpecEntry<P> {
        let entry = self.stacks[agent.index()]
            .pop_front()
            .unwrap_or_else(|| panic!("{agent} has no live entries"));
        self.unfile(&entry);
        self.unfile_front(&entry);
        if let Some(&next) = self.stacks[agent.index()].front() {
            self.file_front(&next);
        }
        entry
    }

    /// Removes an instance record (used by retirement; squash removes
    /// records as it drops entries).
    pub(crate) fn remove_instance(&mut self, seq: u64) -> Option<Instance<P>> {
        self.instances.remove(&seq)
    }

    /// Live instances that observed `agent` at a step strictly greater
    /// than `step` — their reads consumed state that a squash of `agent`
    /// back to `step` discards.
    pub fn observers_above(&mut self, agent: AgentId, step: Step) -> Vec<u64> {
        let Some(list) = self.observers.get_mut(&agent.0) else {
            return Vec::new();
        };
        // Lazily drop edges whose instance is gone.
        list.retain(|(_, seq)| self.instances.contains_key(seq));
        let out: Vec<u64> = list
            .iter()
            .filter(|(at, _)| Step(*at) > step)
            .map(|(_, seq)| *seq)
            .collect();
        if list.is_empty() {
            self.observers.remove(&agent.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point, Space};

    fn table(num_agents: usize) -> EntryTable<Point> {
        let space = GridSpace::new(100, 100);
        EntryTable::new(num_agents, space.make_index(5), space.make_index(5))
    }

    /// Records instance `seq` at `step` with `(agent, x)` members, each
    /// starting at `(x, 0)` and ending one cell east.
    fn push(
        t: &mut EntryTable<Point>,
        seq: u64,
        step: u32,
        members: &[(u32, i32)],
        observed: Vec<(AgentId, Step)>,
    ) {
        let inst = Instance {
            step: Step(step),
            members: members.iter().map(|&(a, _)| AgentId(a)).collect(),
            starts: members.iter().map(|&(_, x)| Point::new(x, 0)).collect(),
            observed,
        };
        let ends: Vec<(AgentId, Point)> = members
            .iter()
            .map(|&(a, x)| (AgentId(a), Point::new(x + 1, 0)))
            .collect();
        t.push_instance(seq, inst, &ends);
    }

    fn holders_near(t: &EntryTable<Point>, x: i32, units: u64) -> Vec<u32> {
        let mut out = Vec::new();
        t.holders_near(Point::new(x, 0), units, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn push_and_query_stack() {
        let mut t = table(3);
        assert!(t.is_empty());
        assert_eq!(t.min_live_step(), None);
        push(&mut t, 0, 0, &[(1, 5)], vec![]);
        push(&mut t, 1, 1, &[(1, 6)], vec![]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.stack_len(AgentId(1)), 2);
        assert_eq!(t.stack_len(AgentId(0)), 0);
        assert_eq!(t.front(AgentId(1)).unwrap().step, Step(0));
        assert_eq!(t.front(AgentId(1)).unwrap().end_pos, Point::new(6, 0));
        assert!(t.has_step(AgentId(1), Step(0)));
        assert!(t.has_step(AgentId(1), Step(1)));
        assert!(!t.has_step(AgentId(1), Step(2)));
        assert!(!t.has_step(AgentId(0), Step(0)));
        assert_eq!(t.stack(AgentId(1)).count(), 2);
        assert_eq!(t.min_live_step(), Some(Step(0)));
    }

    #[test]
    fn push_joint_instance_records_members() {
        let mut t = table(3);
        push(&mut t, 7, 2, &[(0, 0), (2, 3)], vec![]);
        let inst = t.instance(7).unwrap();
        assert_eq!(inst.step, Step(2));
        assert_eq!(inst.members, vec![AgentId(0), AgentId(2)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must follow")]
    fn non_contiguous_push_panics() {
        let mut t = table(1);
        push(&mut t, 0, 0, &[(0, 0)], vec![]);
        push(&mut t, 1, 2, &[(0, 0)], vec![]);
    }

    #[test]
    fn squash_drops_newest_first_and_instances() {
        let mut t = table(1);
        for s in 0..4 {
            push(&mut t, s as u64, s, &[(0, s as i32)], vec![]);
        }
        let dropped = t.squash_from(AgentId(0), Step(2));
        assert_eq!(dropped.len(), 2);
        assert_eq!(dropped[0].step, Step(2), "returned oldest-first");
        assert_eq!(dropped[1].step, Step(3));
        assert_eq!(t.stack_len(AgentId(0)), 2);
        // Records stay until the cascade removes them explicitly.
        assert!(t.instance(2).is_some());
        for e in &dropped {
            t.remove_instance(e.instance);
        }
        assert!(t.instance(2).is_none());
        assert!(t.instance(3).is_none());
        assert!(t.instance(1).is_some());
        // Squashing below everything empties the stack.
        let rest = t.squash_from(AgentId(0), Step(0));
        assert_eq!(rest.len(), 2);
        assert!(t.is_empty());
        assert_eq!(t.min_live_step(), None);
    }

    #[test]
    fn squash_from_future_step_is_noop() {
        let mut t = table(1);
        push(&mut t, 0, 0, &[(0, 0)], vec![]);
        assert!(t.squash_from(AgentId(0), Step(5)).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn retire_pops_oldest() {
        let mut t = table(1);
        push(&mut t, 0, 3, &[(0, 0)], vec![]);
        push(&mut t, 1, 4, &[(0, 1)], vec![]);
        let retired = t.retire_front(AgentId(0));
        assert_eq!(retired.step, Step(3));
        assert_eq!(t.front(AgentId(0)).unwrap().step, Step(4));
        assert_eq!(t.min_live_step(), Some(Step(4)));
        t.remove_instance(0);
        assert!(t.instance(0).is_none());
    }

    #[test]
    fn observers_filter_by_step_and_liveness() {
        let mut t = table(3);
        // Instance 0 observed agent 2 at step 3; instance 1 at step 5.
        push(&mut t, 0, 6, &[(0, 0)], vec![(AgentId(2), Step(3))]);
        push(&mut t, 1, 6, &[(1, 50)], vec![(AgentId(2), Step(5))]);
        // Squash of agent 2 back to step 4 invalidates only instance 1.
        assert_eq!(t.observers_above(AgentId(2), Step(4)), vec![1]);
        // Squash to step 2 invalidates both.
        let mut both = t.observers_above(AgentId(2), Step(2));
        both.sort_unstable();
        assert_eq!(both, vec![0, 1]);
        // Dead instances are skipped (and cleaned).
        for e in t.squash_from(AgentId(1), Step(6)) {
            t.remove_instance(e.instance);
        }
        assert_eq!(t.observers_above(AgentId(2), Step(2)), vec![0]);
    }

    #[test]
    fn observers_of_unobserved_agent_is_empty() {
        let mut t = table(2);
        assert!(t.observers_above(AgentId(0), Step(0)).is_empty());
    }

    #[test]
    fn contiguity_after_squash_then_push() {
        let mut t = table(1);
        push(&mut t, 0, 0, &[(0, 0)], vec![]);
        push(&mut t, 1, 1, &[(0, 1)], vec![]);
        t.squash_from(AgentId(0), Step(1));
        // Re-execution of step 1 pushes again at the back.
        push(&mut t, 2, 1, &[(0, 9)], vec![]);
        assert_eq!(t.stack_len(AgentId(0)), 2);
        assert_eq!(t.front(AgentId(0)).unwrap().step, Step(0));
    }

    #[test]
    fn index_follows_every_live_entry() {
        // Enough far-away holders that tight queries probe cells rather
        // than enumerate the population.
        let mut t = table(40);
        for a in 3..40u32 {
            push(
                &mut t,
                100 + a as u64,
                0,
                &[(a, 1000 + 10 * a as i32)],
                vec![],
            );
        }
        // Agent 0 ran three steps from x = 0, 40, 80; agent 1 one from 42.
        push(&mut t, 0, 0, &[(0, 0)], vec![]);
        push(&mut t, 1, 1, &[(0, 40)], vec![]);
        push(&mut t, 2, 2, &[(0, 80)], vec![]);
        push(&mut t, 3, 0, &[(1, 42)], vec![]);
        assert_eq!(holders_near(&t, 41, 3), vec![0, 1]);
        assert_eq!(holders_near(&t, 80, 3), vec![0]);
        assert!(holders_near(&t, 200, 3).is_empty());
        // Retiring the front drops only that occurrence of agent 0...
        t.retire_front(AgentId(0));
        assert!(holders_near(&t, 0, 3).is_empty());
        assert_eq!(holders_near(&t, 41, 3), vec![0, 1]);
        // ...and a squash drops the rest.
        t.squash_from(AgentId(0), Step(1));
        assert_eq!(holders_near(&t, 41, 3), vec![1]);
        assert!(holders_near(&t, 80, 3).is_empty());
    }

    #[test]
    fn front_index_files_each_holder_once_at_its_oldest_entry() {
        let floors_near = |t: &EntryTable<Point>, x: i32, units: u64| {
            let mut out = Vec::new();
            t.floors_near(Point::new(x, 0), units, &mut out);
            out.sort_unstable();
            out
        };
        // Far-away holders, as above, so queries probe cells.
        let mut t = table(40);
        for a in 3..40u32 {
            push(
                &mut t,
                100 + a as u64,
                0,
                &[(a, 1000 + 10 * a as i32)],
                vec![],
            );
        }
        // Pushing onto an empty stack files the front; later pushes do not.
        push(&mut t, 0, 0, &[(0, 0)], vec![]);
        push(&mut t, 1, 1, &[(0, 40)], vec![]);
        push(&mut t, 2, 2, &[(0, 80)], vec![]);
        push(&mut t, 3, 0, &[(1, 42)], vec![]);
        assert_eq!(floors_near(&t, 0, 3), vec![0]);
        assert_eq!(floors_near(&t, 41, 3), vec![1]);
        assert!(floors_near(&t, 80, 3).is_empty());
        // Retiring moves the front to the next entry.
        t.retire_front(AgentId(0));
        assert!(floors_near(&t, 0, 3).is_empty());
        assert_eq!(floors_near(&t, 41, 3), vec![0, 1]);
        // A squash that keeps the front leaves it filed...
        t.squash_from(AgentId(0), Step(2));
        assert_eq!(floors_near(&t, 41, 3), vec![0, 1]);
        // ...and one that empties the stack unfiles it.
        t.squash_from(AgentId(0), Step(1));
        assert_eq!(floors_near(&t, 41, 3), vec![1]);
        // A fresh push onto the emptied stack files it again.
        push(&mut t, 4, 1, &[(0, 80)], vec![]);
        assert_eq!(floors_near(&t, 80, 3), vec![0]);
        assert_eq!(floors_near(&t, 1000 + 10 * 7, 0), vec![7]);
    }

    #[test]
    fn without_an_index_every_agent_is_a_candidate() {
        let mut t: EntryTable<Point> = EntryTable::new(3, None, None);
        push(&mut t, 0, 0, &[(1, 5)], vec![]);
        assert_eq!(holders_near(&t, 500, 1), vec![0, 1, 2]);
        let mut floors = Vec::new();
        t.floors_near(Point::new(500, 0), 1, &mut floors);
        assert_eq!(floors, vec![0, 1, 2]);
        t.retire_front(AgentId(1));
        assert!(t.is_empty());
    }
}
