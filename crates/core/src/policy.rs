//! Dependency-management policies — the experiment arms of §4.2.
//!
//! * [`DependencyPolicy::GlobalSync`] — Algorithm 1: one global barrier per
//!   step (the paper's `parallel-sync`; with serialized agents it is also
//!   the `single-thread` baseline).
//! * [`DependencyPolicy::Spatiotemporal`] — AI Metropolis itself: the
//!   conservative coupling/blocking rules of §3.2.
//! * [`DependencyPolicy::Oracle`] — ground-truth dependencies mined from a
//!   finished trace (§4.2): agents synchronize only around steps where they
//!   *actually* appeared in each other's observation space. Unattainable
//!   online; an upper bound on dependency management.
//! * [`DependencyPolicy::NoDependency`] — all agents fully independent
//!   (§4.3's scaling lower bound; ignores causality).

use std::fmt;
use std::sync::Arc;

use crate::cluster::DisjointSets;
use crate::ids::{AgentId, Step};

/// Ground-truth per-step interaction structure extracted from a trace.
///
/// `OracleGraph` stores, for every step `s`, the connected components of
/// the *actual interaction graph* (pairs of agents within observation
/// range of each other during `s`). Under the oracle policy a component is
/// the unit of execution for step `s`: its members barrier with each other
/// before and after the step, and with nobody else.
///
/// The layout is flat: components are numbered step by step, each step's
/// in smallest-member order. `lookup[s * num_agents + a]` is agent `a`'s
/// component at step `s`, component `c` is `members[starts[c]..starts[c +
/// 1]]` (ascending), and step `s` owns components `steps[s]..steps[s + 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleGraph {
    num_agents: usize,
    lookup: Vec<u32>,
    members: Vec<u32>,
    starts: Vec<u32>,
    steps: Vec<u32>,
    /// Interaction degree sums for `avg_dependencies`.
    total_degree: u64,
}

impl OracleGraph {
    /// Builds the oracle from per-step interaction pairs.
    ///
    /// `per_step_pairs[s]` lists unordered agent pairs that interacted
    /// during step `s` (the miner uses "within perception radius", matching
    /// §4.2's "appear in each other's observation space").
    ///
    /// # Panics
    ///
    /// Panics if a pair references an agent `>= num_agents`, or the
    /// oracle would hold more than `u32::MAX` agent-steps.
    pub fn from_interactions(num_agents: usize, per_step_pairs: &[Vec<(u32, u32)>]) -> Self {
        let n = num_agents;
        let cells = per_step_pairs.len() * n;
        assert!(
            cells < u32::MAX as usize,
            "{cells} agent-steps exceed u32 ids"
        );
        let mut g = OracleGraph {
            num_agents,
            lookup: Vec::with_capacity(cells),
            members: vec![0; cells],
            starts: vec![0],
            steps: vec![0],
            total_degree: 0,
        };
        let mut ds = DisjointSets::new(n);
        // Per step: each root's component, then each component's next
        // free slot in `members`.
        let mut slot = vec![u32::MAX; n];
        let mut next = Vec::new();
        for (s, pairs) in per_step_pairs.iter().enumerate() {
            ds.reset();
            for &(a, b) in pairs {
                assert!(
                    (a as usize) < n && (b as usize) < n,
                    "interaction pair ({a},{b}) out of range"
                );
                ds.union(a as usize, b as usize);
                g.total_degree += 2;
            }
            // Counting pass: scanning agents in ascending order numbers
            // the components in smallest-member order and counts them.
            let first = g.starts.len() - 1;
            slot.fill(u32::MAX);
            next.clear();
            for a in 0..n {
                let root = ds.find(a);
                if slot[root] == u32::MAX {
                    slot[root] = (first + next.len()) as u32;
                    next.push(0u32);
                }
                g.lookup.push(slot[root]);
                next[slot[root] as usize - first] += 1;
            }
            let mut end = *g.starts.last().expect("starts at 0");
            for count in &mut next {
                (*count, end) = (end, end + *count);
                g.starts.push(end);
            }
            g.steps.push((g.starts.len() - 1) as u32);
            // Placing pass: ascending again, so members stay ascending.
            for a in 0..n {
                let c = g.lookup[s * n + a] as usize - first;
                g.members[next[c] as usize] = a as u32;
                next[c] += 1;
            }
        }
        g
    }

    /// Number of agents the oracle covers.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Number of steps the oracle covers.
    pub fn num_steps(&self) -> usize {
        self.steps.len() - 1
    }

    /// Members of component `c`, ascending.
    fn component(&self, c: u32) -> &[u32] {
        let c = c as usize;
        &self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Members of `agent`'s component for `step` (sorted). Agents beyond
    /// the mined horizon act as singletons.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range within the horizon.
    pub fn component_of(&self, step: Step, agent: AgentId) -> Vec<u32> {
        let (s, n) = (step.0 as usize, self.num_agents);
        match self.lookup.get(s * n..(s + 1) * n) {
            Some(row) => self.component(row[agent.index()]).to_vec(),
            None => vec![agent.0],
        }
    }

    /// All components at `step`, in smallest-member order, each ascending
    /// (none beyond the mined horizon).
    pub fn components_at(&self, step: Step) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        let s = step.0 as usize;
        let range = match self.steps.get(s..s + 2) {
            Some(&[lo, hi]) => lo..hi,
            _ => 0..0,
        };
        range.map(move |c| self.component(c))
    }

    /// The paper's §2.2 statistic: average number of prior-step agents each
    /// agent depends on, **including itself** (GenAgent measures 1.85 vs
    /// the all-to-all 25).
    pub fn avg_dependencies(&self) -> f64 {
        if self.num_agents == 0 || self.num_steps() == 0 {
            return 1.0;
        }
        1.0 + self.total_degree as f64 / (self.num_agents as f64 * self.num_steps() as f64)
    }
}

/// How the scheduler decides which agents may advance (see module docs).
#[derive(Clone)]
pub enum DependencyPolicy {
    /// Global step barrier over all agents (Algorithm 1).
    GlobalSync,
    /// AI Metropolis out-of-order rules (§3.2–3.4).
    Spatiotemporal,
    /// Ground-truth dependencies from a mined [`OracleGraph`].
    Oracle(Arc<OracleGraph>),
    /// No dependencies at all: every agent advances freely.
    NoDependency,
}

impl DependencyPolicy {
    /// Short identifier used in reports (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            DependencyPolicy::GlobalSync => "parallel-sync",
            DependencyPolicy::Spatiotemporal => "metropolis",
            DependencyPolicy::Oracle(_) => "oracle",
            DependencyPolicy::NoDependency => "no-dependency",
        }
    }
}

impl fmt::Debug for DependencyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DependencyPolicy::{}", self.label())
    }
}

impl PartialEq for DependencyPolicy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DependencyPolicy::GlobalSync, DependencyPolicy::GlobalSync)
            | (DependencyPolicy::Spatiotemporal, DependencyPolicy::Spatiotemporal)
            | (DependencyPolicy::NoDependency, DependencyPolicy::NoDependency) => true,
            (DependencyPolicy::Oracle(a), DependencyPolicy::Oracle(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_components_and_lookup() {
        // Step 0: 0-1 interact, 2 alone. Step 1: 1-2 interact, 0 alone.
        let o = OracleGraph::from_interactions(3, &[vec![(0, 1)], vec![(1, 2)]]);
        assert_eq!(o.num_steps(), 2);
        assert_eq!(o.component_of(Step(0), AgentId(0)), vec![0, 1]);
        assert_eq!(o.component_of(Step(0), AgentId(2)), vec![2]);
        assert_eq!(o.component_of(Step(1), AgentId(0)), vec![0]);
        assert_eq!(o.component_of(Step(1), AgentId(2)), vec![1, 2]);
        // Beyond horizon: singleton.
        assert_eq!(o.component_of(Step(5), AgentId(1)), vec![1]);
    }

    #[test]
    fn oracle_transitive_components() {
        let o = OracleGraph::from_interactions(4, &[vec![(0, 1), (1, 2)]]);
        assert_eq!(o.component_of(Step(0), AgentId(2)), vec![0, 1, 2]);
        let comps: Vec<&[u32]> = o.components_at(Step(0)).collect();
        assert_eq!(comps, [&[0, 1, 2][..], &[3]]);
        assert_eq!(o.components_at(Step(1)).len(), 0, "beyond the horizon");
    }

    #[test]
    fn avg_dependencies_counts_self() {
        // 3 agents, 2 steps, one pair per step: degree sum = 4 over 6
        // agent-steps → 1 + 4/6.
        let o = OracleGraph::from_interactions(3, &[vec![(0, 1)], vec![(1, 2)]]);
        assert!((o.avg_dependencies() - (1.0 + 4.0 / 6.0)).abs() < 1e-12);
        // No interactions at all → exactly 1 (self).
        let lonely = OracleGraph::from_interactions(3, &[vec![], vec![]]);
        assert_eq!(lonely.avg_dependencies(), 1.0);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(DependencyPolicy::GlobalSync.label(), "parallel-sync");
        assert_eq!(DependencyPolicy::Spatiotemporal.label(), "metropolis");
        assert_eq!(DependencyPolicy::NoDependency.label(), "no-dependency");
        let o = Arc::new(OracleGraph::from_interactions(1, &[]));
        assert_eq!(DependencyPolicy::Oracle(o).label(), "oracle");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_rejected() {
        OracleGraph::from_interactions(2, &[vec![(0, 5)]]);
    }
}
