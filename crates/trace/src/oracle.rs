//! Mining ground-truth dependencies from finished traces (§4.2's `oracle`).
//!
//! With the whole trajectory in hand, the *real* dependencies are known:
//! two agents depend on each other around step `s` only if they actually
//! appeared in each other's observation space during `s` ("if two agents
//! appear in each other's observation space, they synchronize before and
//! after the step"). Everything else the conservative §3.2 rules enforce
//! is a false dependency the oracle removes — making it the upper bound on
//! dependency management quality. The same mining also yields the paper's
//! §2.2 statistic: each GenAgent agent depends on only ≈1.85 prior-step
//! agents (self included) versus the all-to-all 25 of global sync.

use aim_core::policy::OracleGraph;
use aim_core::space::Point;

use crate::format::Trace;

/// Interaction pairs for every step of the trace: `pairs[s]` lists, sorted
/// and each once as `(a, b)` with `a < b`, the agents within `radius_p`
/// of each other at the start of relative step `s` (its
/// [`Trace::row`]).
///
/// Each row is bucketed into cells `radius_p` tiles wide, so a pair lies
/// in one cell or two adjacent ones. The cell table is one sorted scratch
/// list kept across steps: nothing is hashed, and a step allocates only
/// its output.
pub fn interaction_pairs(trace: &Trace) -> Vec<Vec<(u32, u32)>> {
    let r = trace.meta().radius_p;
    let mut cells = Vec::with_capacity(trace.meta().num_agents as usize);
    (0..trace.meta().num_steps)
        .map(|step| {
            let mut pairs = Vec::new();
            row_pairs(trace.row(step), r, &mut cells, &mut pairs);
            pairs.sort_unstable();
            pairs
        })
        .collect()
}

/// Appends to `out` every pair `(a, b)`, `a < b`, of agents of `row`
/// within `r` of each other. `cells` is scratch: each agent's `(cell row,
/// cell column, agent)`, sorted, so the three cells centred on any cell
/// of a cell row are one contiguous run.
fn row_pairs(row: &[Point], r: u32, cells: &mut Vec<(i64, i64, u32)>, out: &mut Vec<(u32, u32)>) {
    let size = i64::from(r.max(1));
    let r2 = u64::from(r) * u64::from(r);
    cells.clear();
    cells.extend(row.iter().zip(0u32..).map(|(p, a)| {
        let cell = |v: i32| i64::from(v).div_euclid(size);
        (cell(p.y), cell(p.x), a)
    }));
    cells.sort_unstable();
    // Per cell row above, at and below: the first entry not before the
    // run. Visiting agents in cell order moves each only forward.
    let mut first = [0usize; 3];
    for &(y, x, a) in cells.iter() {
        for (lo, ny) in first.iter_mut().zip(y - 1..=y + 1) {
            while *lo < cells.len() && (cells[*lo].0, cells[*lo].1) < (ny, x - 1) {
                *lo += 1;
            }
            for &(cy, cx, b) in &cells[*lo..] {
                if (cy, cx) > (ny, x + 1) {
                    break;
                }
                if b > a && row[a as usize].dist2(row[b as usize]) <= r2 {
                    out.push((a, b));
                }
            }
        }
    }
}

/// Mines the [`OracleGraph`] for `trace`.
///
/// # Example
///
/// ```no_run
/// use aim_trace::{gen, oracle};
///
/// let trace = gen::generate(&gen::GenConfig::full_day(42));
/// let g = oracle::mine(&trace);
/// // GenAgent's measured average is 1.85 — far below all-to-all 25.
/// assert!(g.avg_dependencies() < 5.0);
/// ```
pub fn mine(trace: &Trace) -> OracleGraph {
    OracleGraph::from_interactions(trace.meta().num_agents as usize, &interaction_pairs(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use aim_core::{AgentId, Step};
    use aim_world::clock_to_step;

    fn work_hour_trace() -> Trace {
        generate(&GenConfig {
            villes: 1,
            agents_per_ville: 10,
            seed: 11,
            window_start: clock_to_step(9, 0),
            window_len: 120,
        })
    }

    #[test]
    fn pairs_are_sorted_unique_and_in_range() {
        let t = work_hour_trace();
        let pairs = interaction_pairs(&t);
        assert_eq!(pairs.len(), 120);
        for step_pairs in &pairs {
            for w in step_pairs.windows(2) {
                assert!(w[0] < w[1], "pairs must be sorted and unique");
            }
            for &(a, b) in step_pairs {
                assert!(a < b && b < 10);
            }
        }
    }

    #[test]
    fn oracle_matches_pair_distances() {
        let t = work_hour_trace();
        let pairs = interaction_pairs(&t);
        // Every mined pair must genuinely be within radius_p at step start.
        for (step, step_pairs) in (0u32..).zip(&pairs) {
            let row = t.row(step);
            for &(a, b) in step_pairs {
                let (pa, pb) = (row[a as usize], row[b as usize]);
                assert!(pa.dist2(pb) <= 16, "pair ({a},{b}) at step {step} too far");
            }
        }
    }

    #[test]
    fn mined_graph_has_sane_dependency_stat() {
        let t = work_hour_trace();
        let g = mine(&t);
        let avg = g.avg_dependencies();
        // Sparse (≪ all-to-all): for 10 agents, all-to-all would be 10.
        assert!((1.0..5.0).contains(&avg), "avg deps {avg} implausible");
    }

    #[test]
    fn conversing_agents_share_components() {
        // Generate a lunch window where conversations are likely; any
        // conversation implies proximity < radius, hence same component.
        let t = generate(&GenConfig {
            villes: 1,
            agents_per_ville: 25,
            seed: 21,
            window_start: clock_to_step(12, 0),
            window_len: 120,
        });
        let g = mine(&t);
        // Find a step where a Converse call happened; issuer must share a
        // component with someone.
        let conv = t
            .calls()
            .iter()
            .find(|c| c.kind == aim_llm::CallKind::Converse);
        if let Some(c) = conv {
            let comp = g.component_of(Step(c.step), AgentId(c.agent));
            assert!(
                comp.len() >= 2,
                "a conversing agent cannot be alone: {comp:?}"
            );
        }
    }
}
