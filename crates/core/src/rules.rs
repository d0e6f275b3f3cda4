//! The spatiotemporal dependency rules of AI Metropolis (§3.2, Appendix A).
//!
//! Temporal causality in a simulation is a set of read-after-write
//! dependencies on the shared world: at step `s` an agent reads the region
//! within its perception radius `radius_p` and writes within `max_vel` of
//! itself (it can move there or modify an adjacent object). The paper shows
//! that the following *state validity condition* suffices for causality:
//!
//! > For all agents `A`, `B` at steps `sA ≠ sB`:
//! > `dist(A, B) > radius_p + (|sA − sB| − 1) · max_vel`.
//!
//! and derives two conservative scheduling rules that preserve it:
//!
//! * **coupled** — same step and `dist ≤ radius_p + max_vel`: the agents
//!   must advance together (same cluster);
//! * **blocked** — `sA ≥ sB` and
//!   `dist ≤ (sA − sB + 1) · max_vel + radius_p`: `A` must wait for `B` to
//!   finish step `sB` first. Agents at *later* steps never block (third
//!   case of Appendix A).
//!
//! All comparisons go through [`crate::space::Space::within_units`] with
//! integer thresholds, so scheduling decisions are exact.

use serde::{Deserialize, Serialize};

use crate::ids::Step;
use crate::space::Space;

/// The two world parameters the rules depend on (paper §3.2).
///
/// In GenAgent, agents perceive a radius of 4 grid cells and move/affect at
/// most 1 cell per step, which [`RuleParams::genagent`] encodes.
///
/// # Example
///
/// ```
/// use aim_core::rules::RuleParams;
///
/// let p = RuleParams::genagent();
/// assert_eq!(p.coupling_units(), 5);          // radius_p + max_vel
/// assert_eq!(p.blocking_units(3), 8);         // (3 + 1) * 1 + 4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RuleParams {
    /// Perception radius: how far an agent reads the world each step.
    pub radius_p: u32,
    /// Maximum speed of movement and information propagation per step.
    pub max_vel: u32,
}

impl RuleParams {
    /// Creates rule parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_vel` is zero — the derivation assumes agents can
    /// move, and a zero velocity would let arbitrarily distant agents
    /// diverge unboundedly without ever re-coupling, which is almost
    /// certainly a configuration mistake.
    pub fn new(radius_p: u32, max_vel: u32) -> Self {
        assert!(max_vel > 0, "max_vel must be positive");
        RuleParams { radius_p, max_vel }
    }

    /// GenAgent / SmallVille parameters: perception radius 4, speed 1.
    pub fn genagent() -> Self {
        RuleParams::new(4, 1)
    }

    /// Distance at or below which two same-step agents are coupled:
    /// `radius_p + max_vel`.
    pub fn coupling_units(&self) -> u64 {
        self.radius_p as u64 + self.max_vel as u64
    }

    /// Distance at or below which an agent `delta` steps ahead is blocked:
    /// `(delta + 1) · max_vel + radius_p`.
    pub fn blocking_units(&self, delta: u32) -> u64 {
        (delta as u64 + 1) * self.max_vel as u64 + self.radius_p as u64
    }

    /// Threshold of the *validity condition* for a step gap `gap ≥ 1`:
    /// states are valid iff `dist > radius_p + (gap − 1) · max_vel`.
    fn validity_units(&self, gap: u32) -> u64 {
        debug_assert!(gap >= 1);
        self.radius_p as u64 + (gap as u64 - 1) * self.max_vel as u64
    }
}

/// Are `a` and `b` coupled (must advance together)?
///
/// Defined only for agents at the same step; returns `false` otherwise.
pub fn coupled<S: Space>(
    space: &S,
    params: RuleParams,
    a: (S::Pos, Step),
    b: (S::Pos, Step),
) -> bool {
    a.1 == b.1 && space.within_units(a.0, b.0, params.coupling_units())
}

/// Is `a` blocked by `b` (must wait for `b` to finish its current step)?
///
/// Blocking applies when `a` is at the same or a later step than `b`
/// (`sA ≥ sB`); agents at strictly later steps never block `a`. Note that
/// at equal steps the blocking threshold coincides with the coupling
/// threshold, so a same-step "blocker" is really a coupling partner and is
/// resolved by clustering, not waiting.
pub fn blocked_by<S: Space>(
    space: &S,
    params: RuleParams,
    a: (S::Pos, Step),
    b: (S::Pos, Step),
) -> bool {
    if a.1 < b.1 {
        return false;
    }
    let delta = a.1 .0 - b.1 .0;
    space.within_units(a.0, b.0, params.blocking_units(delta))
}

/// Checks the §3.2 validity condition for a pair of agent states.
pub fn pair_valid<S: Space>(
    space: &S,
    params: RuleParams,
    a: (S::Pos, Step),
    b: (S::Pos, Step),
) -> bool {
    if a.1 == b.1 {
        return true;
    }
    let gap = a.1.abs_diff(b.1);
    !space.within_units(a.0, b.0, params.validity_units(gap))
}

/// Checks the validity condition over a whole state; returns the first
/// violating pair for diagnostics.
pub fn find_violation<S: Space>(
    space: &S,
    params: RuleParams,
    states: &[(S::Pos, Step)],
) -> Option<(usize, usize)> {
    for i in 0..states.len() {
        for j in (i + 1)..states.len() {
            if !pair_valid(space, params, states[i], states[j]) {
                return Some((i, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};

    fn grid() -> GridSpace {
        GridSpace::new(100, 140)
    }

    #[test]
    fn thresholds_match_paper_formulas() {
        let p = RuleParams::new(4, 2);
        assert_eq!(p.coupling_units(), 6);
        assert_eq!(p.blocking_units(0), 6); // equal steps: same as coupling
        assert_eq!(p.blocking_units(5), 16); // (5+1)*2+4
        assert_eq!(p.validity_units(1), 4); // radius_p exactly
        assert_eq!(p.validity_units(3), 8); // 4 + 2*2
    }

    #[test]
    fn coupling_requires_same_step_and_proximity() {
        let g = grid();
        let p = RuleParams::genagent();
        let a = (Point::new(0, 0), Step(3));
        assert!(coupled(&g, p, a, (Point::new(5, 0), Step(3)))); // dist 5 = r+v
        assert!(!coupled(&g, p, a, (Point::new(6, 0), Step(3)))); // dist 6 > 5
        assert!(!coupled(&g, p, a, (Point::new(1, 0), Step(4)))); // different step
    }

    #[test]
    fn coupling_is_symmetric() {
        let g = grid();
        let p = RuleParams::genagent();
        let a = (Point::new(10, 10), Step(2));
        let b = (Point::new(13, 13), Step(2));
        assert_eq!(coupled(&g, p, a, b), coupled(&g, p, b, a));
    }

    #[test]
    fn blocking_radius_grows_with_step_gap() {
        let g = grid();
        let p = RuleParams::genagent(); // r=4, v=1
        let lagger = (Point::new(0, 0), Step(0));
        // Ahead by 3 steps: blocked within (3+1)*1+4 = 8.
        assert!(blocked_by(&g, p, (Point::new(8, 0), Step(3)), lagger));
        assert!(!blocked_by(&g, p, (Point::new(9, 0), Step(3)), lagger));
        // Ahead by 10 steps: blocked within 15.
        assert!(blocked_by(&g, p, (Point::new(15, 0), Step(10)), lagger));
        assert!(!blocked_by(&g, p, (Point::new(16, 0), Step(10)), lagger));
    }

    #[test]
    fn future_agents_never_block() {
        let g = grid();
        let p = RuleParams::genagent();
        let a = (Point::new(0, 0), Step(1));
        let future = (Point::new(0, 1), Step(5));
        assert!(!blocked_by(&g, p, a, future));
        // ... but the future agent *is* blocked by the lagging one.
        assert!(blocked_by(&g, p, future, a));
    }

    #[test]
    fn validity_condition_examples() {
        let g = grid();
        let p = RuleParams::genagent();
        // Gap 1: valid iff dist > radius_p = 4.
        assert!(pair_valid(
            &g,
            p,
            (Point::new(0, 0), Step(1)),
            (Point::new(5, 0), Step(2))
        ));
        assert!(!pair_valid(
            &g,
            p,
            (Point::new(0, 0), Step(1)),
            (Point::new(4, 0), Step(2))
        ));
        // Same step is always valid.
        assert!(pair_valid(
            &g,
            p,
            (Point::new(0, 0), Step(1)),
            (Point::new(0, 0), Step(1))
        ));
    }

    #[test]
    fn advancing_a_ready_agent_preserves_validity() {
        // The inductive heart of Appendix A: if A is neither coupled nor
        // blocked w.r.t. B, then A advancing one step (moving up to
        // max_vel) keeps the pair valid.
        let g = grid();
        let p = RuleParams::genagent();
        for sa in 0u32..4 {
            for sb in 0u32..4 {
                for x in 0i32..25 {
                    let a = (Point::new(x, 0), Step(sa));
                    let b = (Point::new(0, 0), Step(sb));
                    if !pair_valid(&g, p, a, b) {
                        continue; // start from valid states only
                    }
                    let a_coupled = coupled(&g, p, a, b);
                    let a_blocked = blocked_by(&g, p, a, b);
                    if a_coupled || a_blocked {
                        continue;
                    }
                    // A may move up to max_vel in any direction; the worst
                    // case is straight toward B.
                    for dx in -(p.max_vel as i32)..=(p.max_vel as i32) {
                        let a2 = (Point::new(x + dx, 0), Step(sa + 1));
                        assert!(
                            pair_valid(&g, p, a2, b),
                            "advancing A from {a:?} to {a2:?} against {b:?} broke validity"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn find_violation_reports_pair() {
        let g = grid();
        let p = RuleParams::genagent();
        let states = vec![
            (Point::new(0, 0), Step(0)),
            (Point::new(50, 50), Step(3)),
            (Point::new(2, 0), Step(2)), // too close to agent 0 for gap 2
        ];
        assert_eq!(find_violation(&g, p, &states), Some((0, 2)));
    }

    #[test]
    #[should_panic(expected = "max_vel must be positive")]
    fn zero_velocity_rejected() {
        RuleParams::new(4, 0);
    }
}
