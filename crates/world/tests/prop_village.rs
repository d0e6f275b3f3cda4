//! Property tests for the world substrate: plans are pure and
//! order-independent, movement is lawful, and the commit protocol is
//! permutation-invariant — the facts that make out-of-order execution
//! outcome-preserving.

use aim_world::village::StepPlan;
use aim_world::{clock_to_step, Village, VillageConfig};
use proptest::prelude::*;

fn village(seed: u64, agents: u32) -> Village {
    Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: agents,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Committing the same batch of plans in any order yields the same
    /// world (positions, events, cooldowns).
    #[test]
    fn commit_is_permutation_invariant(
        seed in 0u64..500,
        hour in 7u32..20,
        perm_seed in any::<u64>(),
    ) {
        let start = clock_to_step(hour, 0);
        let mut base = village(seed, 10);
        base.run_lockstep(0, start, |_, _, _, _| {});

        let plans: Vec<(u32, _)> =
            (0..10u32).map(|a| (a, base.plan_step(a, start))).collect();
        let mut shuffled = plans.clone();
        // Deterministic Fisher-Yates from perm_seed.
        let mut s = perm_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }

        let mut va = base.clone();
        let mut vb = base.clone();
        va.commit_step(start, &plans);
        vb.commit_step(start, &shuffled);
        prop_assert_eq!(va.positions(), vb.positions());
        prop_assert_eq!(va.events(), vb.events());
        for a in 0..10 {
            prop_assert_eq!(va.conversation_cooldown(a), vb.conversation_cooldown(a));
        }
    }

    /// plan_step is pure: planning twice changes nothing and returns the
    /// same plan.
    #[test]
    fn planning_is_pure(seed in 0u64..500, hour in 0u32..24, agent in 0u32..10) {
        let step = clock_to_step(hour, 17);
        let mut v = village(seed, 10);
        v.run_lockstep(0, step.saturating_sub(5), |_, _, _, _| {});
        let before = v.positions();
        let p1 = v.plan_step(agent, step);
        let p2 = v.plan_step(agent, step);
        prop_assert_eq!(p1, p2);
        prop_assert_eq!(v.positions(), before, "planning must not mutate");
    }

    /// Over any window, agents move at most one tile per step and never
    /// stand on walls.
    #[test]
    fn movement_is_lawful(seed in 0u64..200, hour in 6u32..21) {
        let start = clock_to_step(hour, 0);
        let mut v = village(seed, 8);
        let map = v.map().clone();
        v.run_lockstep(0, start, |_, _, _, _| {});
        let mut prev = v.positions();
        v.run_lockstep(start, start + 40, |_, agent, _, new_pos| {
            let old = prev[agent as usize];
            assert!(old.manhattan(new_pos) <= 1, "agent {agent}: {old} -> {new_pos}");
            assert!(map.is_walkable(new_pos), "agent {agent} on a wall at {new_pos}");
            prev[agent as usize] = new_pos;
        });
    }

    /// Nobody plans calls while asleep, and wake chains appear exactly
    /// once per morning.
    #[test]
    fn sleep_is_silent(seed in 0u64..200) {
        let mut v = village(seed, 8);
        let mut night_calls = 0u64;
        let mut wakes = 0;
        v.run_lockstep(clock_to_step(1, 0), clock_to_step(4, 0), |_, _, plan, _| {
            night_calls += plan.calls.len() as u64;
        });
        prop_assert_eq!(night_calls, 0, "night must be silent");
        v.run_lockstep(clock_to_step(4, 0), clock_to_step(10, 0), |_, _, plan, _| {
            if plan.wakes_up() {
                wakes += 1;
            }
        });
        prop_assert_eq!(wakes, 8, "everyone wakes exactly once");
    }
}

/// `run_lockstep` plans through the body `plan_step` runs and commits
/// as `commit_step` does: over a noon hour of a two-ville world it
/// leaves every captured byte and event, and shows its sink every plan,
/// as a loop driven by hand through the public calls.
#[test]
fn lockstep_equals_plan_and_commit_by_hand() {
    let noon = clock_to_step(12, 0);
    let end = noon + aim_world::STEPS_PER_HOUR;
    let mut warm = Village::generate(&VillageConfig {
        villes: 2,
        agents_per_ville: 25,
        seed: 11,
    });
    warm.run_lockstep(0, noon, |_, _, _, _| {});
    let n = warm.num_agents() as u32;
    // What a sink may read of a plan.
    let surface = |plan: &StepPlan| (plan.calls.clone(), plan.wakes_up(), plan.conversation());

    let mut driven = warm.clone();
    let mut by_loop = Vec::new();
    driven.run_lockstep(noon, end, |_, _, plan, pos| {
        assert_eq!(plan.move_to, pos, "the sink sees committed moves");
        by_loop.push((surface(plan), pos));
    });

    let mut by_hand = Vec::new();
    for step in noon..end {
        let plans: Vec<(u32, StepPlan)> = (0..n).map(|a| (a, warm.plan_step(a, step))).collect();
        warm.commit_step(step, &plans);
        by_hand.extend(plans.iter().map(|(a, plan)| (surface(plan), warm.pos(*a))));
    }
    assert_eq!(by_loop, by_hand);
    assert_eq!(driven.events(), warm.events());
    assert_eq!(driven.capture_state(), warm.capture_state());
}
