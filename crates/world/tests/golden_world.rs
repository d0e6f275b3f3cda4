//! Recorded world evolution: digests of everything a lock-step run of
//! the world program produces, taken on the commit *before* pathfinding
//! and the neighbourhood index were rewritten. A path that differs by
//! one tile, a neighbour reported in another order or a conversation
//! candidate that changes moves a position, an event or a call, and so
//! moves a digest.
//!
//! The literals are the oracle: they are never edited to make a change
//! pass. A deliberate change of world behaviour records new ones in a
//! commit that changes nothing else.

use aim_world::city::{self, CityConfig};
use aim_world::village::StepPlan;
use aim_world::{clock_to_step, Village, VillageConfig};

/// FNV-1a over 32-bit words, fed one little-endian byte at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Runs `v` in lock-step over `[start, end)` and digests every
/// agent-step (position after commit, the plan's public surface, each
/// call) followed by the whole event log.
fn run_digest(v: &mut Village, start: u32, end: u32) -> u64 {
    let mut d = Digest::new();
    v.run_lockstep(start, end, |step, agent, plan: &StepPlan, pos| {
        d.word(step);
        d.word(agent);
        d.word(pos.x as u32);
        d.word(pos.y as u32);
        d.word(plan.move_to.x as u32);
        d.word(plan.move_to.y as u32);
        d.word(plan.wakes_up() as u32);
        let (partner, turns) = plan.conversation().unwrap_or((u32::MAX, 0));
        d.word(partner);
        d.word(turns);
        d.word(plan.calls.len() as u32);
        for c in &plan.calls {
            d.word(c.input_tokens);
            d.word(c.output_tokens);
            d.bytes(c.kind.as_str().as_bytes());
        }
    });
    d.word(v.events().len() as u32);
    for e in v.events() {
        d.word(e.step);
        d.word(e.agent);
        d.bytes(format!("{:?}", e.kind).as_bytes());
    }
    d.0
}

/// Final positions and conversation cooldowns — the public per-agent
/// state of a world whose `capture_state` is unavailable.
fn public_state_digest(v: &Village) -> u64 {
    let mut d = Digest::new();
    for agent in 0..v.num_agents() as u32 {
        let p = v.pos(agent);
        d.word(p.x as u32);
        d.word(p.y as u32);
        d.word(v.conversation_cooldown(agent));
    }
    d.0
}

#[test]
fn two_villes_to_one_pm() {
    let mut v = Village::generate(&VillageConfig {
        villes: 2,
        agents_per_ville: 25,
        seed: 7,
    });
    let run = run_digest(&mut v, 0, clock_to_step(13, 0));
    let mut state = Digest::new();
    state.bytes(&v.capture_state());
    assert_eq!(
        (run, state.0, v.events().len(), v.capture_state().len()),
        (
            9_711_328_524_241_699_656,
            1_340_404_543_352_374_884,
            439,
            390_936
        ),
        "SmallVille ×2 evolution moved"
    );
}

#[test]
fn city_3x2_from_eight_am() {
    // A substrate world: `capture_state` panics on it by contract, so
    // the end state is digested through the public accessors instead.
    let mut v = city::generate(&CityConfig {
        districts_x: 3,
        districts_y: 2,
        agents: 300,
        seed: 9,
    });
    let start = clock_to_step(8, 0);
    let run = run_digest(&mut v, start, start + 30);
    assert_eq!(
        (run, public_state_digest(&v), v.events().len()),
        (984_865_080_308_778_313, 17_122_758_905_009_381_543, 350),
        "3×2 city evolution moved"
    );
}
