//! # aim-world
//!
//! A GenAgent-style simulated world — the "SmallVille" substrate the AI
//! Metropolis paper evaluates on (§2.1, §4.2).
//!
//! The original generative-agents world is a 100×140 tile town inhabited by
//! 25 LLM-driven characters with personalities, social ties, daily
//! routines, and a memory stream; agents perceive their surroundings
//! (radius 4), plan, reflect, move one tile per 10-second step, and hold
//! multi-turn conversations when they meet. That implementation (and the
//! GPT-3.5 traces collected from it) is not available here, so this crate
//! rebuilds the world from scratch:
//!
//! * [`grid`] — procedural tile maps with buildings, doors and named areas,
//!   including side-by-side *ville concatenation* for the paper's
//!   1000-agent scaling study (§4.3);
//! * [`pathfind`] — A* over walkable tiles;
//! * [`persona`] — characters with homes, workplaces, and a friendship
//!   graph;
//! * [`schedule`] — wake/sleep and activity routines that produce the
//!   diurnal LLM-call curve of Fig. 4c (sleep trough at 1–4 am, lunch
//!   peak at noon);
//! * [`memory`] — the GenAgent memory stream: observations scored by
//!   recency × importance × relevance, with reflection triggers;
//! * [`conversation`] — proximity- and friendship-gated multi-turn
//!   dialogues that couple agents for several steps;
//! * [`scripted`] — a deterministic "scripted LLM" supplying decisions and
//!   token-length samples so self-play needs no real model;
//! * [`village`] — the assembled world with its per-step agent loop
//!   (perceive → retrieve → plan), used both to synthesize traces and to
//!   run live under the engine;
//! * [`program`] — a [`aim_core::exec::threaded::ClusterProgram`]
//!   implementation so the threaded runtime can drive a live village.
//!
//! The crate's output is *workload-faithful*, not literary: LLM calls carry
//! realistic token counts and kinds, not actual prose.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod city;
pub mod conversation;
pub mod grid;
pub mod memory;
pub mod pathfind;
pub mod persona;
pub mod program;
pub mod schedule;
pub mod scripted;
pub mod village;

pub use city::{CityConfig, RoadGraph};
pub use grid::{Area, AreaKind, TileMap};
pub use persona::Persona;
pub use village::{Village, VillageConfig, WorldEvent};

/// Steps per simulated day: 24 h × 3600 s / 10 s per step (paper §2.1).
pub const STEPS_PER_DAY: u32 = 8_640;

/// Steps per simulated hour.
pub const STEPS_PER_HOUR: u32 = 360;

/// Converts a step index (within a day) to `(hour, minute)`.
pub fn step_to_clock(step: u32) -> (u32, u32) {
    let s = step % STEPS_PER_DAY;
    (s / STEPS_PER_HOUR, (s % STEPS_PER_HOUR) / 6)
}

/// Converts an `(hour, minute)` wall-clock time to a step index.
pub fn clock_to_step(hour: u32, minute: u32) -> u32 {
    hour * STEPS_PER_HOUR + minute * 6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversions_roundtrip() {
        assert_eq!(step_to_clock(0), (0, 0));
        assert_eq!(step_to_clock(clock_to_step(12, 30)), (12, 30));
        assert_eq!(clock_to_step(24, 0), STEPS_PER_DAY);
        assert_eq!(
            step_to_clock(STEPS_PER_DAY + 6),
            (0, 1),
            "wraps around midnight"
        );
    }
}
