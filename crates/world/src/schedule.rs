//! Daily routines: who is where, when.
//!
//! Schedules drive the diurnal workload shape of paper Fig. 4c: everyone
//! sleeps through the 1–4 am trough, converges on the cafe around noon
//! (the "busy hour" with long conversations), and socializes in the
//! evening. Each persona's times are jittered so arrivals spread out.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::grid::{AreaKind, TileMap};
use crate::persona::Persona;
use crate::{clock_to_step, STEPS_PER_DAY};

/// What an agent is doing during a schedule block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ActivityKind {
    /// In bed; no perception, no calls.
    Sleep,
    /// At home, puttering.
    Home,
    /// At the workplace.
    Work,
    /// Lunch (usually at the cafe — the busy hour).
    Lunch,
    /// Errands at the store.
    Shop,
    /// Socializing (bar or park) — conversation-heavy.
    Social,
}

impl ActivityKind {
    /// Multiplier on the chance to start conversations during this block.
    pub fn social_factor(self) -> f32 {
        match self {
            ActivityKind::Sleep => 0.0,
            ActivityKind::Home => 0.2,
            ActivityKind::Work => 0.5,
            ActivityKind::Lunch => 3.0,
            ActivityKind::Shop => 1.0,
            ActivityKind::Social => 2.0,
        }
    }
}

/// One block of the day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// Step-in-day when this block begins.
    pub start: u32,
    /// What the agent does.
    pub kind: ActivityKind,
    /// Index into [`TileMap::areas`] where it happens.
    pub area: usize,
}

/// A full cyclic daily schedule (entries sorted by `start`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DailySchedule {
    entries: Vec<ScheduleEntry>,
}

/// Where, among a day's blocks beginning at `starts` (ascending, at
/// least one), the block in effect at `step` sits: the last one begun,
/// the day wrapping at midnight.
pub(crate) fn block_index(
    mut starts: impl DoubleEndedIterator<Item = u32> + ExactSizeIterator,
    step: u32,
) -> usize {
    let s = step % STEPS_PER_DAY;
    let last = starts.len() - 1;
    starts
        .rposition(|start| start <= s)
        // Before the first entry: still in the last block of yesterday.
        .unwrap_or(last)
}

impl DailySchedule {
    /// Builds a schedule from entries (sorted internally).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(mut entries: Vec<ScheduleEntry>) -> Self {
        assert!(!entries.is_empty(), "schedule needs at least one entry");
        entries.sort_by_key(|e| e.start);
        DailySchedule { entries }
    }

    /// The block in effect at `step` (absolute or in-day; wraps midnight).
    pub fn at(&self, step: u32) -> ScheduleEntry {
        self.entries[block_index(self.entries.iter().map(|e| e.start), step)]
    }

    /// All blocks.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Generates `persona`'s routine with per-agent jitter.
    ///
    /// Timeline (±jitter): wake ~6:30, commute/work ~8:30, lunch ~12:00
    /// (80% cafe), work ~13:00, errand ~17:00 (35% store), social ~18:30
    /// (70% bar/park), home ~20:30, sleep ~22:30.
    pub fn generate(map: &TileMap, persona: &Persona, rng: &mut StdRng) -> Self {
        let jitter = |rng: &mut StdRng, steps: u32| -> i64 {
            rng.random_range(-(steps as i64)..=(steps as i64))
        };
        let at = |base: u32, j: i64| -> u32 {
            (base as i64 + j).clamp(0, (STEPS_PER_DAY - 1) as i64) as u32
        };
        let home = persona.home_area;
        let work = persona.work_area;
        // Ville-local venues: nearest of each kind to the home door.
        let ville_venue = |kind: AreaKind| -> usize {
            let hx = map.areas()[home].door.x;
            map.areas()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.kind == kind)
                .min_by_key(|(_, a)| (a.door.x - hx).unsigned_abs())
                .map(|(i, _)| i)
                .unwrap_or(home)
        };
        let cafe = ville_venue(AreaKind::Cafe);
        let store = ville_venue(AreaKind::Store);
        let bar = ville_venue(AreaKind::Bar);
        let park = ville_venue(AreaKind::Park);

        let mut entries = vec![ScheduleEntry {
            start: 0,
            kind: ActivityKind::Sleep,
            area: home,
        }];
        let wake = at(clock_to_step(6, 15), jitter(rng, 50 * 6));
        entries.push(ScheduleEntry {
            start: wake,
            kind: ActivityKind::Home,
            area: home,
        });
        let leave = at(clock_to_step(8, 30), jitter(rng, 30 * 6));
        entries.push(ScheduleEntry {
            start: leave,
            kind: ActivityKind::Work,
            area: work,
        });
        let lunch_area = if rng.random::<f32>() < 0.8 {
            cafe
        } else {
            home
        };
        let lunch = at(clock_to_step(12, 0), jitter(rng, 15 * 6));
        entries.push(ScheduleEntry {
            start: lunch,
            kind: ActivityKind::Lunch,
            area: lunch_area,
        });
        entries.push(ScheduleEntry {
            start: at(clock_to_step(13, 0), jitter(rng, 10 * 6)),
            kind: ActivityKind::Work,
            area: work,
        });
        if rng.random::<f32>() < 0.35 {
            entries.push(ScheduleEntry {
                start: at(clock_to_step(17, 0), jitter(rng, 20 * 6)),
                kind: ActivityKind::Shop,
                area: store,
            });
        }
        if rng.random::<f32>() < 0.7 {
            let venue = if rng.random::<f32>() < 0.6 { bar } else { park };
            entries.push(ScheduleEntry {
                start: at(clock_to_step(18, 30), jitter(rng, 60 * 6)),
                kind: ActivityKind::Social,
                area: venue,
            });
        }
        entries.push(ScheduleEntry {
            start: at(clock_to_step(20, 30), jitter(rng, 30 * 6)),
            kind: ActivityKind::Home,
            area: home,
        });
        entries.push(ScheduleEntry {
            start: at(clock_to_step(22, 30), jitter(rng, 60 * 6)),
            kind: ActivityKind::Sleep,
            area: home,
        });
        DailySchedule::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::generate_personas;
    use rand::SeedableRng;

    fn setup() -> (TileMap, Vec<Persona>) {
        let map = TileMap::smallville(25);
        let mut rng = StdRng::seed_from_u64(1);
        let ps = generate_personas(&map, 25, &mut rng);
        (map, ps)
    }

    #[test]
    fn schedule_covers_whole_day() {
        let (map, ps) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let s = DailySchedule::generate(&map, &ps[0], &mut rng);
        // Midnight through early morning: asleep.
        assert_eq!(s.at(clock_to_step(2, 0)).kind, ActivityKind::Sleep);
        // Noon-ish: lunch (allow jitter by probing 12:30).
        let lunch = s.at(clock_to_step(12, 30)).kind;
        assert!(
            lunch == ActivityKind::Lunch || lunch == ActivityKind::Work,
            "around noon should be lunch or adjacent work, got {lunch:?}"
        );
        // Late evening: asleep again by midnight wraparound.
        assert_eq!(s.at(STEPS_PER_DAY - 1).kind, ActivityKind::Sleep);
    }

    #[test]
    fn wraps_before_first_entry() {
        let s = DailySchedule::new(vec![
            ScheduleEntry {
                start: 100,
                kind: ActivityKind::Home,
                area: 0,
            },
            ScheduleEntry {
                start: 200,
                kind: ActivityKind::Work,
                area: 1,
            },
        ]);
        assert_eq!(
            s.at(50).kind,
            ActivityKind::Work,
            "pre-first-entry = yesterday's last"
        );
        assert_eq!(s.at(150).kind, ActivityKind::Home);
        assert_eq!(
            s.at(STEPS_PER_DAY + 150).kind,
            ActivityKind::Home,
            "wraps across days"
        );
    }

    #[test]
    fn most_agents_lunch_at_the_cafe() {
        let (map, ps) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut cafe_lunches = 0;
        for p in &ps {
            let s = DailySchedule::generate(&map, p, &mut rng);
            let lunch = s
                .entries()
                .iter()
                .find(|e| e.kind == ActivityKind::Lunch)
                .expect("everyone schedules lunch");
            if map.areas()[lunch.area].kind == AreaKind::Cafe {
                cafe_lunches += 1;
            }
        }
        assert!(
            cafe_lunches >= 15,
            "cafe should dominate lunches, got {cafe_lunches}/25"
        );
    }

    #[test]
    fn sleep_trough_at_2am_for_everyone() {
        let (map, ps) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        for p in &ps {
            let s = DailySchedule::generate(&map, p, &mut rng);
            for hour in [1, 2, 3, 4] {
                assert_eq!(
                    s.at(clock_to_step(hour, 0)).kind,
                    ActivityKind::Sleep,
                    "{} should sleep at {hour}am",
                    p.name
                );
            }
        }
    }

    #[test]
    fn social_factor_ordering() {
        assert_eq!(ActivityKind::Sleep.social_factor(), 0.0);
        assert!(ActivityKind::Lunch.social_factor() > ActivityKind::Work.social_factor());
        assert!(ActivityKind::Social.social_factor() > ActivityKind::Home.social_factor());
    }
}
