//! Golden digests of every dependency tracker under one fixed churn.
//!
//! Each case drives one tracker through the harness's seeded churn —
//! batch advances, cross-strip moves, multi-step rollbacks,
//! `evict_history`, a whole-population sweep (large enough for the
//! sharded tracker's parallel relink) and `recover` from the stores — and
//! folds `snapshot()` plus `min_step`/`max_step` after every operation
//! into an FNV-1a digest. Trackers with more to say digest it too: the
//! sharded tracker its `Relink`/`Migrate` span fields and the
//! `ShardMigrations`/`RelinkBatches` counters, the distributed tracker
//! how many hand-offs (and requests) each worker received.
//!
//! The literals were recorded before the three trackers were moved onto
//! one edge engine and must never be edited: every tracker reaches the
//! same states, and each still does the same internal work to get there.
//! The one exception is the distributed tracker's `extra`, which is its
//! protocol shape: it was re-recorded once, when writes started queueing
//! per worker and crossing a window at a time, with every `state` and
//! `evicted` field left as recorded.

mod common;

use std::sync::Arc;

use aim_core::prelude::*;
use aim_core::telemetry::Counter;
use common::{churn, Cadence, Entry, Fnv, Layout, AGENTS};

/// 150 operations; a recovery every 37th, a sweep every 23rd.
const CADENCE: Cadence = Cadence {
    ops: 150,
    recover: 37,
    sweep: 23,
};

/// Folds the tracker's state: its edges, or without them every agent's
/// step and position; then the step extremes.
fn fold_state(e: &Entry, d: &mut Fnv) {
    if e.spec.maintains_edges() {
        d.snapshot(&e.snapshot());
    } else {
        for a in 0..AGENTS {
            let a = AgentId(a);
            d.u64(u64::from(e.step(a).0));
            d.bytes(format!("{:?}", e.pos(a)).as_bytes());
        }
    }
    d.u64(u64::from(e.min_step().0));
    d.u64(u64::from(e.max_step().0));
}

/// Folds what the tracker reports beyond its graph after an operation:
/// the sharded tracker's migration and relink counters, or the
/// hand-offs and requests each worker received; then every agent's
/// shard.
fn fold_extra(e: &Entry, telemetry: &Telemetry, d: &mut Fnv) {
    match e.spec.layout {
        Layout::DepGraph => return,
        Layout::Sharded(_) => {
            for c in [Counter::ShardMigrations, Counter::RelinkBatches] {
                d.u64(telemetry.counter(c));
            }
        }
        Layout::Dist(_) => {
            for j in 0..e.num_shards() {
                let hand_offs = &e.tap(j).hand_offs;
                d.u64(hand_offs.len() as u64);
                d.u64(hand_offs.iter().map(Vec::len).sum::<usize>() as u64);
            }
        }
    }
    for a in 0..AGENTS {
        d.u64(e.shard_of_agent(AgentId(a)) as u64);
    }
}

/// Folds the sharded tracker's end-of-run report: the fields of every
/// `Relink` and `Migrate` span, sorted, and the spans dropped.
fn fold_spans(telemetry: &Telemetry, d: &mut Fnv) {
    let rt = telemetry.finish(0, telemetry.now_us(), AGENTS, Default::default(), None);
    let mut fields: Vec<(u8, u32, u32)> = rt
        .spans
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Relink { agents, workers } => Some((0, agents, workers)),
            SpanKind::Migrate { agents, crossings } => Some((1, agents, crossings)),
            _ => None,
        })
        .collect();
    fields.sort_unstable();
    d.u64(fields.len() as u64);
    for (tag, x, y) in fields {
        d.bytes(&[tag]);
        d.u64(u64::from(x));
        d.u64(u64::from(y));
    }
    d.u64(rt.dropped);
}

/// Runs the churn of `seed` on `tracker`: the digest of the states it
/// passed through, the digest of what it reported besides, and the
/// history records it evicted. The sharded tracker relinks on two
/// threads and records its repairs.
fn run(tracker: &str, seed: u64) -> String {
    let mut e = Entry::churned(tracker, seed);
    let telemetry = Arc::new(Telemetry::new());
    let sharded = matches!(e.spec.layout, Layout::Sharded(_));
    if sharded {
        e.set_relink_threads(2);
        e.set_telemetry(Arc::clone(&telemetry));
    }
    let (mut state, mut extra) = (Fnv::new(), Fnv::new());
    fold_state(&e, &mut state);
    let evicted = churn(&mut e, seed, CADENCE, |e| {
        fold_state(e, &mut state);
        fold_extra(e, &telemetry, &mut extra);
    });
    if sharded {
        fold_spans(&telemetry, &mut extra);
    }
    format!(
        "state={:016x} extra={:016x} evicted={evicted}",
        state.0, extra.0
    )
}

/// `(tracker, seed, fingerprint)`, recorded on the parent of the
/// edge-engine change.
const GOLDEN: [(&str, u64, &str); 18] = [
    (
        "depgraph",
        1,
        "state=f6f8a31ba0416ae9 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "depgraph-off",
        1,
        "state=4fb3ec945f0af0f4 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "sharded-1",
        1,
        "state=f6f8a31ba0416ae9 extra=04139eb5e77747c0 evicted=432",
    ),
    (
        "sharded-4",
        1,
        "state=f6f8a31ba0416ae9 extra=d5a8ac41656f09c7 evicted=432",
    ),
    (
        "sharded-16",
        1,
        "state=f6f8a31ba0416ae9 extra=e962e58abefcf57f evicted=432",
    ),
    (
        "dist-w4",
        1,
        "state=f6f8a31ba0416ae9 extra=08759a919d19d037 evicted=432",
    ),
    (
        "depgraph",
        2,
        "state=b94f15abfa07bb52 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "depgraph-off",
        2,
        "state=758564f09f231b58 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "sharded-1",
        2,
        "state=b94f15abfa07bb52 extra=3540f2f27056cd66 evicted=432",
    ),
    (
        "sharded-4",
        2,
        "state=b94f15abfa07bb52 extra=d5c51aaa4face719 evicted=432",
    ),
    (
        "sharded-16",
        2,
        "state=b94f15abfa07bb52 extra=3769e3824be0f473 evicted=432",
    ),
    (
        "dist-w4",
        2,
        "state=b94f15abfa07bb52 extra=d0466d811fb782ab evicted=432",
    ),
    (
        "depgraph",
        3,
        "state=9543d9afecf1fcc0 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "depgraph-off",
        3,
        "state=2df78a46d77b0aa8 extra=cbf29ce484222325 evicted=432",
    ),
    (
        "sharded-1",
        3,
        "state=9543d9afecf1fcc0 extra=8afcd451515a6596 evicted=432",
    ),
    (
        "sharded-4",
        3,
        "state=9543d9afecf1fcc0 extra=39cc738a749791fd evicted=432",
    ),
    (
        "sharded-16",
        3,
        "state=9543d9afecf1fcc0 extra=2fc1ddd1c93a1539 evicted=432",
    ),
    (
        "dist-w4",
        3,
        "state=9543d9afecf1fcc0 extra=0d1ccefbd179fd48 evicted=432",
    ),
];

#[test]
fn trackers_match_the_recorded_golden() {
    let mut diverged = Vec::new();
    for (tracker, seed, want) in GOLDEN {
        let got = run(tracker, seed);
        if got != want {
            diverged.push(format!("(\"{tracker}\", {seed}, \"{got}\"),"));
        }
    }
    assert!(
        diverged.is_empty(),
        "trackers left the recorded golden:\n{}",
        diverged.join("\n")
    );
}
