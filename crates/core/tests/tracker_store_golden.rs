//! Golden digests of what every dependency tracker writes to its stores.
//!
//! Each case drives one tracker through the harness's seeded churn —
//! batch advances, multi-step rollbacks, `evict_history`, a
//! whole-population sweep and `recover` from the stores — and after
//! every operation folds every `(key, value)` of each of the tracker's
//! stores, in key order, plus every `DbStats` field into an FNV-1a
//! digest. The stores are read once they have settled: every queued
//! write is handed over first.
//!
//! `tracker_golden` pins the trackers' mirrors and `store_golden` the
//! bare store; this file pins the records, the history rewrite, the
//! eviction and the transaction and write counts between them. The
//! literals were recorded before the in-process graph started writing
//! through the shard worker's store core, and must never be edited.

mod common;

use common::{churn, Cadence, Entry, Fnv};

/// 120 operations; a recovery every 31st, a sweep every 19th.
const CADENCE: Cadence = Cadence {
    ops: 120,
    recover: 31,
    sweep: 19,
};

/// Runs the churn of `seed` on `tracker`: the digest of its stores after
/// every operation, and the history records it evicted.
fn run(tracker: &str, seed: u64) -> String {
    let mut e = Entry::churned(tracker, seed);
    let mut digest = Fnv::new();
    let fold = |e: &Entry, digest: &mut Fnv| e.stores().iter().for_each(|db| digest.store(db));
    fold(&e, &mut digest);
    let evicted = churn(&mut e, seed, CADENCE, |e| fold(e, &mut digest));
    format!("stores={:016x} evicted={evicted}", digest.0)
}

/// `(tracker, seed, fingerprint)`, recorded on the parent of the store
/// core's split out of the shard worker.
const GOLDEN: [(&str, u64, &str); 8] = [
    ("depgraph", 1, "stores=bf0f0a975c258092 evicted=360"),
    ("depgraph-nohist", 1, "stores=5489abd5ef364632 evicted=0"),
    ("sharded-4", 1, "stores=bf0f0a975c258092 evicted=360"),
    ("dist-w4", 1, "stores=e78c9358f08f5903 evicted=360"),
    ("depgraph", 2, "stores=7cc40142e7ac7872 evicted=432"),
    ("depgraph-nohist", 2, "stores=44e2e1df56c03aca evicted=0"),
    ("sharded-4", 2, "stores=7cc40142e7ac7872 evicted=432"),
    ("dist-w4", 2, "stores=16ff4616fbaead81 evicted=432"),
];

#[test]
fn tracker_stores_match_the_recorded_golden() {
    let mut diverged = Vec::new();
    for (tracker, seed, want) in GOLDEN {
        let got = run(tracker, seed);
        if got != want {
            diverged.push(format!("(\"{tracker}\", {seed}, \"{got}\"),"));
        }
    }
    assert!(
        diverged.is_empty(),
        "tracker stores left the recorded golden:\n{}",
        diverged.join("\n")
    );
}
