//! A grid's spatial index costs memory in proportion to what it indexes,
//! never to the dimensions a map claims.
//!
//! `GridSpace::make_index` finds cells through a dense slot table only
//! when the map has few cells per indexed agent and at most 2²⁰ cells;
//! otherwise it hashes them. A checkpoint's `meta` names the map's
//! dimensions, and a resume builds its index from them, so a snapshot
//! claiming `u32::MAX` sides must resume without a table that size.
//!
//! The allocator counts the bytes each thread requests, so the tests in
//! this file can run beside each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use aim_core::checkpoint::{resume, snapshot_run, CheckpointMeta, SECTION_META};
use aim_core::depgraph::DepGraph;
use aim_core::prelude::*;
use aim_store::{Db, Snapshot, SnapshotBuilder};

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, adding each request's size to the
/// calling thread's count (`alloc_zeroed` and `realloc` keep their
/// default bodies, which allocate through `alloc`).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local statistic that allocates nothing and publishes no other
// data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` returns, and the bytes the calling thread requested while it
/// ran.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn a_map_claiming_u32_max_sides_is_indexed_in_constant_memory() {
    // The counter sees a slot table: the village's 20 × 28 five-unit
    // cells, at four bytes a slot.
    let (village, table) = bytes_of(|| GridSpace::new(100, 140).make_index(5, 25));
    assert!(format!("{village:?}").contains("Slots"));
    assert!(table >= 560 * 4, "{table} bytes for a 560-cell slot table");
    for population in [0, 25, 10_000, usize::MAX] {
        let (idx, bytes) =
            bytes_of(|| GridSpace::new(u32::MAX, u32::MAX).make_index(5, population));
        let mut idx = idx.expect("grid space is indexable");
        assert!(format!("{idx:?}").contains("Hashed"), "{idx:?}");
        assert!(
            bytes < 4096,
            "{bytes} bytes for an empty index at {population}"
        );
        idx.insert(0, Point::new(i32::MAX, i32::MAX));
        let mut out = Vec::new();
        idx.query(Point::new(i32::MAX - 3, i32::MAX), 5, &mut out);
        assert_eq!(out, [0]);
    }
}

#[test]
fn resuming_a_checkpoint_that_claims_u32_max_sides_allocates_no_table() {
    let initial: Vec<Point> = [(5, 5), (8, 5), (30, 5), (60, 5), (90, 5), (93, 9)]
        .iter()
        .map(|&(x, y)| Point::new(x, y))
        .collect();
    let graph = DepGraph::new(
        Arc::new(GridSpace::new(100, 140)),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &initial,
    )
    .unwrap();
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(6));
    for c in sched.ready_clusters() {
        let pos: Vec<(AgentId, Point)> = c
            .members
            .iter()
            .map(|m| (*m, sched.graph().pos(*m)))
            .collect();
        sched.complete(&c.id, &pos).unwrap();
    }
    let snap = Snapshot::from_bytes(snapshot_run(&sched, 0, None).to_bytes().unwrap()).unwrap();
    // The same snapshot with its meta claiming u32::MAX sides, re-sealed
    // so the checksum matches.
    let mut meta = CheckpointMeta::decode(snap.section(SECTION_META).unwrap().clone()).unwrap();
    (meta.width, meta.height) = (u32::MAX, u32::MAX);
    let db = snap.restore_db();
    let mut builder = SnapshotBuilder::new();
    for (name, body) in snap.sections_with_prefix("") {
        let body = if name == SECTION_META {
            meta.encode()
        } else {
            body.clone()
        };
        builder = builder.section(name, body);
    }
    let claimed = Snapshot::from_bytes(builder.db(&db).to_bytes().unwrap()).unwrap();

    let (resumed, honest) = bytes_of(|| resume(&snap, None, None));
    resumed.unwrap();
    let (resumed, huge) = bytes_of(|| resume(&claimed, None, None));
    let (meta, sched) = resumed.unwrap();
    assert_eq!((meta.width, meta.height), (u32::MAX, u32::MAX));
    assert_eq!(sched.graph().pos(AgentId(5)), Point::new(93, 9));
    assert!(
        huge <= honest + 64 * 1024,
        "resuming the u32::MAX map took {huge} bytes, the 100 x 140 one {honest}"
    );
}
