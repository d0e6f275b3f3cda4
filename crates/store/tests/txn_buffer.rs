//! A write batch keeps its buffer from one batch to the next on its
//! thread, up to a write-behind window's worth of entries, and holds
//! short keys and values inline: so once the buffer and the map have
//! grown to size, batches of short records allocate nothing at all.
//!
//! The allocator counts the allocations each thread makes, so the test
//! counts only the batches it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aim_store::{Db, Key};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting the calling thread's
/// allocations (`alloc_zeroed` and `realloc` keep their default bodies,
/// which allocate through `alloc`).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local statistic that allocates nothing and publishes no other
// data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

/// The allocations the calling thread made while `f` ran.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Calls in a `dist` write-behind window (`aim_core::dist::WINDOW`).
const WINDOW: u32 = 32;

/// Agents each call of the window moves.
const CLUSTER: u32 = 3;

/// The key `tag ‖ ids` (big-endian) of one of the engine's records.
fn key(tag: &[u8; 4], ids: &[u32]) -> Vec<u8> {
    let mut key = tag.to_vec();
    ids.iter()
        .for_each(|id| key.extend_from_slice(&id.to_be_bytes()));
    key
}

/// A 12-byte record of agent `a` at `step`, built on the stack.
fn record(step: u32, a: u32) -> [u8; 12] {
    let mut value = [7u8; 12];
    value[..4].copy_from_slice(&step.to_be_bytes());
    value[4..8].copy_from_slice(&a.to_be_bytes());
    value
}

#[test]
fn two_window_sized_batches_allocate_nothing() {
    let db = Db::new();
    let commits = Key::new("dep:commits");
    let agents = WINDOW * CLUSTER;
    let record_keys: Vec<(Vec<u8>, Vec<u8>)> = (0..agents)
        .map(|a| (key(b"dagt", &[a]), key(b"dhst", &[0, a])))
        .collect();
    // One window: every agent's record and a history record, as the
    // dependency-graph store writes them, and the commit counter: 193
    // entries.
    let window = |step: u32| {
        db.transaction(|txn| {
            for (a, (current, history)) in record_keys.iter().enumerate() {
                let value = record(step, a as u32);
                txn.set_slice(current, &value);
                txn.set_slice(history, &value);
            }
            txn.incr_key(&commits, i64::from(WINDOW))
        })
        .expect("window")
    };
    // The first window grows this thread's buffer and the map.
    window(0);
    let allocs = allocs_of(|| {
        window(1);
        window(2);
    });
    assert_eq!(
        allocs, 0,
        "two window-sized batches allocated {allocs} times"
    );
    assert_eq!(db.len(), 2 * agents as usize + 1);
    assert_eq!(db.get_i64(&commits).unwrap(), 3 * i64::from(WINDOW));
    for (a, (current, history)) in record_keys.iter().enumerate() {
        let value = record(2, a as u32);
        assert_eq!(db.get(current).as_deref(), Some(&value[..]));
        assert_eq!(db.get(history).as_deref(), Some(&value[..]));
    }
}
