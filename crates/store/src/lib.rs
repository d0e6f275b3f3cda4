//! # aim-store
//!
//! An embedded, in-memory key-value store with atomic write batches, plus
//! blocking priority queues — the substrate AI Metropolis uses in place of
//! Redis.
//!
//! The AI Metropolis paper (§3.6 *Scalable I/O*) keeps all inter-process
//! state — the spatiotemporal dependency graph, simulation state, and
//! instrumentation data — in an in-memory database (Redis) and updates it
//! in optimistic transactions, because many worker processes rewrite
//! dependency edges at once. Here every `Db` has exactly one writer: the
//! controller thread is the only caller that advances or rolls back the
//! dependency graph, and each `dist` shard worker owns its own `Db`. A
//! writer never has to re-read what another writer changed, so an atomic
//! write batch — Redis `MULTI`/`EXEC` without `WATCH` — is all a commit
//! needs:
//!
//! * [`Db`] — a key-value store with atomic primitives
//!   (`get`/`set`/`incr`, an ordered prefix walk, a prefix removal): one
//!   hash map behind one lock, as Redis executes its commands on one
//!   thread. Keys and values of at most 22 bytes — every key and record
//!   the engine writes — sit inline in the map's table; longer ones are
//!   shared [`bytes::Bytes`].
//! * [`Db::transaction`] — an atomic multi-key write batch whose body runs
//!   once. This is the engine's hottest store path — every cluster
//!   advancement is one — so a [`Txn`] keeps its writes in a flat vector
//!   reused from one batch to the next, holds short keys and values
//!   inline as the map does, hashes each key once on the way in with the
//!   store's fixed multiply-fold hash, and takes the map's write lock
//!   once: a batch of short records written through [`Txn::set_slice`]
//!   allocates nothing.
//!   [`Txn::incr_key`] is `INCRBY` inside `MULTI`: a counter bump
//!   resolved under the commit lock.
//! * [`PriorityQueue`] — a blocking multi-producer/multi-consumer priority
//!   queue used for the engine's `ready_queue` and `ack_queue` (§3.1), with
//!   FIFO tie-breaking so that disabling priorities (§4.4) degrades to a
//!   plain FIFO queue.
//! * [`codec`] — minimal big-endian encode/decode helpers on top of
//!   [`bytes`] for storing structured records as values.
//! * [`snapshot`] — durable `AIMSNAP v1` snapshots of a [`Db`] (plus
//!   named side sections) and the rotating [`Checkpointer`] executors
//!   drive every K committed steps, enabling resumable long-horizon
//!   runs.
//!
//! # Example
//!
//! ```
//! use aim_store::{Db, Key};
//!
//! # fn main() -> Result<(), aim_store::StoreError> {
//! let db = Db::new();
//! let commits = Key::new("commits");
//!
//! // Move agent 7 to step 5 and count the commit, atomically.
//! db.transaction(|txn| {
//!     txn.set("agent:7:step", 5u64.to_be_bytes().to_vec());
//!     txn.incr_key(&commits, 1)
//! })?;
//! assert_eq!(db.get("agent:7:step").as_deref(), Some(&5u64.to_be_bytes()[..]));
//! assert_eq!(db.get_i64(&commits)?, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod blob;
pub mod codec;
mod db;
mod error;
mod key;
mod queue;
pub mod snapshot;
mod txn;

pub use db::{Db, DbStats};
pub use error::StoreError;
pub use key::Key;
pub use queue::{PriorityQueue, QueueClosed};
pub use snapshot::{Checkpointer, Snapshot, SnapshotBuilder, SnapshotInfo};
pub use txn::Txn;

/// Convenient result alias for store operations.
pub type Result<T, E = StoreError> = std::result::Result<T, E>;
