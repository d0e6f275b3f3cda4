//! The helper crew of the threaded runtime: how the members of a cluster
//! get OS threads without paying a spawn and a join per agent-step.
//!
//! A worker wraps the cluster it pulled in a [`Batch`] — an atomic claim
//! cursor over `cluster.members`, one result slot per member, a count of
//! unfinished members — publishes it, and then claims and runs members
//! itself, in order. Helpers are scoped threads that live no longer than
//! the run: they claim from whatever batch has members left, and park
//! when there is none (or exit, when enough are parked already).
//!
//! # The wake-up rule
//!
//! *Whoever claims a member while others remain unclaimed, and while no
//! helper is looking for work, summons one helper* (wakes a parked one,
//! or spawns one if none is parked). The summoned helper is "searching"
//! until it has looked at the published batches; its own first claim
//! falls under the same rule. So when steps block in the backend the
//! summons chain until every member of every published cluster is in
//! flight on a thread of its own, and when steps return in microseconds
//! the worker finishes the batch before a helper gets anywhere and almost
//! no thread is created.
//!
//! No member is left waiting on a thread that is not coming: a claimer
//! decrements [`Crew::unclaimed`] and *then* reads [`Crew::searching`];
//! a searching helper clears `searching` and *then* looks at the claim
//! cursors (all `SeqCst`). Whichever comes second sees the other — either
//! the claimer finds the flag clear and summons, or the helper finds the
//! unclaimed member. Progress itself never depends on a helper: the
//! owning worker claims every member nobody else took.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{Scope, Thread};

use parking_lot::{Condvar, Mutex};

use crate::ids::{AgentId, Step};
use crate::scheduler::Cluster;

/// Helpers allowed to sit parked at once; one that finds the lot full
/// exits instead. Parked helpers only save later spawns, while every
/// live thread that has allocated keeps an allocator arena resident, so
/// the lot is kept small.
const MAX_PARKED: usize = 8;

/// One cluster's members, published for claiming.
pub(super) struct Batch<A> {
    pub(super) cluster: Cluster,
    /// Index into `cluster.members` of the next member to claim.
    next: AtomicUsize,
    done: Mutex<Done<A>>,
    drained: Condvar,
}

struct Done<A> {
    /// Per member, in `cluster.members` order; a panic inside a member is
    /// kept as its payload.
    slots: Vec<Option<std::thread::Result<A>>>,
    unfinished: usize,
}

impl<A> Batch<A> {
    pub(super) fn new(cluster: Cluster) -> Arc<Self> {
        let n = cluster.members.len();
        Arc::new(Batch {
            cluster,
            next: AtomicUsize::new(0),
            done: Mutex::new(Done {
                slots: std::iter::repeat_with(|| None).take(n).collect(),
                unfinished: n,
            }),
            drained: Condvar::new(),
        })
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::SeqCst) < self.cluster.members.len()
    }
}

struct State<A> {
    /// Published batches that may still have unclaimed members.
    open: Vec<Arc<Batch<A>>>,
    /// Parked helpers, most recently parked last. Summoning pops, so a
    /// few warm helpers do the work and the rest stay cold.
    parked: Vec<Thread>,
    /// Helper threads that have not exited yet.
    live: usize,
    shutdown: bool,
}

/// The helpers of one run plus the batches they may claim from.
pub(super) struct Crew<'a, A> {
    /// Runs one member's step; what it returns is the member's outcome.
    step: &'a (dyn Fn(AgentId, Step) -> A + Sync),
    state: Mutex<State<A>>,
    /// Signalled when the last live helper exits.
    gone: Condvar,
    /// Unclaimed members over all published batches (never below the
    /// true number: raised before a batch's first claim, lowered after
    /// each successful one).
    unclaimed: AtomicUsize,
    /// A summoned helper has not yet looked at the published batches.
    searching: AtomicBool,
    spawned: AtomicU64,
}

impl<'a, A: Send> Crew<'a, A> {
    pub(super) fn new(step: &'a (dyn Fn(AgentId, Step) -> A + Sync)) -> Self {
        Crew {
            step,
            state: Mutex::new(State {
                open: Vec::new(),
                parked: Vec::new(),
                live: 0,
                shutdown: false,
            }),
            gone: Condvar::new(),
            unclaimed: AtomicUsize::new(0),
            searching: AtomicBool::new(false),
            spawned: AtomicU64::new(0),
        }
    }

    /// Helper threads spawned so far.
    pub(super) fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Runs every member of `batch` — on this thread and on as many
    /// helpers as the members' blocking calls for — and returns their
    /// outcomes in `cluster.members` order.
    ///
    /// # Panics
    ///
    /// Resumes the panic of the first member (in member order) whose step
    /// panicked, after every member has finished.
    pub(super) fn run<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        batch: &Arc<Batch<A>>,
    ) -> Vec<A> {
        {
            let mut st = self.state.lock();
            self.unclaimed
                .fetch_add(batch.cluster.members.len(), Ordering::SeqCst);
            st.open.push(Arc::clone(batch));
        }
        while let Some(i) = self.claim(scope, batch) {
            self.run_member(batch, i);
        }
        self.state.lock().open.retain(|b| !Arc::ptr_eq(b, batch));
        let slots = {
            let mut done = batch.done.lock();
            while done.unfinished > 0 {
                batch.drained.wait(&mut done);
            }
            std::mem::take(&mut done.slots)
        };
        let mut outcomes = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.expect("a drained batch has every slot filled") {
                Ok(outcome) => outcomes.push(outcome),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        outcomes
    }

    /// Dismisses the crew and waits until every helper thread has exited:
    /// parked helpers leave at once, busy ones once they find nothing to
    /// claim. Batches still in progress finish normally (their claimers
    /// summon by spawning, and are waited for too).
    pub(super) fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        for helper in st.parked.drain(..) {
            helper.unpark();
        }
        while st.live > 0 {
            self.gone.wait(&mut st);
        }
    }

    /// Claims the next member of `batch`, applying the wake-up rule.
    fn claim<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        batch: &Batch<A>,
    ) -> Option<usize> {
        let i = batch.next.fetch_add(1, Ordering::SeqCst);
        if i >= batch.cluster.members.len() {
            return None;
        }
        let left = self.unclaimed.fetch_sub(1, Ordering::SeqCst) - 1;
        if left > 0
            && !self.searching.load(Ordering::SeqCst)
            && !self.searching.swap(true, Ordering::SeqCst)
        {
            self.summon(scope);
        }
        Some(i)
    }

    /// Hands the search to one helper: the most recently parked one, else
    /// a new thread.
    fn summon<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        let mut st = self.state.lock();
        if let Some(helper) = st.parked.pop() {
            drop(st);
            helper.unpark();
            return;
        }
        st.live += 1;
        drop(st);
        let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
            let _leaving = Leaving(self);
            self.help(scope);
        });
        if spawned.is_ok() {
            self.spawned.fetch_add(1, Ordering::Relaxed);
        } else {
            // The OS has no thread to give: nobody is searching after
            // all, and the members wait for the threads there are.
            drop(Leaving(self));
            self.searching.store(false, Ordering::SeqCst);
        }
    }

    /// A helper's life: look, claim and run, park — until it finds the
    /// lot full or the crew dismissed. Entered, and resumed from the lot,
    /// as the searching helper.
    fn help<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        let me = std::thread::current();
        let mut st = self.state.lock();
        loop {
            // The search ends with the look below. Clear the flag first:
            // a claimer that stayed quiet because it was set has by then
            // moved its cursor where this look sees what is left, and a
            // later claimer summons for itself.
            self.searching.store(false, Ordering::SeqCst);
            while let Some(batch) = st.open.iter().find(|b| b.has_unclaimed()).cloned() {
                drop(st);
                while let Some(i) = self.claim(scope, &batch) {
                    self.run_member(&batch, i);
                }
                st = self.state.lock();
            }
            if st.shutdown || st.parked.len() >= MAX_PARKED {
                return;
            }
            st.parked.push(me.clone());
            // Summoned means taken off the stack; `park` alone may return
            // for no reason.
            while st.parked.iter().any(|t| t.id() == me.id()) {
                drop(st);
                std::thread::park();
                st = self.state.lock();
            }
        }
    }

    /// Runs member `i` of `batch` on the calling thread and files the
    /// outcome (or the panic) in its slot.
    fn run_member(&self, batch: &Batch<A>, i: usize) {
        let (member, step) = (batch.cluster.members[i], batch.cluster.step);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.step)(member, step)));
        let mut done = batch.done.lock();
        done.slots[i] = Some(outcome);
        done.unfinished -= 1;
        if done.unfinished == 0 {
            batch.drained.notify_one();
        }
    }
}

/// Signs a helper thread off when it exits, unwinding included, so
/// [`Crew::shutdown`] cannot wait for a thread that is gone.
struct Leaving<'c, 'a, A>(&'c Crew<'a, A>);

impl<A> Drop for Leaving<'_, '_, A> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.live -= 1;
        if st.live == 0 {
            self.0.gone.notify_all();
        }
    }
}
