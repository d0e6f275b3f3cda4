//! The per-track span buffer: the one module of `aim-core` allowed
//! `unsafe` code, in three places — the `Sync` impl, the slot write in
//! [`SpanBuf::push`] and the slot read in `SpanBuf::published`. The
//! argument for all three is the claim/publish protocol stated once on
//! [`SpanBuf`].

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use super::flight::FlightRing;
use super::schema::Span;

/// A fixed-capacity, lock-free, multi-producer span buffer.
///
/// # Invariants (the hot-path contract)
///
/// These are what keep recording cheap enough to leave on in production
/// runs, and they are relied on by the bench gate:
///
/// 1. **All storage is pre-allocated at construction.** `push` performs
///    **no allocation while a span is open on the hot path** — a span is
///    "opened" by reading the clock ([`Telemetry::start`]) and "closed"
///    by `push`; between and during those there is no heap activity, no
///    lock, and no syscall.
/// 2. **Slots are claimed by one atomic `fetch_add`.** Each producer gets
///    a unique index, so concurrent producers never contend on anything
///    but that one cache line; there is no CAS loop and no mutex.
/// 3. **Publication is per-slot Release/Acquire.** The payload write
///    happens-before the `ready` flag's `Release` store; readers only
///    dereference slots whose flag they observed with `Acquire`. A drain
///    running concurrently with producers (e.g. a detached hedge thread
///    finishing after the run) sees either a complete span or none.
/// 4. **Overflow drops, never blocks.** When the buffer is full the span
///    is counted in [`SpanBuf::dropped`] and discarded — backpressure
///    must never change the timing being measured. A dropped span is
///    first *offered* to the sink's [`FlightRing`], whose `try_lock`
///    slots likewise never block.
///
/// # Safety: claim/publish
///
/// Invariants 2 and 3 are the whole argument for the `unsafe` below. A
/// slot's payload is written exactly once, by the one producer whose
/// `fetch_add` claimed its index, before that producer's `Release` store
/// of `ready`; it is read only after an `Acquire` load saw `ready` set,
/// and never written again. So no write races a write or a read, and
/// every read sees a fully initialised `Span`.
///
/// [`Telemetry::start`]: super::Telemetry::start
pub struct SpanBuf {
    track: u32,
    slots: Box<[SpanSlot]>,
    /// Claims so far; each one at or past the capacity dropped its span.
    next: AtomicUsize,
    flight: Arc<FlightRing>,
}

struct SpanSlot {
    ready: AtomicBool,
    span: UnsafeCell<MaybeUninit<Span>>,
}

// SAFETY: every field but `slots` is `Sync` on its own; shared access
// to a slot's `UnsafeCell` follows the claim/publish protocol above.
unsafe impl Sync for SpanBuf {}

impl std::fmt::Debug for SpanBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanBuf")
            .field("track", &self.track)
            .field("capacity", &self.slots.len())
            .field("used", &self.used())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanBuf {
    pub(super) fn new(track: u32, capacity: usize, flight: Arc<FlightRing>) -> SpanBuf {
        assert!(capacity > 0, "span buffer needs at least one slot");
        let slots = (0..capacity)
            .map(|_| SpanSlot {
                ready: AtomicBool::new(false),
                span: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanBuf {
            track,
            slots,
            next: AtomicUsize::new(0),
            flight,
        }
    }

    /// Records one span as given, `track` included (invariants above:
    /// one fetch-add, one Release store, no allocation). Full buffers
    /// count the span as dropped after offering it to the flight
    /// recorder (invariant 4).
    #[inline]
    pub fn push(&self, span: Span) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(idx) else {
            self.flight.offer(span);
            return;
        };
        // SAFETY: claim/publish — the fetch_add above claimed `idx`.
        unsafe { (*slot.span.get()).write(span) };
        slot.ready.store(true, Ordering::Release);
    }

    /// The track id this buffer's spans carry.
    pub(super) fn track(&self) -> u32 {
        self.track
    }

    /// Spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        let claimed = self.next.load(Ordering::Relaxed);
        claimed.saturating_sub(self.slots.len()) as u64
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots claimed so far (published or still being written).
    pub(super) fn used(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// The span in slot `idx`, once its producer has published it.
    fn published(&self, idx: usize) -> Option<Span> {
        let slot = &self.slots[idx];
        if !slot.ready.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: claim/publish — `ready` was seen set with Acquire.
        Some(unsafe { (*slot.span.get()).assume_init() })
    }

    /// Copies every published span into `out`. Safe to run concurrently
    /// with producers: unpublished slots are skipped (invariant 3).
    pub(super) fn drain_into(&self, out: &mut Vec<Span>) {
        out.extend((0..self.used()).filter_map(|idx| self.published(idx)));
    }

    /// Copies published spans from slot `from` on into `out`, stopping at
    /// the first unpublished slot — an incremental reader must never skip
    /// a slot it will not revisit. Returns the new watermark. With a
    /// single producer (a `dist` worker records only on its message
    /// thread) every claimed slot below `next` is already published, so
    /// the watermark always reaches the full used count.
    pub(super) fn drain_range_into(&self, from: usize, out: &mut Vec<Span>) -> usize {
        let used = self.used();
        let mut pos = from.min(used);
        while pos < used {
            let Some(span) = self.published(pos) else {
                break;
            };
            out.push(span);
            pos += 1;
        }
        pos
    }
}
