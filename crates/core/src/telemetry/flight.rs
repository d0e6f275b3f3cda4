//! The flight recorder: a bounded ring of the spans the span buffers
//! could no longer hold, in safe code.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use super::schema::Span;

/// Default flight-recorder ring capacity: the retained tail of recent
/// spans kept after the fixed buffers fill, so a crash dump always has
/// the *latest* activity even on a long overflowing run.
pub const DEFAULT_FLIGHT_SPANS: usize = 1 << 12;

/// The always-on flight recorder: a bounded ring fed with the spans the
/// fixed [`SpanBuf`](super::SpanBuf)s could no longer hold, so the most
/// recent activity survives for a crash dump.
///
/// The ring sits strictly *behind* the overflow branch of
/// [`SpanBuf::push`](super::SpanBuf::push): the non-overflow hot path
/// never touches it, and the overflow path never blocks — each slot is
/// a mutex taken with `try_lock`, so an offer costs one uncontended
/// lock. A slot another thread holds (an overflowing producer or a
/// reader) is counted in [`FlightRing::missed`] and skipped, preserving
/// invariant 4 (overflow drops, never blocks).
pub struct FlightRing {
    slots: Box<[Mutex<Option<Span>>]>,
    next: AtomicUsize,
    missed: AtomicU64,
}

impl std::fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRing")
            .field("capacity", &self.slots.len())
            .field("missed", &self.missed())
            .finish()
    }
}

impl FlightRing {
    /// A ring retaining the most recent [`DEFAULT_FLIGHT_SPANS`] overflow
    /// spans.
    pub(super) fn new() -> FlightRing {
        FlightRing {
            slots: (0..DEFAULT_FLIGHT_SPANS)
                .map(|_| Mutex::new(None))
                .collect(),
            next: AtomicUsize::new(0),
            missed: AtomicU64::new(0),
        }
    }

    /// Offers one span without ever blocking: one fetch-add to pick the
    /// slot, one `try_lock` to own it. A contended slot counts the span
    /// as missed and discards it.
    pub(super) fn offer(&self, span: Span) {
        // A constant power-of-two modulus: a mask, not a division.
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % DEFAULT_FLIGHT_SPANS;
        match self.slots[idx].try_lock() {
            Some(mut slot) => *slot = Some(span),
            None => {
                self.missed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies the retained spans, locking one slot at a time (unordered;
    /// [`Telemetry::flight_tail`](super::Telemetry::flight_tail) sorts
    /// by start time).
    pub(super) fn tail(&self) -> Vec<Span> {
        self.slots.iter().filter_map(|slot| *slot.lock()).collect()
    }

    /// Overflow spans the ring itself could not retain because the slot
    /// was contended at offer time.
    pub fn missed(&self) -> u64 {
        self.missed.load(Ordering::Relaxed)
    }
}
