use std::collections::BinaryHeap;
use std::fmt;

use parking_lot::{Condvar, Mutex};

/// Error returned by [`PriorityQueue::push`] when the queue has been closed;
/// carries the rejected item back to the caller (mirroring
/// `std::sync::mpsc::SendError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueClosed<T>(pub T);

impl<T> fmt::Display for QueueClosed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue is closed")
    }
}

impl<T: fmt::Debug> std::error::Error for QueueClosed<T> {}

struct HeapEntry<T> {
    priority: u64,
    seq: u64,
    item: T,
}

// Order inverted so that the std max-heap pops the *smallest*
// (priority, seq) first: lower priority value = more urgent, and FIFO among
// equal priorities.
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.priority, other.seq).cmp(&(self.priority, self.seq))
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}

struct Inner<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
    closed: bool,
}

/// A blocking multi-producer/multi-consumer priority queue.
///
/// This is the data structure behind the engine's `ready_queue` and
/// `ack_queue` (paper §3.1): entries carry a numeric priority — the
/// simulation step of the cluster — and **lower values dequeue first**
/// (§3.5: "requests with smaller counts have higher execution priority").
/// Ties break FIFO by insertion order, so pushing everything with the same
/// priority turns the queue into a plain FIFO channel; that is exactly how
/// the `w/o priority` configuration of Table 1 is implemented.
///
/// # Example
///
/// ```
/// use aim_store::PriorityQueue;
///
/// let q = PriorityQueue::new();
/// q.push(3, "late").unwrap();
/// q.push(1, "early").unwrap();
/// q.push(1, "early2").unwrap();
/// assert_eq!(q.try_pop(), Some("early"));
/// assert_eq!(q.try_pop(), Some("early2"));
/// assert_eq!(q.try_pop(), Some("late"));
/// ```
pub struct PriorityQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> fmt::Debug for PriorityQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PriorityQueue")
            .field("len", &inner.heap.len())
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> Default for PriorityQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PriorityQueue<T> {
    /// Creates an empty, open queue.
    pub fn new() -> Self {
        PriorityQueue {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `item` with `priority` (lower dequeues first).
    ///
    /// # Errors
    ///
    /// Returns [`QueueClosed`] containing `item` if [`PriorityQueue::close`]
    /// was called.
    pub fn push(&self, priority: u64, item: T) -> Result<(), QueueClosed<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(QueueClosed(item));
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.heap.push(HeapEntry {
            priority,
            seq,
            item,
        });
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the most urgent item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(e) = inner.heap.pop() {
                return Some(e.item);
            }
            if inner.closed {
                return None;
            }
            self.available.wait(&mut inner);
        }
    }

    /// Non-blocking dequeue.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().heap.pop().map(|e| e.item)
    }

    /// Closes the queue: further pushes fail, and consumers drain the
    /// remaining items before observing `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().heap.len()
    }

    /// Returns `true` if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn orders_by_priority_then_fifo() {
        let q = PriorityQueue::new();
        q.push(2, "c").unwrap();
        q.push(1, "a").unwrap();
        q.push(1, "b").unwrap();
        q.push(0, "zero").unwrap();
        assert_eq!(q.try_pop(), Some("zero"));
        assert_eq!(q.try_pop(), Some("a"));
        assert_eq!(q.try_pop(), Some("b"));
        assert_eq!(q.try_pop(), Some("c"));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn uniform_priority_is_fifo() {
        let q = PriorityQueue::new();
        for i in 0..100 {
            q.push(0, i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(q.try_pop(), Some(i));
        }
    }

    #[test]
    fn close_rejects_push_and_drains() {
        let q = PriorityQueue::new();
        q.push(1, 10).unwrap();
        q.close();
        assert_eq!(q.push(1, 11), Err(QueueClosed(11)));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(PriorityQueue::new());
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(5, 42u32).unwrap();
        assert_eq!(handle.join().unwrap(), Some(42));
    }

    #[test]
    fn blocking_pop_wakes_on_close() {
        let q: Arc<PriorityQueue<u32>> = Arc::new(PriorityQueue::new());
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn mpmc_total_delivery() {
        let q = Arc::new(PriorityQueue::new());
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        q.push(i % 7, (p, i)).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }
}
