//! The event scheduler of the discrete-event core.
//!
//! The simulator's pending-event set is one [`BinaryHeapQueue`] keyed by
//! `(time, seq)`: ascending time, then the engine's deterministic
//! tie-break. Pending events stay in the hundreds even at 10⁵ subscribers,
//! so a pop costs about ten comparisons.

use bdps_types::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: a payload tagged with its firing time and a `u64`
/// key (the deterministic tie-break for simultaneous events).
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break key; lower keys pop first among equal times. The engine
    /// derives it canonically from the event's content (see
    /// `engine::key`), so the `(time, seq)` total order is independent of
    /// scheduling order.
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> Scheduled<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Max-heap wrapper inverting the order so the earliest `(time, seq)` pops
/// first.
#[derive(Clone)]
struct HeapEntry<T>(Scheduled<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pending-event set: a [`BinaryHeap`] that pops in ascending
/// `(time, seq)` order — the total order replays depend on.
#[derive(Clone)]
pub struct BinaryHeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> BinaryHeapQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, event: Scheduled<T>) {
        self.heap.push(HeapEntry(event));
    }

    /// Removes and returns the earliest event if its time is at or before
    /// `limit`; leaves the queue untouched otherwise.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<Scheduled<T>> {
        if self.heap.peek()?.0.time > limit {
            return None;
        }
        self.heap.pop().map(|e| e.0)
    }

    /// The earliest event's time and payload, without removing it.
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.heap.peek().map(|e| (e.0.time, &e.0.item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every pending event, in unspecified order (end-of-run accounting of
    /// in-flight work).
    pub fn iter(&self) -> impl Iterator<Item = &Scheduled<T>> {
        self.heap.iter().map(|e| &e.0)
    }

    /// Removes and returns **every** event scheduled at the earliest pending
    /// time — the *same-instant frontier* — in ascending `seq` order. Returns
    /// an empty vector when the queue is empty or the earliest event is after
    /// `limit`.
    ///
    /// This is the branching primitive of the model-checking explorer
    /// (`bdps-mc`): the events of one frontier are exactly the events whose
    /// relative order the `(time, seq)` tie-break decides arbitrarily, so a
    /// bounded exhaustive search replays every permutation of each frontier.
    /// Callers re-insert unconsumed frontier events with
    /// [`push`](Self::push), preserving their original `seq`.
    pub fn take_frontier(&mut self, limit: SimTime) -> Vec<Scheduled<T>> {
        let mut frontier = Vec::new();
        let Some((head, _)) = self.peek() else {
            return frontier;
        };
        if head > limit {
            return frontier;
        }
        while let Some(e) = self.pop_if_at_or_before(head) {
            frontier.push(e);
        }
        frontier
    }
}

impl<T> Default for BinaryHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_us: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_micros(time_us),
            seq,
            item: seq,
        }
    }

    fn drain<T>(q: &mut BinaryHeapQueue<T>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_if_at_or_before(SimTime::MAX) {
            out.push((e.time, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(50, 3));
        q.push(ev(10, 4));
        q.push(ev(50, 1));
        q.push(ev(10, 2));
        q.push(ev(0, 5));
        let order = drain(&mut q);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], (SimTime::ZERO, 5));
    }

    #[test]
    fn pop_respects_the_limit() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(100, 1));
        q.push(ev(300, 2));
        assert!(q.pop_if_at_or_before(SimTime::from_micros(50)).is_none());
        assert_eq!(q.len(), 2);
        let first = q.pop_if_at_or_before(SimTime::from_micros(100)).unwrap();
        assert_eq!(first.seq, 1);
        assert!(q.pop_if_at_or_before(SimTime::from_micros(100)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_matches_pop_and_never_removes() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.peek().is_none());
        q.push(ev(70, 1));
        q.push(ev(20, 2));
        let (t, item) = q.peek().expect("non-empty");
        assert_eq!((t, *item), (SimTime::from_micros(20), 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if_at_or_before(SimTime::MAX).unwrap().seq, 2);
    }

    #[test]
    fn iter_visits_every_pending_event() {
        let mut q = BinaryHeapQueue::new();
        for seq in 0..100 {
            q.push(ev(seq * 37 % 1000, seq));
        }
        assert_eq!(q.iter().map(|e| e.item).sum::<u64>(), (0..100).sum());
    }

    #[test]
    fn clone_pops_in_the_same_order() {
        let mut q = BinaryHeapQueue::new();
        for seq in 0..200 {
            q.push(ev(seq * 7919 % 500, seq));
        }
        let mut branch = q.clone();
        assert_eq!(drain(&mut branch), drain(&mut q));
    }

    #[test]
    fn take_frontier_returns_all_same_instant_events_in_seq_order() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(100, 3));
        q.push(ev(100, 1));
        q.push(ev(200, 2));
        q.push(ev(100, 4));
        let frontier = q.take_frontier(SimTime::MAX);
        assert_eq!(
            frontier.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        assert!(frontier.iter().all(|e| e.time.as_micros() == 100));
        assert_eq!(q.len(), 1);
        // Re-inserting with the original seq restores the pop order.
        for e in frontier {
            q.push(e);
        }
        assert_eq!(q.pop_if_at_or_before(SimTime::MAX).unwrap().seq, 1);
    }

    #[test]
    fn take_frontier_respects_the_limit_and_empty_queue() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.take_frontier(SimTime::MAX).is_empty());
        q.push(ev(500, 1));
        assert!(q.take_frontier(SimTime::from_micros(499)).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.take_frontier(SimTime::from_micros(500)).len(), 1);
        assert!(q.is_empty());
    }
}
