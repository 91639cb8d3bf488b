//! The simulator's calendar: a stable priority queue of timed events.
//!
//! Events that share a timestamp pop in push order (FIFO), which keeps the
//! simulation deterministic and makes "NIC grabbed the packet that was
//! enqueued first" reasoning valid.
//!
//! [`EventQueue`] is a binary heap keyed by `(time, push sequence)`, sized by
//! the traffic it serves. Counted on the `perf` loops, `split_warm`,
//! `small_batch` and the 16-node `collectives_round` keep 7.9 / 19.2 / 90.7
//! events live on average (at most 14 / 92 / 194), so a pop is a handful of
//! sift steps. The 256-bucket, 4.096 µs calendar ring that PR 25 replaced
//! walked 3.6 / 0.79 / 0.23 empty buckets per pop on the same loops, and on
//! `split_warm` one pop in 32 fell through to its far-future heap; it had
//! been chosen on 1024 scattered events against a heap with a tombstone
//! set. Nothing here cancels: a stale idle check is dropped by its
//! resource's generation when it pops, and the events of a retracted
//! transfer are ignored by the simulator.
//!
//! It pops in strictly ascending `(time, push order)`. The contract is held
//! by a sorted-`Vec` model in `tests/fig8_trace_determinism.rs`, under
//! arbitrary interleavings of push and pop and on fig8's schedule.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]

use nm_model::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event, ordered by `(time, seq)` alone.
#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed: [`BinaryHeap`] is a max-heap, and the earliest
    /// `(time, seq)` must be on top.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A stable time-ordered queue.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` at `time`, behind every event already due at
    /// `time`.
    // nm-analyzer: allow(unbounded-growth) -- one heap entry per outstanding event, removed by
    // its pop
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Timestamp of the earliest event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(7), ());
        q.push(t(3), ());
        assert_eq!(q.peek_time(), Some(t(3)));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, t(3));
    }

    #[test]
    fn late_push_behind_the_cursor_still_pops_first() {
        // The cursor is the last pop: an event pushed earlier than it is
        // still the next to pop.
        let mut q = EventQueue::new();
        q.push(t(5000), "later");
        q.push(t(6000), "last");
        assert_eq!(q.pop(), Some((t(5000), "later")));
        q.push(t(1), "early");
        assert_eq!(q.pop(), Some((t(1), "early")));
        assert_eq!(q.pop(), Some((t(6000), "last")));
        assert!(q.is_empty());
    }

    proptest! {
        /// Under interleaved push (60 %) and pop (40 %), each pop is no
        /// earlier than the previous pop or any push since, and every
        /// pushed event pops exactly once.
        #[test]
        fn times_nondecreasing(
            ops in proptest::collection::vec((0u8..10, 0u64..64), 1..300),
        ) {
            let mut q = EventQueue::new();
            let (mut pushed, mut popped) = (0usize, 0usize);
            let mut floor = SimTime::ZERO;
            for (op, us) in ops.iter().copied().chain(std::iter::repeat_n((9, 0), 300)) {
                if op < 6 {
                    q.push(t(us), us);
                    pushed += 1;
                    floor = floor.min(t(us));
                } else if let Some((at, _)) = q.pop() {
                    prop_assert!(at >= floor);
                    floor = at;
                    popped += 1;
                }
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(popped, pushed);
        }
    }
}
