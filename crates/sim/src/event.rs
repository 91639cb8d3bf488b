//! The simulator's calendar: a stable priority queue of timed events.
//!
//! Events that share a timestamp pop in insertion order (FIFO), which keeps
//! the simulation deterministic and makes "NIC grabbed the packet that was
//! enqueued first" reasoning valid. Cancellation is supported by id — used
//! to retract stale idle notifications when a resource gets re-busied.
//!
//! [`EventQueue`] is an **indexed calendar queue**: payloads live in a
//! slab whose slots carry generation counters, so cancellation is O(1)
//! (bump the generation, free the slot) with no tombstone set to search.
//! Time is indexed by a ring of near-future buckets (events within ~1 ms
//! of the cursor) backed by a binary heap for far-future events, which
//! migrate into the ring lazily as the cursor approaches them.
//!
//! It pops in strictly ascending `(time, insertion order)`. The contract is
//! held by a sorted-`Vec` model in `tests/fig8_trace_determinism.rs`, under
//! arbitrary interleavings of push, cancel and pop and on fig8's schedule;
//! the binary heap with a tombstone set that the calendar replaced (and was
//! first checked against) is gone.

use nm_model::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Nanoseconds per bucket, as a shift: 2^12 = 4.096 µs wide.
const BUCKET_SHIFT: u32 = 12;
/// Buckets in the near-future ring (must be a power of two): the ring
/// covers ~1.05 ms ahead of the cursor.
const NUM_BUCKETS: usize = 256;

/// Reference to a slab slot, ordered by `(time, seq)` for the far heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventRef {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialOrd for EventRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    payload: Option<T>,
}

/// A stable, cancellable time-ordered queue (indexed calendar).
#[derive(Debug)]
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// Ring of buckets covering ticks `[cursor_tick, cursor_tick + NUM_BUCKETS)`.
    near: Vec<Vec<EventRef>>,
    /// Total refs (live + stale) currently in the ring.
    near_refs: usize,
    /// Events at ticks `>= cursor_tick + NUM_BUCKETS`.
    far: BinaryHeap<Reverse<EventRef>>,
    cursor_tick: u64,
    live: usize,
    next_seq: u64,
}

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            near: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            near_refs: 0,
            far: BinaryHeap::new(),
            cursor_tick: 0,
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`; returns a handle for cancellation.
    // nm-analyzer: allow(unbounded-growth) -- calendar slab: the free list recycles retired
    // slots, so population equals outstanding events
    pub fn push(&mut self, time: SimTime, payload: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].payload = Some(payload);
                s
            }
            None => {
                self.slots.push(Slot { gen: 0, payload: Some(payload) });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        let r = EventRef { time, seq, slot, gen };
        // Late pushes (behind the cursor) land in the cursor's own bucket:
        // the min-scan there compares real `(time, seq)`, so they still pop
        // first. Far-future pushes go to the overflow heap.
        let tick = tick_of(time).max(self.cursor_tick);
        if tick < self.cursor_tick + NUM_BUCKETS as u64 {
            self.near[(tick as usize) & (NUM_BUCKETS - 1)].push(r);
            self.near_refs += 1;
        } else {
            self.far.push(Reverse(r));
        }
        self.live += 1;
        EventId { slot, gen }
    }

    /// Cancels a previously scheduled event in O(1). Cancelling an
    /// already-popped or already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let s = &mut self.slots[id.slot as usize];
        if s.gen == id.gen && s.payload.is_some() {
            self.retire(id.slot);
        }
    }

    /// Frees a slot: the generation bump orphans every outstanding
    /// [`EventRef`], which the scans then drop lazily.
    // nm-analyzer: allow(unbounded-growth) -- free list is bounded by the slab: one entry per
    // retired slot, popped on reuse
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.payload = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    fn ref_is_live(&self, r: &EventRef) -> bool {
        self.slots[r.slot as usize].gen == r.gen
    }

    /// Moves far-heap events that entered the ring's horizon into their
    /// buckets, dropping stale refs on the way.
    // nm-analyzer: allow(unbounded-growth) -- moves refs between near ring and far heap; total
    // population is still one ref per outstanding event
    fn migrate_far(&mut self) {
        let horizon = self.cursor_tick + NUM_BUCKETS as u64;
        while let Some(Reverse(r)) = self.far.peek().copied() {
            if !self.ref_is_live(&r) {
                self.far.pop();
                continue;
            }
            if tick_of(r.time) >= horizon {
                break;
            }
            self.far.pop();
            let tick = tick_of(r.time).max(self.cursor_tick);
            self.near[(tick as usize) & (NUM_BUCKETS - 1)].push(r);
            self.near_refs += 1;
        }
    }

    /// Advances the cursor to the bucket holding the earliest live event
    /// and returns the position of its minimal `(time, seq)` ref as
    /// `(bucket, index)`. `None` when no live events remain.
    fn find_min(&mut self) -> Option<(usize, usize)> {
        if self.live == 0 {
            return None;
        }
        loop {
            if self.near_refs == 0 {
                // Every live event is in the far heap: jump the cursor to
                // its top instead of stepping through empty buckets.
                while let Some(Reverse(r)) = self.far.peek() {
                    if self.ref_is_live(r) {
                        break;
                    }
                    self.far.pop();
                }
                let top = self.far.peek().expect("live > 0 and ring empty");
                self.cursor_tick = tick_of(top.0.time);
                self.migrate_far();
            }
            let b = (self.cursor_tick as usize) & (NUM_BUCKETS - 1);
            // Drop stale refs, then pick the minimal live one.
            let mut i = 0;
            while i < self.near[b].len() {
                if self.ref_is_live(&self.near[b][i]) {
                    i += 1;
                } else {
                    self.near[b].swap_remove(i);
                    self.near_refs -= 1;
                }
            }
            if let Some((idx, _)) =
                self.near[b].iter().enumerate().min_by(|(_, a), (_, b)| a.cmp(b))
            {
                return Some((b, idx));
            }
            // Bucket exhausted: step the cursor, pulling far events that
            // the one-tick-wider horizon now covers.
            self.cursor_tick += 1;
            self.migrate_far();
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (b, idx) = self.find_min()?;
        let r = self.near[b].swap_remove(idx);
        self.near_refs -= 1;
        let payload = self.slots[r.slot as usize].payload.take().expect("live ref");
        self.retire(r.slot);
        Some((r.time, payload))
    }

    /// Timestamp of the earliest live event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let (b, idx) = self.find_min()?;
        Some(self.near[b][idx].time)
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        let c = q.push(t(3), "c");
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
        // Cancelling a dead event is harmless.
        q.cancel(a);
        assert_eq!(q.pop(), None);
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
    fn far_future_events_migrate_into_the_ring() {
        // Spread events far beyond the ring's ~1 ms horizon so they all
        // start in the overflow heap, then verify exact ordering.
        let ms = |m: u64| SimTime::from_nanos(m * 1_000_000);
        let mut q = EventQueue::new();
        for i in (0..50u64).rev() {
            q.push(ms(10 + i * 7), i);
        }
        for want in 0..50u64 {
            let (at, v) = q.pop().unwrap();
            assert_eq!((at, v), (ms(10 + want * 7), want));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slot_reuse_does_not_resurrect_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.push(t(5), "a");
        q.cancel(a);
        // The freed slot is reused with a bumped generation; the stale ref
        // for "a" must not shadow or leak into the new event.
        let b = q.push(t(5), "b");
        assert_ne!(a, b);
        q.cancel(a); // stale handle: no-op
        assert_eq!(q.pop(), Some((t(5), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn late_push_behind_the_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(5000), "later");
        assert_eq!(q.peek_time(), Some(t(5000))); // cursor advanced to ~5 ms
        q.push(t(1), "early");
        assert_eq!(q.pop(), Some((t(1), "early")));
        assert_eq!(q.pop(), Some((t(5000), "later")));
    }

    proptest! {
        /// Popping yields a non-decreasing time sequence regardless of
        /// insertion order and cancellations.
        #[test]
        fn times_nondecreasing(
            times in proptest::collection::vec(0u64..1000, 1..200),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times.iter().map(|&us| q.push(t(us), us)).collect();
            for (id, &dead) in ids.iter().zip(cancel_mask.iter()) {
                if dead {
                    q.cancel(*id);
                }
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0usize;
            while let Some((at, _)) = q.pop() {
                prop_assert!(at >= last);
                last = at;
                popped += 1;
            }
            let live = times.len()
                - cancel_mask.iter().take(times.len()).filter(|&&d| d).count();
            prop_assert_eq!(popped, live);
        }
    }
}
