//! The calendar queue against the model of its contract: events pop in
//! ascending `(time, push order)`.
//!
//! [`ModelQueue`] is that sentence as code — a `Vec` kept sorted by
//! insertion. [`EventQueue`] must agree with it pop for pop under arbitrary
//! interleavings of push and pop (proptest, with timestamps drawn narrow so
//! ties are common and pushes land behind the last pop), and on a replay of
//! fig8's bandwidth-ladder schedule (the paper testbed's two rails, message
//! sizes 1 KiB → 4 MiB, chunk completions + idle notifications): the figure
//! harnesses are required to be bit-identical whatever orders the calendar.
//! The committed golden figure outputs (see `repro check`,
//! `crates/bench/tests/repro_check.rs`) then pin the end-to-end result.

use nm_model::{SimDuration, SimTime};
use nm_sim::EventQueue;
use proptest::prelude::*;

/// The reference: every pending event, sorted by `(time, push order)`.
struct ModelQueue<T> {
    events: Vec<(SimTime, T)>,
}

impl<T> ModelQueue<T> {
    fn new() -> Self {
        ModelQueue { events: Vec::new() }
    }

    /// Behind every event due at or before `time`: ties pop in push order.
    fn push(&mut self, time: SimTime, payload: T) {
        let at = self.events.partition_point(|e| e.0 <= time);
        self.events.insert(at, (time, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        (!self.events.is_empty()).then(|| self.events.remove(0))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.events.first().map(|e| e.0)
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

proptest! {
    /// The calendar pops the exact same `(time, payload)` sequence as the
    /// model under arbitrary interleavings of push and pop — the
    /// bit-identical-figures guarantee. Times come from 32 distinct
    /// instants, so equal timestamps are common and many pushes land
    /// earlier than the last pop.
    #[test]
    fn calendar_matches_model_pop_order(
        ops in proptest::collection::vec((0u8..10, 0u64..32), 1..300),
    ) {
        let t = SimTime::from_micros;
        let mut cal = EventQueue::new();
        let mut model = ModelQueue::new();
        for (tag, &(op, arg)) in ops.iter().enumerate() {
            if op < 6 {
                // 60%: push.
                cal.push(t(arg), tag);
                model.push(t(arg), tag);
            } else {
                // 40%: pop and compare.
                prop_assert_eq!(cal.pop(), model.pop());
            }
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(cal.peek_time(), model.peek_time());
        }
        loop {
            let (a, b) = (cal.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Events of the mimic simulation, tagged for exact comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    ChunkDone { rail: usize, msg: u64 },
    RailIdle { rail: usize },
}

/// Affine per-rail chunk duration from the paper testbed's sampled shape:
/// `lat + bytes / bw` (Myri-10G-like and QsNetII-like).
fn chunk_ns(rail: usize, bytes: u64) -> u64 {
    let (lat_ns, bytes_per_us) = if rail == 0 { (2_300, 1_170) } else { (1_400, 840) };
    lat_ns + bytes * 1_000 / bytes_per_us
}

#[test]
fn calendar_replays_fig8_trace_identically() {
    let mut cal = EventQueue::new();
    let mut model = ModelQueue::new();

    // fig8's ladder: sizes 1 KiB .. 4 MiB, split 60/40 over the two rails.
    let sizes: Vec<u64> = (10..=22).map(|p| 1u64 << p).collect();
    let mut now = SimTime::ZERO;
    let mut popped = 0usize;

    for (msg, &size) in sizes.iter().enumerate() {
        // Submit both chunks at the current instant; each rail also gets an
        // idle notification scheduled right after its chunk completes.
        for rail in 0..2 {
            let bytes = if rail == 0 { size * 6 / 10 } else { size - size * 6 / 10 };
            let done_at = now + SimDuration::from_nanos(chunk_ns(rail, bytes));
            cal.push(done_at, Ev::ChunkDone { rail, msg: msg as u64 });
            model.push(done_at, Ev::ChunkDone { rail, msg: msg as u64 });
            let idle_at = done_at + SimDuration::from_nanos(1);
            cal.push(idle_at, Ev::RailIdle { rail });
            model.push(idle_at, Ev::RailIdle { rail });
        }

        // Drain this message's events in lockstep before the next rung.
        loop {
            assert_eq!(cal.peek_time(), model.peek_time());
            let (a, b) = (cal.pop(), model.pop());
            assert_eq!(a, b, "divergence after {popped} pops");
            match a {
                Some((at, _)) => {
                    assert!(at >= now, "time went backwards");
                    now = at;
                    popped += 1;
                }
                None => break,
            }
        }
        assert!(cal.is_empty() && model.len() == 0);
    }

    // 13 rungs × (2 chunk completions + 2 idles).
    assert_eq!(popped, 13 * 4);
}
