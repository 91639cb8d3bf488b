//! Per-flow sequencing.
//!
//! When one logical flow is striped over several rails, later messages may
//! physically arrive before earlier ones. NewMadeleine guarantees in-order
//! delivery per (peer, tag) flow; [`Sequencer`] enforces it: arrivals are
//! released strictly in sequence-number order, buffering holes.

use crate::error::ProtoError;
use std::collections::BTreeMap;

/// A logical flow identifier: (peer, tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId {
    /// Remote peer index.
    pub peer: u32,
    /// Application tag.
    pub tag: u32,
}

/// Reorders one flow's messages into send order.
///
/// A sequence number can also be [`Sequencer::skip`]ped (the sender
/// cancelled that message): the hole is released as nothing instead of
/// stalling the flow.
///
/// ```
/// use nm_proto::Sequencer;
///
/// let mut seq = Sequencer::new(16);
/// assert!(seq.accept(1, "second").unwrap().is_empty()); // hole at 0
/// assert_eq!(seq.accept(0, "first").unwrap(), vec!["first", "second"]);
/// ```
#[derive(Debug)]
pub struct Sequencer<T> {
    next: u64,
    /// `None` marks a skipped (cancelled) sequence number.
    held: BTreeMap<u64, Option<T>>,
    /// Cap on buffered out-of-order messages (flow-control safety valve).
    window: usize,
    /// Current flow epoch (bumped on failover re-planning); arrivals
    /// stamped with an older epoch are rejected by
    /// [`Self::accept_epoch`].
    epoch: u64,
}

impl<T> Sequencer<T> {
    /// A sequencer expecting sequence numbers from 0, buffering at most
    /// `window` out-of-order messages.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one message");
        Sequencer { next: 0, held: BTreeMap::new(), window, epoch: 0 }
    }

    /// Next sequence number the flow will release.
    pub fn expected(&self) -> u64 {
        self.next
    }

    /// Number of buffered out-of-order messages.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Current flow epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the flow epoch (failover re-planned in-flight messages).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Like [`Self::accept`], but the arrival carries the epoch it was sent
    /// under: stragglers from a superseded plan are rejected with
    /// [`ProtoError::StaleEpoch`], and an epoch the flow has never
    /// announced is a sequencing violation.
    pub fn accept_epoch(&mut self, epoch: u64, seq: u64, msg: T) -> Result<Vec<T>, ProtoError> {
        if epoch < self.epoch {
            return Err(ProtoError::StaleEpoch { got: epoch, current: self.epoch });
        }
        if epoch > self.epoch {
            return Err(ProtoError::BadSequence(format!(
                "seq {seq} from future epoch {epoch} (current is {})",
                self.epoch
            )));
        }
        self.accept(seq, msg)
    }

    /// Accepts message `seq` and returns everything now releasable, in
    /// order. Duplicates (already released or already held) and arrivals
    /// beyond the reorder window are rejected.
    pub fn accept(&mut self, seq: u64, msg: T) -> Result<Vec<T>, ProtoError> {
        let mut out = Vec::new();
        self.accept_into(seq, msg, &mut out)?;
        Ok(out)
    }

    /// [`Self::accept`] appending what became releasable to `out`, which is
    /// untouched on error. The in-order arrival with nothing held — a
    /// flow's steady state — goes straight to `out` without touching the
    /// reorder buffer.
    pub fn accept_into(&mut self, seq: u64, msg: T, out: &mut Vec<T>) -> Result<(), ProtoError> {
        if seq == self.next && self.held.is_empty() {
            self.next += 1;
            out.push(msg);
            return Ok(());
        }
        self.admit(seq, Some(msg))?;
        self.release_into(out);
        Ok(())
    }

    /// Marks `seq` as cancelled: the flow no longer waits for it. Returns
    /// whatever became releasable past the hole.
    pub fn skip(&mut self, seq: u64) -> Result<Vec<T>, ProtoError> {
        self.admit(seq, None)?;
        let mut out = Vec::new();
        self.release_into(&mut out);
        Ok(out)
    }

    fn admit(&mut self, seq: u64, slot: Option<T>) -> Result<(), ProtoError> {
        if seq < self.next {
            return Err(ProtoError::BadSequence(format!(
                "duplicate: seq {seq} already released (next is {})",
                self.next
            )));
        }
        if self.held.contains_key(&seq) {
            return Err(ProtoError::BadSequence(format!("duplicate: seq {seq} already held")));
        }
        if seq >= self.next + self.window as u64 {
            return Err(ProtoError::BadSequence(format!(
                "seq {seq} beyond reorder window [{}, {})",
                self.next,
                self.next + self.window as u64
            )));
        }
        self.held.insert(seq, slot);
        Ok(())
    }

    fn release_into(&mut self, out: &mut Vec<T>) {
        while let Some(slot) = self.held.remove(&self.next) {
            if let Some(msg) = slot {
                out.push(msg);
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_order_stream_passes_through() {
        let mut s = Sequencer::new(8);
        for i in 0..5u64 {
            let out = s.accept(i, i).unwrap();
            assert_eq!(out, vec![i]);
        }
        assert_eq!(s.expected(), 5);
        assert_eq!(s.held(), 0);
    }

    #[test]
    fn hole_buffers_until_filled() {
        let mut s = Sequencer::new(8);
        assert!(s.accept(1, "b").unwrap().is_empty());
        assert!(s.accept(2, "c").unwrap().is_empty());
        assert_eq!(s.held(), 2);
        let out = s.accept(0, "a").unwrap();
        assert_eq!(out, vec!["a", "b", "c"]);
        assert_eq!(s.expected(), 3);
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut s = Sequencer::new(8);
        s.accept(0, ()).unwrap();
        assert!(matches!(s.accept(0, ()), Err(ProtoError::BadSequence(_))));
        s.accept(2, ()).unwrap();
        assert!(matches!(s.accept(2, ()), Err(ProtoError::BadSequence(_))));
    }

    #[test]
    fn window_overflow_is_rejected() {
        let mut s = Sequencer::new(4);
        assert!(s.accept(3, ()).is_ok()); // inside [0, 4)
        assert!(matches!(s.accept(4, ()), Err(ProtoError::BadSequence(_))));
    }

    #[test]
    fn skipped_sequences_do_not_stall_the_flow() {
        let mut s = Sequencer::new(8);
        assert!(s.accept(2, "c").unwrap().is_empty());
        // Cancel seq 1 before 0 arrives: nothing releasable yet.
        assert!(s.skip(1).unwrap().is_empty());
        // Seq 0 arrives: 0 releases, the hole at 1 is silently consumed,
        // and 2 follows.
        assert_eq!(s.accept(0, "a").unwrap(), vec!["a", "c"]);
        assert_eq!(s.expected(), 3);
    }

    #[test]
    fn skip_at_the_head_releases_immediately() {
        let mut s = Sequencer::new(8);
        assert!(s.accept(1, "b").unwrap().is_empty());
        assert_eq!(s.skip(0).unwrap(), vec!["b"]);
        // Skipping something already past is a duplicate error.
        assert!(matches!(s.skip(0), Err(ProtoError::BadSequence(_))));
    }

    #[test]
    fn stale_epoch_arrivals_are_rejected() {
        let mut s = Sequencer::new(8);
        assert_eq!(s.accept_epoch(0, 0, "a").unwrap(), vec!["a"]);
        s.bump_epoch();
        assert_eq!(s.epoch(), 1);
        // A straggler sent under the old plan must not enter the flow.
        assert_eq!(
            s.accept_epoch(0, 1, "stale").unwrap_err(),
            ProtoError::StaleEpoch { got: 0, current: 1 }
        );
        // The re-sent copy under the new epoch is accepted normally.
        assert_eq!(s.accept_epoch(1, 1, "b").unwrap(), vec!["b"]);
        // Future epochs the flow never announced are violations.
        assert!(matches!(s.accept_epoch(3, 2, "c"), Err(ProtoError::BadSequence(_))));
    }

    #[test]
    fn an_in_order_arrival_with_nothing_held_bypasses_the_reorder_buffer() {
        let mut s = Sequencer::new(8);
        let mut out = Vec::with_capacity(4);
        // That it allocates nothing either is proven process-wide, with a
        // counting allocator, in `crates/bench/tests/no_alloc.rs`.
        for i in 0..4u64 {
            s.accept_into(i, i, &mut out).unwrap();
            assert_eq!(s.held(), 0);
        }
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(s.expected(), 4);
        // An error leaves the caller's buffer as it was.
        assert!(s.accept_into(2, 2, &mut out).is_err());
        assert_eq!(out, [0, 1, 2, 3]);
    }

    /// What `accept` did before the in-order fast path: every arrival goes
    /// through the reorder buffer.
    fn accept_through_the_map<T>(
        s: &mut Sequencer<T>,
        seq: u64,
        msg: T,
    ) -> Result<Vec<T>, ProtoError> {
        s.admit(seq, Some(msg))?;
        let mut out = Vec::new();
        s.release_into(&mut out);
        Ok(out)
    }

    proptest! {
        /// `accept_into` (and so `accept`) releases what the reorder buffer
        /// alone would: over any permutation inside the window, interleaved
        /// with skips, with every third arrival repeated and one arrival
        /// past the window, the same messages in the same order, and the
        /// same arrivals refused with the same errors.
        #[test]
        fn accept_into_releases_and_refuses_exactly_what_accept_does(
            n in 1usize..32,
            seed in any::<u64>(),
            skips in any::<u32>(),
        ) {
            let mut order: Vec<u64> = (0..n as u64).collect();
            for i in 0..n {
                let j = (seed as usize).wrapping_mul(i * 13 + 7) % n;
                order.swap(i, j);
            }
            order.insert(n / 2, 2 * n as u64);
            let (mut a, mut b) = (Sequencer::new(n), Sequencer::new(n));
            let mut kept = Vec::new();
            for (i, &seq) in order.iter().enumerate() {
                for _ in 0..1 + usize::from(i % 3 == 2) {
                    if skips >> (seq % 32) & 1 == 1 {
                        prop_assert_eq!(a.skip(seq), b.skip(seq));
                        continue;
                    }
                    let before = kept.len();
                    let got = b.accept_into(seq, seq, &mut kept);
                    let appended = kept.get(before..).unwrap_or_default().to_vec();
                    prop_assert!(got.is_ok() || appended.is_empty(), "an error appended");
                    prop_assert_eq!(got.map(|()| appended), accept_through_the_map(&mut a, seq, seq));
                }
                prop_assert_eq!((a.expected(), a.held()), (b.expected(), b.held()));
            }
            prop_assert_eq!(b.held(), 0);
        }

        /// Any permutation within the window releases 0..n in order.
        #[test]
        fn any_window_permutation_releases_in_order(
            n in 1usize..32,
            seed in any::<u64>(),
        ) {
            let mut order: Vec<u64> = (0..n as u64).collect();
            for i in 0..n {
                let j = (seed as usize).wrapping_mul(i * 13 + 7) % n;
                order.swap(i, j);
            }
            let mut s = Sequencer::new(n);
            let mut released = Vec::new();
            for &seq in &order {
                released.extend(s.accept(seq, seq).unwrap());
            }
            prop_assert_eq!(released, (0..n as u64).collect::<Vec<_>>());
            prop_assert_eq!(s.held(), 0);
        }
    }
}
