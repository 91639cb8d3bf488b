//! # nm-replog — flat-combining operation log with per-worker replicas
//!
//! The engine's shared decision-path state (rail health, plan-cache epochs,
//! feedback corrections, counters) used to sit behind `nm-sync` locks, so
//! every worker added past the first contended on the same cache lines — the
//! "scaling wall" of ROADMAP item 3. This crate restructures that state in
//! the node-replication style: a single **master** copy plus a bounded
//! **operation log**, with each worker holding its own **replica** that it
//! catches up lock-free on read.
//!
//! * Writers call [`OpLog::append`]/[`OpLog::append_batch`]. The master
//!   mutex is the *flat-combining point*: whoever holds it encodes the ops
//!   into ring slots, applies them to the master state, and publishes the
//!   new tail — one lock acquisition amortizes a whole batch.
//! * Readers own a [`ReplicaHandle`]. [`ReplicaHandle::read`] replays any
//!   ops between the replica's applied cursor and the published tail by
//!   loading ring slots with seqlock validation — **no lock, no
//!   allocation** — then returns the replica state. A replica that lags by
//!   more than the ring capacity detects the lap and falls back to a
//!   (cold, locked) resync from the master.
//!
//! State types implement [`Replicated`]; their ops implement [`WireOp`] so
//! they flatten to a fixed [`OP_WORDS`]`× u64` wire form that fits the
//! atomic ring slots. Fixed-width ops are what make the read path provably
//! allocation-free (`nm-analyzer`'s transitive no-alloc gate covers it).
//!
//! ## Consistency contract
//!
//! The log is **linearizable at the master** (every op is applied to the
//! master state under the mutex, in append order) and **eventually
//! consistent at replicas**: a replica read observes a prefix of the op
//! sequence — never a torn op, never a reordered op, never a skipped op —
//! and observes every op appended before the `tail` load that started the
//! read. Staleness is bounded by one in-flight `append_batch`.
//!
//! Ring-slot protocol (the publish points, with their ordering contracts,
//! are documented inline):
//!
//! ```text
//! writer (combiner, under master lock)      reader (lock-free)
//!   marker.store(0)          Release          m1 = marker.load()   Acquire
//!   words[i].store(..)       Release          w  = words[i].load() Acquire
//!   marker.store(seq+1)      Release          fence(Acquire)
//!   ... batch ...                             m2 = marker.load()   Acquire
//!   tail.store(appended)     Release          valid ⇔ m1 == m2 == seq+1
//! ```

#![forbid(unsafe_code)]
// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use nm_sync::atomic::{fence, AtomicU64, Ordering};
use nm_sync::{Arc, Mutex};

/// Fixed wire width of one operation, in `u64` words.
pub const OP_WORDS: usize = 2;

/// An operation that flattens to a fixed-width wire form so it can travel
/// through the atomic ring slots.
pub trait WireOp: Copy {
    /// Encodes the op into its wire words.
    fn encode_op(self) -> [u64; OP_WORDS];
    /// Decodes wire words back into an op. Must be total: any bit pattern
    /// decodes to *some* op (unknown encodings to a no-op), never panics —
    /// the decode runs on the hot replica-read path.
    fn decode_op(words: [u64; OP_WORDS]) -> Self;
}

/// Replicated state: a value that advances deterministically by applying
/// ops, so master and replicas converge by replaying the same sequence.
pub trait Replicated: Clone {
    /// The operation type that mutates this state.
    type Op: WireOp;
    /// Applies one op. Must be deterministic and must not panic — it runs
    /// on the hot replica-read path.
    fn apply_op(&mut self, op: Self::Op);
}

/// One ring slot: a seqlock-validated cell holding one encoded op.
///
/// `marker` is `0` while the slot is empty or mid-write, and `seq + 1` once
/// the op with sequence number `seq` is fully published. Successive laps of
/// the ring write distinct markers (`seq + 1` vs `seq + capacity + 1`), so
/// a reader can always tell "the op I want" from "a later op that lapped
/// me" or "a write in progress".
#[derive(Debug)]
struct Slot {
    marker: AtomicU64,
    words: [AtomicU64; OP_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot { marker: AtomicU64::new(0), words: core::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// Master-side state guarded by the combining mutex.
#[derive(Debug)]
struct Master<S> {
    /// The authoritative state: every appended op has been applied to it.
    state: S,
    /// Total ops ever appended (== the sequence number of the next op).
    appended: u64,
}

#[derive(Debug)]
struct Shared<S> {
    slots: Box<[Slot]>,
    /// `capacity - 1`; capacity is a power of two so `seq & mask` indexes.
    mask: u64,
    /// Published op count: replicas may replay sequence numbers `< tail`
    /// without taking a lock.
    tail: AtomicU64,
    master: Mutex<Master<S>>,
}

/// The shared operation log. Cloning is cheap (an [`Arc`] bump); writers
/// and readers all hold clones of the same log.
#[derive(Debug)]
pub struct OpLog<S: Replicated> {
    shared: Arc<Shared<S>>,
}

impl<S: Replicated> Clone for OpLog<S> {
    fn clone(&self) -> Self {
        OpLog { shared: Arc::clone(&self.shared) }
    }
}

impl<S: Replicated> OpLog<S> {
    /// A log seeded with `initial` state and a ring of at least `capacity`
    /// slots (rounded up to a power of two, minimum 2).
    pub fn new(initial: S, capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot]> = (0..cap).map(|_| Slot::new()).collect();
        OpLog {
            shared: Arc::new(Shared {
                slots,
                mask: (cap as u64) - 1,
                tail: AtomicU64::new(0),
                master: Mutex::new(Master { state: initial, appended: 0 }),
            }),
        }
    }

    /// Appends one op. Equivalent to `append_batch(&[op])`.
    pub fn append(&self, op: S::Op) {
        self.append_batch(core::slice::from_ref(&op));
    }

    /// Appends a batch of ops under one master-lock acquisition (the flat-
    /// combining point): each op is encoded into its ring slot, applied to
    /// the master state, and the tail is published once at the end.
    pub fn append_batch(&self, ops: &[S::Op]) {
        if ops.is_empty() {
            return;
        }
        let mut m = self.shared.master.lock();
        for &op in ops {
            let seq = m.appended;
            let idx = (seq & self.shared.mask) as usize;
            if let Some(slot) = self.shared.slots.get(idx) {
                // Publish protocol, step 1 — invalidate. `Release` orders
                // this store before the word stores below in the eyes of
                // any reader that observes those words: a reader seeing a
                // fresh word and then re-reading the marker can only see 0
                // or a *later* publish, never the stale `seq' + 1` of the
                // op this slot held last lap (that would validate a torn
                // read).
                slot.marker.store(0, Ordering::Release);
                let wire = op.encode_op();
                for (cell, word) in slot.words.iter().zip(wire) {
                    // Step 2 — the payload. `Release` so the Acquire
                    // re-read of the marker on the reader side (after its
                    // Acquire fence) synchronizes with the invalidation
                    // above when a torn value was observed.
                    cell.store(word, Ordering::Release);
                }
                // Step 3 — publish. `Release` makes the word stores above
                // visible to any reader whose `Acquire` marker load sees
                // `seq + 1`.
                slot.marker.store(seq.wrapping_add(1), Ordering::Release);
            }
            m.state.apply_op(op);
            m.appended = seq.wrapping_add(1);
        }
        // Step 4 — publish the tail once for the whole batch. `Release`
        // pairs with the replica's `Acquire` tail load: a reader that
        // observes the new tail also observes every marker/word store of
        // the batch.
        self.shared.tail.store(m.appended, Ordering::Release);
    }

    /// Published op count. Replicas whose cursor equals this are current.
    #[must_use]
    pub fn tail(&self) -> u64 {
        self.shared.tail.load(Ordering::Acquire)
    }

    /// Total ops appended so far (reads the master under its lock).
    #[must_use]
    pub fn ops_appended(&self) -> u64 {
        self.shared.master.lock().appended
    }

    /// A clone of the authoritative master state (locked; not a hot-path
    /// call — replicas exist so readers never need this).
    #[must_use]
    pub fn master_snapshot(&self) -> S {
        self.shared.master.lock().state.clone()
    }

    /// A new replica, initialized current with the master.
    #[must_use]
    pub fn replica(&self) -> ReplicaHandle<S> {
        let (state, applied) = {
            let m = self.shared.master.lock();
            (m.state.clone(), m.appended)
        };
        ReplicaHandle {
            shared: Arc::clone(&self.shared),
            state,
            applied,
            ops_applied: 0,
            resyncs: 0,
        }
    }
}

/// Outcome of replaying a single ring slot.
enum ApplyOne {
    /// The op was read intact and applied.
    Applied,
    /// The slot no longer holds (or does not yet visibly hold) the wanted
    /// sequence number — the replica fell a full ring behind, or raced a
    /// write in progress. Recover via master resync.
    Lapped,
}

/// A single reader's private copy of the replicated state.
///
/// Not `Sync`/shared — each worker owns one. [`ReplicaHandle::read`] is the
/// hot-path entry: lock-free, allocation-free replay of pending ops, then a
/// borrow of the (now current) state.
#[derive(Debug)]
pub struct ReplicaHandle<S: Replicated> {
    shared: Arc<Shared<S>>,
    state: S,
    /// Sequence number of the next op to replay.
    applied: u64,
    ops_applied: u64,
    resyncs: u64,
}

impl<S: Replicated> ReplicaHandle<S> {
    /// Catches the replica up to the published tail and returns the state.
    /// Lock-free and allocation-free except when lapped (see
    /// [`Self::resync_from_master`]).
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn read(&mut self) -> &S {
        self.refresh();
        &self.state
    }

    /// The state as of the last catch-up, without replaying new ops.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn peek(&self) -> &S {
        &self.state
    }

    /// Replays every op published since the last catch-up.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    pub fn refresh(&mut self) {
        // `Acquire` pairs with the combiner's `Release` tail store: seeing
        // tail = t makes every marker/word store for sequences < t visible.
        let tail = self.shared.tail.load(Ordering::Acquire);
        while self.applied != tail {
            match self.apply_one(self.applied) {
                ApplyOne::Applied => {
                    self.applied = self.applied.wrapping_add(1);
                    self.ops_applied = self.ops_applied.wrapping_add(1);
                }
                ApplyOne::Lapped => {
                    self.resync_from_master();
                    return;
                }
            }
        }
    }

    /// Seqlock-validated read of the slot holding sequence `seq`.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    fn apply_one(&mut self, seq: u64) -> ApplyOne {
        let idx = (seq & self.shared.mask) as usize;
        let Some(slot) = self.shared.slots.get(idx) else {
            return ApplyOne::Lapped; // unreachable: mask < slots.len()
        };
        // `Acquire` pairs with the combiner's publishing `Release` store;
        // seeing `seq + 1` makes the word stores of *this* op visible.
        let m1 = slot.marker.load(Ordering::Acquire);
        if m1 != seq.wrapping_add(1) {
            return ApplyOne::Lapped;
        }
        let mut wire = [0u64; OP_WORDS];
        for (word, cell) in wire.iter_mut().zip(slot.words.iter()) {
            *word = cell.load(Ordering::Acquire);
        }
        // Seqlock validation: the `Acquire` fence orders the word loads
        // above before the marker re-read below, so if a combiner overwrote
        // any word we read, the re-read cannot still see `seq + 1` — it
        // sees the invalidation 0 or a later publish, and we reject.
        fence(Ordering::Acquire);
        let m2 = slot.marker.load(Ordering::Acquire);
        if m2 != seq.wrapping_add(1) {
            return ApplyOne::Lapped;
        }
        self.state.apply_op(S::Op::decode_op(wire));
        ApplyOne::Applied
    }

    /// Cold lap-recovery: clone the master state under its lock. Counted in
    /// [`Self::resyncs`]; with a sanely sized ring this never happens in
    /// steady state.
    fn resync_from_master(&mut self) {
        // nm-analyzer: allow(hot-path-blocking) -- lap-recovery fallback: taken only when the replica fell a whole ring behind, never in steady-state reads
        let m = self.shared.master.lock();
        // `clone_from` (not `= clone()`) so the replica's existing buffers
        // are reused where the state type supports it; this is the one
        // allocating call reachable from the read path, taken only when the
        // replica fell a whole ring-capacity behind — never in steady state.
        self.state.clone_from(&m.state);
        self.applied = m.appended;
        self.resyncs = self.resyncs.wrapping_add(1);
    }

    /// Ops published but not yet replayed by this replica.
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.shared.tail.load(Ordering::Acquire).wrapping_sub(self.applied)
    }

    /// Ops replayed from the ring over this replica's lifetime.
    #[must_use]
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Lap-recovery resyncs over this replica's lifetime.
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }
}

/// Pads and aligns `T` to 128 bytes so adjacent values never share a cache
/// line (covers the 128-byte prefetch pairs on modern x86 and Apple ARM).
/// Used for per-worker counter shards where false sharing would reintroduce
/// the very contention the replication design removes.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
    /// Consumes the padding, returning the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> core::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> core::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Toy replicated state: a pair of counters advanced by Add ops.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct Counters {
        a: u64,
        b: u64,
    }

    #[derive(Debug, Clone, Copy)]
    enum CounterOp {
        AddA(u64),
        AddB(u64),
        Nop,
    }

    impl WireOp for CounterOp {
        fn encode_op(self) -> [u64; OP_WORDS] {
            match self {
                CounterOp::AddA(v) => [1, v],
                CounterOp::AddB(v) => [2, v],
                CounterOp::Nop => [0, 0],
            }
        }
        fn decode_op(words: [u64; OP_WORDS]) -> Self {
            match words {
                [1, v] => CounterOp::AddA(v),
                [2, v] => CounterOp::AddB(v),
                _ => CounterOp::Nop,
            }
        }
    }

    impl Replicated for Counters {
        type Op = CounterOp;
        fn apply_op(&mut self, op: CounterOp) {
            match op {
                CounterOp::AddA(v) => self.a += v,
                CounterOp::AddB(v) => self.b += v,
                CounterOp::Nop => {}
            }
        }
    }

    #[test]
    fn replica_replays_appended_ops() {
        let log = OpLog::new(Counters::default(), 8);
        let mut rep = log.replica();
        assert_eq!(*rep.read(), Counters { a: 0, b: 0 });

        log.append(CounterOp::AddA(3));
        log.append_batch(&[CounterOp::AddB(5), CounterOp::AddA(4)]);
        assert_eq!(rep.lag(), 3);
        assert_eq!(*rep.read(), Counters { a: 7, b: 5 });
        assert_eq!(rep.lag(), 0);
        assert_eq!(rep.ops_applied(), 3);
        assert_eq!(rep.resyncs(), 0);
        assert_eq!(log.ops_appended(), 3);
        assert_eq!(log.tail(), 3);
    }

    #[test]
    fn replica_matches_master_snapshot() {
        let log = OpLog::new(Counters::default(), 4);
        let mut rep = log.replica();
        for i in 0..100 {
            log.append(if i % 2 == 0 { CounterOp::AddA(i) } else { CounterOp::AddB(i) });
        }
        assert_eq!(*rep.read(), log.master_snapshot());
    }

    #[test]
    fn lapped_replica_resyncs_from_master() {
        // Ring of 2: appending 10 ops laps a stale replica several times.
        let log = OpLog::new(Counters::default(), 2);
        let mut rep = log.replica();
        for _ in 0..10 {
            log.append(CounterOp::AddA(1));
        }
        assert_eq!(rep.read().a, 10);
        assert!(rep.resyncs() >= 1, "a 2-slot ring must have forced a resync");
    }

    #[test]
    fn late_replica_starts_current() {
        let log = OpLog::new(Counters::default(), 8);
        log.append_batch(&[CounterOp::AddA(1), CounterOp::AddB(2)]);
        let mut rep = log.replica();
        assert_eq!(rep.lag(), 0);
        assert_eq!(*rep.read(), Counters { a: 1, b: 2 });
        assert_eq!(rep.ops_applied(), 0, "seeded from master, nothing replayed");
    }

    #[test]
    fn unknown_encodings_decode_to_nop() {
        let log = OpLog::new(Counters::default(), 8);
        log.append(CounterOp::Nop);
        let mut rep = log.replica();
        assert_eq!(*rep.read(), Counters::default());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let log = OpLog::new(Counters::default(), 8);
        log.append_batch(&[]);
        assert_eq!(log.tail(), 0);
        assert_eq!(log.ops_appended(), 0);
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(core::mem::align_of::<CachePadded<u64>>(), 128);
        assert!(core::mem::size_of::<CachePadded<u64>>() >= 128);
        let mut p = CachePadded::new(7u64);
        *p += 1;
        assert_eq!(*p, 8);
        assert_eq!(p.into_inner(), 8);
    }

    #[test]
    fn concurrent_writers_and_readers_converge() {
        use nm_sync::thread;
        let log = OpLog::new(Counters::default(), 64);
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let log = log.clone();
                thread::spawn(move || {
                    for _ in 0..250 {
                        log.append_batch(&[CounterOp::AddA(1), CounterOp::AddB(2)]);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let log = log.clone();
                thread::spawn(move || {
                    let mut rep = log.replica();
                    let mut last_a = 0;
                    for _ in 0..500 {
                        let s = rep.read();
                        // Monotonic prefix view: totals never go backwards
                        // and B stays exactly 2×A under this op mix.
                        assert!(s.a >= last_a);
                        assert_eq!(s.b, s.a * 2);
                        last_a = s.a;
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        for h in readers {
            h.join().unwrap();
        }
        let mut rep = log.replica();
        assert_eq!(*rep.read(), Counters { a: 1000, b: 2000 });
        assert_eq!(log.ops_appended(), 2000);
    }
}
