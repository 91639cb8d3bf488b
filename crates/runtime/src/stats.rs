//! Offload-cost accounting.
//!
//! The paper measures the cost of handing a send to another core at 3 µs —
//! 6 µs when the target thread must be preempted by a signal (§III-D) — and
//! shows this cost is what makes parallel submission of *tiny* packets
//! counterproductive (Fig 9, below 4 KB). [`OffloadStats`] measures the same
//! quantity in the real-thread runtime: the delay between registering a
//! request and the moment a worker starts executing it.
//!
//! Recording is the workers' per-offload hot path, so the counters are
//! **sharded per worker** on cache-line-padded atomics: a worker records
//! into its own shard with plain atomic adds — no lock, no shared cache
//! line — and [`OffloadStats::snapshot`] merges the shards. (The previous
//! design took a `Mutex` on every record, putting every worker's offload
//! accounting on the same contended word — exactly the scaling wall the
//! replicated decision path removes elsewhere.)

use nm_replog::CachePadded;
use nm_sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One worker's private counters. Padded so adjacent shards never share a
/// cache line; `min_ns` starts at `u64::MAX` (no observation yet).
#[derive(Debug)]
struct Shard {
    count: AtomicU64,
    signaled: AtomicU64,
    total_ns: AtomicU64,
    signaled_ns: AtomicU64,
    max_ns: AtomicU64,
    min_ns: AtomicU64,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            count: AtomicU64::new(0),
            signaled: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            signaled_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
        }
    }
}

/// Running statistics of offload (submit → execution-start) latencies,
/// sharded per worker.
#[derive(Debug)]
pub struct OffloadStats {
    shards: Box<[CachePadded<Shard>]>,
}

impl Default for OffloadStats {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

/// A point-in-time copy of the statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadSnapshot {
    /// Number of offloads recorded.
    pub count: u64,
    /// How many needed a wakeup signal (the paper's 6 µs path).
    pub signaled: u64,
    /// Mean offload latency.
    pub mean: Duration,
    /// Mean over the signaled offloads alone — the paper's "6 µs with
    /// preemption", undiluted by the idle path; `None` when none was signaled.
    pub signaled_mean: Option<Duration>,
    /// Maximum offload latency.
    pub max: Duration,
    /// Minimum offload latency.
    pub min: Duration,
}

impl OffloadStats {
    /// Single-shard statistics (callers outside a worker pool).
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics with one shard per worker (at least one).
    pub fn with_shards(n: usize) -> Self {
        Self { shards: (0..n.max(1)).map(|_| CachePadded::default()).collect() }
    }

    /// Records one offload into `worker`'s shard (indices beyond the shard
    /// count fold onto the last shard rather than being dropped). `signaled`
    /// marks submissions that had to wake a parked/busy worker.
    ///
    /// Each counter is an independent atomic: a concurrent [`Self::snapshot`]
    /// may see a record partially applied (e.g. the count but not yet the
    /// total), which under-reports the in-flight record by design — the
    /// aggregates are monotonic and exact once the workers quiesce.
    pub fn record(&self, worker: usize, latency: Duration, signaled: bool) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let Some(shard) = self.shards.get(worker.min(self.shards.len() - 1)) else { return };
        // No other memory is published through these counters; they are
        // single-writer and merged after quiescence (see this fn's docs).
        // RELAXED-OK: self-contained single-writer counter.
        shard.count.fetch_add(1, Ordering::Relaxed);
        if signaled {
            // RELAXED-OK: same single-writer counter contract as above.
            shard.signaled.fetch_add(1, Ordering::Relaxed);
            // RELAXED-OK: same single-writer counter contract as above.
            shard.signaled_ns.fetch_add(ns, Ordering::Relaxed);
        }
        // RELAXED-OK: same single-writer counter contract as above.
        shard.total_ns.fetch_add(ns, Ordering::Relaxed);
        // RELAXED-OK: same single-writer counter contract as above.
        shard.max_ns.fetch_max(ns, Ordering::Relaxed);
        // RELAXED-OK: same single-writer counter contract as above.
        shard.min_ns.fetch_min(ns, Ordering::Relaxed);
    }

    /// Merged snapshot of all shards; `None` before the first record.
    pub fn snapshot(&self) -> Option<OffloadSnapshot> {
        let (mut count, mut signaled, mut total_ns, mut signaled_ns) = (0u64, 0u64, 0u128, 0u128);
        let (mut max_ns, mut min_ns) = (0u64, u64::MAX);
        for shard in &self.shards {
            // The writer side is all-Relaxed (see `record`), so an Acquire
            // here would pair with nothing — the analyzer's protocol table
            // flagged the old Acquire loads as acquire-only. Relaxed is the
            // honest ordering: the counters are self-contained values, and
            // exactness is only promised after quiescence.
            // RELAXED-OK: merge of self-contained single-writer counters.
            count += shard.count.load(Ordering::Relaxed);
            // RELAXED-OK: same merge contract as above.
            signaled += shard.signaled.load(Ordering::Relaxed);
            // RELAXED-OK: same merge contract as above.
            total_ns += u128::from(shard.total_ns.load(Ordering::Relaxed));
            // RELAXED-OK: same merge contract as above.
            signaled_ns += u128::from(shard.signaled_ns.load(Ordering::Relaxed));
            // RELAXED-OK: same merge contract as above.
            max_ns = max_ns.max(shard.max_ns.load(Ordering::Relaxed));
            // RELAXED-OK: same merge contract as above.
            min_ns = min_ns.min(shard.min_ns.load(Ordering::Relaxed));
        }
        if count == 0 {
            return None;
        }
        Some(OffloadSnapshot {
            count,
            signaled,
            mean: Duration::from_nanos((total_ns / u128::from(count)) as u64),
            signaled_mean: (signaled > 0)
                .then(|| Duration::from_nanos((signaled_ns / u128::from(signaled)) as u64)),
            max: Duration::from_nanos(max_ns),
            min: Duration::from_nanos(if min_ns == u64::MAX { 0 } else { min_ns }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_no_snapshot() {
        assert_eq!(OffloadStats::new().snapshot(), None);
        assert_eq!(OffloadStats::with_shards(4).snapshot(), None);
    }

    #[test]
    fn aggregates_are_correct() {
        let s = OffloadStats::new();
        s.record(0, Duration::from_micros(2), false);
        assert_eq!(s.snapshot().unwrap().signaled_mean, None, "nothing signaled yet");
        s.record(0, Duration::from_micros(4), true);
        s.record(0, Duration::from_micros(6), true);
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.signaled, 2);
        assert_eq!(snap.mean, Duration::from_micros(4));
        assert_eq!(snap.signaled_mean, Some(Duration::from_micros(5)));
        assert_eq!(snap.min, Duration::from_micros(2));
        assert_eq!(snap.max, Duration::from_micros(6));
    }

    #[test]
    fn shards_merge_on_snapshot() {
        let s = OffloadStats::with_shards(4);
        s.record(0, Duration::from_micros(2), false);
        s.record(1, Duration::from_micros(4), true);
        s.record(2, Duration::from_micros(6), false);
        s.record(3, Duration::from_micros(8), true);
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.signaled, 2);
        assert_eq!(snap.mean, Duration::from_micros(5));
        assert_eq!(snap.signaled_mean, Some(Duration::from_micros(6)));
        assert_eq!(snap.min, Duration::from_micros(2));
        assert_eq!(snap.max, Duration::from_micros(8));
    }

    #[test]
    fn out_of_range_worker_folds_onto_last_shard() {
        let s = OffloadStats::with_shards(2);
        s.record(17, Duration::from_micros(3), false);
        assert_eq!(s.snapshot().unwrap().count, 1);
    }

    #[test]
    fn concurrent_recording_conserves_counts() {
        use nm_sync::{thread, Arc};
        let s = Arc::new(OffloadStats::with_shards(4));
        let hs: Vec<_> = (0..4)
            .map(|w| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        s.record(w, Duration::from_nanos(i + 1), i % 2 == 0);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.signaled, 2000);
        assert_eq!(snap.min, Duration::from_nanos(1));
        assert_eq!(snap.max, Duration::from_nanos(1000));
    }
}
