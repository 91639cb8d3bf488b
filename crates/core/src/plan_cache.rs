//! Memoization of split plans — the decision fast path.
//!
//! The paper puts the optimizer on the per-message critical path: every
//! send re-runs NIC selection and the equal-completion water-fill
//! (§II-B). Steady-state traffic, however, asks the same question over and
//! over — same message size, same (usually all-idle) rail waits, same
//! sampled profiles. A [`PlanCache`] memoizes the answers.
//!
//! ## What a miss costs
//!
//! When this cache was written a miss bisected the completion time for 64
//! iterations, each inverting every rail's profile by a ≈ 23-step search:
//! ≈ 6 000 interpolations and ≈ 15 µs per two-rail decision (this doc
//! used to say "40–64", two orders of magnitude low), against ≈ 0.12 µs
//! for a hit. The profile now inverts in closed form and the water level
//! is computed directly ([`crate::split`]): a miss makes 17–30 cost-model
//! calls, ≈ 40 interpolations, ≈ 0.8 µs on the same host — about 6–8 hits.
//! A hit is still cheaper, but only when `(size, waits)` repeat exactly;
//! pipelined or many-flow traffic presents fresh waits on every message and
//! pays the miss regardless.
//!
//! ## Exactness
//!
//! A hit must be **byte-identical** to what a fresh computation would
//! return — figure harnesses are required to be bit-reproducible, and the
//! engine validates that chunk plans cover the message exactly. The cache
//! therefore only hits on an *exact* match of (salt, size, waits): the
//! log₂-bucketed size and quantized waits are used to build the *index*
//! (so near-identical decisions share a slot and stale neighbours get
//! evicted), never to substitute a plan computed for different inputs.
//!
//! ## Invalidation
//!
//! Cached plans embed predictions, so they die with the predictor: every
//! lookup/insert carries the engine's `predictor_epoch`, bumped by
//! [`crate::Engine::adopt_feedback_correction`] (and any re-sampling path
//! that replaces the predictor). An epoch change clears the cache.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::split::Split;
use nm_model::{InlineVec, MAX_RAILS};
use std::collections::HashMap;

/// Entries the cache holds before it wipes itself (direct-mapped slots
/// keyed by the quantized index keep the working set tiny; the wipe is a
/// backstop against pathological wait churn).
const MAX_ENTRIES: usize = 1024;

/// Wait quantization step (µs) used for the index key only.
const WAIT_BUCKET_US: f64 = 8.0;

#[derive(Debug, Clone)]
struct CachedPlan {
    salt: u64,
    size: u64,
    waits: InlineVec<f64, MAX_RAILS>,
    plan: Split,
}

/// Hit/miss counters, for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Exact-match hits served.
    pub hits: u64,
    /// Lookups that had to fall through to a fresh computation.
    pub misses: u64,
    /// Whole-cache invalidations (predictor epoch changes).
    pub invalidations: u64,
}

/// A memo table from (strategy, salt, size, waits, epoch) to [`Split`].
///
/// Each strategy instance owns one; `strategy_id` namespaces the hash so
/// two caches never alias even if their inputs coincide. `salt` carries
/// whatever else the owning strategy's computation depends on (e.g. the
/// chunk cap for a capped selection).
#[derive(Debug, Clone)]
pub struct PlanCache {
    strategy_id: u64,
    epoch: u64,
    slots: HashMap<u64, CachedPlan>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache for the given strategy id.
    pub fn new(strategy_id: u64) -> Self {
        PlanCache { strategy_id, epoch: 0, slots: HashMap::new(), stats: PlanCacheStats::default() }
    }

    /// FNV-1a over the quantized key: strategy id, salt, log₂ size bucket,
    /// per-rail wait buckets.
    fn index_key(&self, salt: u64, size: u64, waits: &[f64]) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.strategy_id);
        mix(salt);
        mix(64 - size.leading_zeros() as u64); // log₂ bucket
        for &w in waits {
            mix((w.max(0.0) / WAIT_BUCKET_US) as u64);
        }
        h
    }

    fn note_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            if !self.slots.is_empty() {
                self.slots.clear();
            }
            self.stats.invalidations += 1;
            self.epoch = epoch;
        }
    }

    /// Returns the memoized plan for *exactly* these inputs, or `None`.
    pub fn lookup(&mut self, epoch: u64, salt: u64, size: u64, waits: &[f64]) -> Option<Split> {
        self.note_epoch(epoch);
        let key = self.index_key(salt, size, waits);
        match self.slots.get(&key) {
            Some(c) if c.salt == salt && c.size == size && c.waits.as_slice() == waits => {
                self.stats.hits += 1;
                // nm-analyzer: allow(clone) -- Split holds an InlineVec; the
                // clone is a stack copy, no heap traffic
                Some(c.plan.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoizes a freshly computed plan.
    pub fn insert(&mut self, epoch: u64, salt: u64, size: u64, waits: &[f64], plan: Split) {
        self.note_epoch(epoch);
        if self.slots.len() >= MAX_ENTRIES {
            self.slots.clear();
        }
        let key = self.index_key(salt, size, waits);
        self.slots
            .insert(key, CachedPlan { salt, size, waits: waits.iter().copied().collect(), plan });
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::two_rail_predictor;
    use crate::selection::select_rails;
    use nm_sim::RailId;
    use proptest::prelude::*;

    fn fresh(size: u64, waits: &[f64]) -> Split {
        let p = two_rail_predictor();
        let candidates: Vec<(RailId, f64)> =
            waits.iter().enumerate().map(|(i, &w)| (RailId(i), w)).collect();
        select_rails(&p.natural_cost(), &candidates, size, 2)
    }

    #[test]
    fn hit_requires_exact_inputs() {
        let mut cache = PlanCache::new(1);
        let waits = [0.0, 120.0];
        let plan = fresh(1 << 20, &waits);
        cache.insert(0, 2, 1 << 20, &waits, plan.clone());
        assert_eq!(cache.lookup(0, 2, 1 << 20, &waits), Some(plan));
        // Same size bucket, different exact size: miss.
        assert_eq!(cache.lookup(0, 2, (1 << 20) + 1, &waits), None);
        // Same wait bucket, different exact wait: miss.
        assert_eq!(cache.lookup(0, 2, 1 << 20, &[0.0, 121.0]), None);
        // Different salt: miss.
        assert_eq!(cache.lookup(0, 3, 1 << 20, &waits), None);
    }

    #[test]
    fn epoch_change_clears_everything() {
        let mut cache = PlanCache::new(1);
        let waits = [0.0, 0.0];
        cache.insert(0, 2, 4096, &waits, fresh(4096, &waits));
        assert!(cache.lookup(0, 2, 4096, &waits).is_some());
        assert!(cache.lookup(1, 2, 4096, &waits).is_none(), "new epoch: stale plan dropped");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_backstop_wipes_rather_than_grows() {
        let mut cache = PlanCache::new(1);
        for i in 0..(MAX_ENTRIES as u64 + 10) {
            let waits = [i as f64 * 1000.0, 0.0];
            cache.insert(0, 2, 4096, &waits, fresh(4096, &waits));
        }
        assert!(cache.len() <= MAX_ENTRIES);
    }

    proptest! {
        /// A cache hit is byte-identical to a fresh dichotomy/water-filling
        /// computation for arbitrary sizes and busy vectors.
        #[test]
        fn cached_plan_equals_fresh_computation(
            size in 1u64..(16 << 20),
            w0 in 0.0f64..5000.0,
            w1 in 0.0f64..5000.0,
        ) {
            let mut cache = PlanCache::new(7);
            let waits = [w0, w1];
            let computed = fresh(size, &waits);
            cache.insert(0, 2, size, &waits, computed.clone());
            let hit = cache.lookup(0, 2, size, &waits).expect("just inserted");
            prop_assert_eq!(&hit, &computed);
            // And the memo really matches a recomputation from scratch.
            prop_assert_eq!(&hit, &fresh(size, &waits));
        }
    }
}
