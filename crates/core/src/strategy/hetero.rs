//! The paper's strategy: sampling-based equal-completion split with
//! busy-until-aware NIC selection (§II-B, Fig 1c, Fig 2, Fig 8's
//! "Hetero-split").
//!
//! On each interrogation it reads every rail's predicted wait, runs the
//! selection + equal-completion split over the sampled profiles, and emits
//! one chunk per surviving rail. Because predictions include the time until
//! each NIC goes idle, a busy-but-fast NIC can still be chosen ("the
//! computation of the split ratio can thus take into account NICs that are
//! currently busy but that will be idle soon").

use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::selection::select_rails;
use crate::strategy::{Action, ChunkList, ChunkPlan, Ctx, Strategy};

/// Sampling-driven hetero split.
#[derive(Debug, Clone)]
pub struct HeteroSplit {
    /// Memoized selection+split results (exact-match, epoch-invalidated).
    cache: PlanCache,
}

impl HeteroSplit {
    /// Default hetero split: as many rails as are useful.
    pub fn new() -> Self {
        HeteroSplit { cache: PlanCache::new(Self::CACHE_ID) }
    }

    /// Strategy id namespacing this plug-in's plan cache.
    const CACHE_ID: u64 = 1;

    /// Plan-cache counters (for benches/tests).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }
}

impl Default for HeteroSplit {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for HeteroSplit {
    fn name(&self) -> &'static str {
        "hetero-split"
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        let size = ctx.head_size();
        let cap = ctx.predictor.rail_count().max(1);
        let split =
            match self.cache.lookup(ctx.predictor_epoch, cap as u64, size, ctx.rail_waits_us) {
                Some(cached) => cached,
                None => {
                    let cost = ctx.predictor.natural_cost();
                    let fresh = select_rails(&cost, &ctx.rail_candidates(), size, cap);
                    self.cache.insert(
                        ctx.predictor_epoch,
                        cap as u64,
                        size,
                        ctx.rail_waits_us,
                        fresh.clone(),
                    );
                    fresh
                }
            };
        let chunks: ChunkList =
            split.assignments.iter().map(|&(rail, bytes)| ChunkPlan::new(rail, bytes)).collect();
        Action::Split(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::{decide_with, split_total};
    use nm_sim::RailId;

    #[test]
    fn large_message_uses_both_rails_weighted_by_speed() {
        let mut s = HeteroSplit::new();
        let size = 4u64 << 20;
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![0], &[size]);
        assert_eq!(split_total(&action), size);
        match action {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 2);
                let fast = chunks.iter().find(|c| c.rail == RailId(0)).unwrap().bytes;
                let slow = chunks.iter().find(|c| c.rail == RailId(1)).unwrap().bytes;
                // 1000 vs 500 B/us: the fast rail carries about 2x.
                let ratio = fast as f64 / slow as f64;
                assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tiny_message_collapses_to_the_low_latency_rail() {
        let mut s = HeteroSplit::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![0], &[4]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 1, "{chunks:?}");
                assert_eq!(chunks[0].rail, RailId(1), "1us-latency rail wins");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hopelessly_busy_rail_is_discarded() {
        let mut s = HeteroSplit::new();
        match decide_with(&mut s, vec![0.0, 1e7], vec![0], &[4 << 20]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 1);
                assert_eq!(chunks[0].rail, RailId(0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn briefly_busy_fast_rail_still_participates() {
        let mut s = HeteroSplit::new();
        match decide_with(&mut s, vec![200.0, 0.0], vec![0], &[4 << 20]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 2, "fast rail busy for 200us still helps");
            }
            other => panic!("{other:?}"),
        }
    }
}
