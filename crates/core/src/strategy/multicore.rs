//! Multicore eager sending (paper §II-C, §III-D, Fig 4c, Fig 7, eq. 1).
//!
//! Eager chunks burn a core in PIO copies, so splitting an eager message
//! only pays off when the chunk copies run on *different cores*. This
//! strategy:
//!
//! 1. caps the chunk count at "min{number of idle NICs, number of idle
//!    cores}" (paper §III-B);
//! 2. computes the equal-completion split over the **forced-eager**
//!    profiles;
//! 3. assigns each chunk to a distinct *idle* core, charging the offload
//!    cost T_O = 3 µs (a busy core is never signaled, so the paper's 6 µs
//!    preemption cost is never charged here);
//! 4. refuses to split when the predicted gain does not cover T_O (the
//!    "tiny messages" regime of Fig 9) and sends single-rail instead.
//!
//! Rendezvous-sized messages take the plain hetero split — their DMA phase
//! needs no core.

use crate::plan_cache::PlanCache;
use crate::predictor::CostModel;
use crate::selection::select_rails;
use crate::split::Split;
use crate::strategy::hetero::HeteroSplit;
use crate::strategy::{Action, ChunkList, ChunkPlan, Ctx, Strategy, QUIET_WAITS_US};
use nm_model::{InlineVec, SimDuration, TransferMode, MAX_RAILS};
use nm_sim::RailId;

/// Offload-aware eager splitting.
#[derive(Debug, Clone)]
pub struct MulticoreEager {
    /// Offload cost to an idle core (paper: 3 µs).
    pub offload_us: f64,
    rdv_fallback: HeteroSplit,
    /// Memoized eager-profile splits (salted with the idle-core chunk cap).
    cache: PlanCache,
}

impl MulticoreEager {
    /// The paper-calibrated offload cost.
    pub fn new() -> Self {
        MulticoreEager {
            offload_us: 3.0,
            rdv_fallback: HeteroSplit::new(),
            cache: PlanCache::new(2),
        }
    }

    /// The eager split of `size` over at most `cap` rails with these waits,
    /// memoized per predictor epoch.
    fn capped_split(&mut self, ctx: &Ctx<'_>, cap: usize, size: u64, waits: &[f64]) -> Split {
        let epoch = ctx.predictor_epoch;
        if let Some(cached) = self.cache.lookup(epoch, cap as u64, size, waits) {
            return cached;
        }
        let candidates: InlineVec<(RailId, f64), MAX_RAILS> =
            waits.iter().enumerate().map(|(i, &w)| (RailId(i), w)).collect();
        let fresh = select_rails(&ctx.predictor.eager_cost(), &candidates, size, cap);
        self.cache.insert(epoch, cap as u64, size, waits, fresh.clone());
        fresh
    }

    /// True when waiting for the split's busiest NIC, then offloading the
    /// two-rail split on idle NICs, finishes before `single_us`. The split
    /// is the one an all-idle decision at cap 2 memoizes, so this is a
    /// cache lookup. A wait that is NaN or infinite (a quarantined rail)
    /// has no instant to wait for and never defers.
    fn split_after_wait_wins(&mut self, ctx: &Ctx<'_>, size: u64, single_us: f64) -> bool {
        let quiet_waits = QUIET_WAITS_US.get(..ctx.rail_waits_us.len()).unwrap_or_default();
        let split = self.capped_split(ctx, 2, size, quiet_waits);
        let mut wait_us = 0.0f64;
        for &(rail, _) in &split.assignments {
            match ctx.rail_waits_us.get(rail.index()) {
                Some(&w) if w.is_finite() => wait_us = wait_us.max(w),
                _ => return false,
            }
        }
        split.assignments.len() >= 2 && wait_us + self.offload_us + split.completion_us < single_us
    }
}

impl Default for MulticoreEager {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for MulticoreEager {
    fn name(&self) -> &'static str {
        "multicore-eager"
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        let size = ctx.head_size();
        let eager_everywhere = ctx.predictor.rails().iter().all(|rv| size < rv.rdv_threshold);
        if !eager_everywhere {
            return self.rdv_fallback.decide(ctx);
        }

        let cost = ctx.predictor.eager_cost();
        let candidates = ctx.rail_candidates();

        // Single-rail reference: fastest rail, no offload. A total scan, as
        // in `Predictor::fastest_rail`: a NaN completion loses every `<`,
        // so a degenerate wait or profile picks a rail instead of unwinding.
        let mut best_single = (RailId(0), f64::INFINITY);
        for &(r, w) in &candidates {
            let done = w.max(0.0) + cost.time_us(r, size);
            if done < best_single.1 {
                best_single = (r, done);
            }
        }

        // Paper §III-B: at most min{idle NICs, idle cores} chunks.
        let idle_nics = ctx.idle_rails().len();
        let max_chunks = idle_nics.min(ctx.idle_cores.len());
        if max_chunks < 2 {
            // Paper §II: the optimizer runs when a NIC becomes idle. A busy
            // NIC caps the split here only because the decision came early;
            // if the split after the wait beats one rail now, defer to the
            // NIC-idle event, which interrogates the strategy again.
            if ctx.idle_cores.len() >= 2 && self.split_after_wait_wins(ctx, size, best_single.1) {
                return Action::Defer;
            }
            return Action::single(ChunkPlan {
                mode: Some(TransferMode::Eager),
                ..ChunkPlan::new(best_single.0, size)
            });
        }

        let split = self.capped_split(ctx, max_chunks, size, ctx.rail_waits_us);
        // Equation (1): the split only wins if T_O + max(T_D) beats the
        // single-rail send.
        let split_with_offload = self.offload_us + split.completion_us;
        if split.assignments.len() < 2 || split_with_offload >= best_single.1 {
            return Action::single(ChunkPlan {
                mode: Some(TransferMode::Eager),
                ..ChunkPlan::new(best_single.0, size)
            });
        }

        let offload = SimDuration::from_micros_f64(self.offload_us);
        let chunks: ChunkList = split
            .assignments
            .iter()
            .zip(ctx.idle_cores.iter())
            .map(|(&(rail, bytes), &core)| ChunkPlan {
                rail,
                bytes,
                offload_core: Some(core),
                offload_delay: offload,
                mode: Some(TransferMode::Eager),
            })
            .collect();
        Action::Split(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::{decide_with, split_total};
    use nm_sim::CoreId;

    #[test]
    fn tiny_messages_refuse_to_split() {
        // 512 B: any split saves less than the 3us offload cost.
        let mut s = MulticoreEager::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![1, 2, 3], &[512]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 1);
                assert!(chunks[0].offload_core.is_none());
                assert_eq!(chunks[0].mode, Some(TransferMode::Eager));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn medium_messages_split_across_cores() {
        // 64 KiB on rails of 1000/500 B/us: split saves ~21us >> 3us.
        let mut s = MulticoreEager::new();
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![1, 2, 3], &[64 << 10]);
        assert_eq!(split_total(&action), 64 << 10);
        match action {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 2);
                let cores: Vec<_> = chunks.iter().map(|c| c.offload_core.unwrap()).collect();
                assert_ne!(cores[0], cores[1], "distinct cores");
                assert!(chunks.iter().all(|c| c.offload_delay == SimDuration::from_micros(3)));
                assert!(chunks.iter().all(|c| c.mode == Some(TransferMode::Eager)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_idle_cores_means_no_split() {
        let mut s = MulticoreEager::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![], &[64 << 10]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 1);
                assert!(chunks[0].offload_core.is_none());
            }
            other => panic!("{other:?}"),
        }
        // One idle core cannot host two parallel copies either.
        match decide_with(&mut s, vec![0.0, 0.0], vec![2], &[64 << 10]) {
            Action::Split(chunks) => assert_eq!(chunks.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn busy_nic_also_caps_the_split() {
        let mut s = MulticoreEager::new();
        match decide_with(&mut s, vec![0.0, 50.0], vec![1, 2, 3], &[64 << 10]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 1, "only one idle NIC: no split");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nan_wait_picks_a_rail_instead_of_unwinding() {
        // A wait that is not a number must not reach a panicking compare:
        // with or without idle cores the decision is still a send.
        for cores in [vec![], vec![1, 2, 3]] {
            let mut s = MulticoreEager::new();
            let action = decide_with(&mut s, vec![f64::NAN, 0.0], cores, &[512]);
            assert_eq!(split_total(&action), 512);
        }
        let mut s = MulticoreEager::new();
        let action = decide_with(&mut s, vec![f64::NAN, f64::NAN], vec![1, 2], &[64 << 10]);
        assert_eq!(split_total(&action), 64 << 10);
        // Nor may a wait with no instant behind it defer: a NaN, or the
        // infinite wait of a quarantined rail, beside an idle NIC.
        for waits in [[f64::NAN, 0.0], [0.0, f64::NAN], [f64::INFINITY, 0.0], [0.0, f64::INFINITY]]
        {
            let mut s = MulticoreEager::new();
            let action = decide_with(&mut s, waits.to_vec(), vec![1, 2, 3], &[64 << 10]);
            assert_eq!(split_total(&action), 64 << 10, "waits {waits:?}");
        }
    }

    // 64 KiB on the synthetic rails: rail 0 alone takes 68.5 µs, the quiet
    // split 46.0 µs + 3 µs T_O. Waiting pays while the wait is under 19.5 µs.

    #[test]
    fn a_short_wait_for_the_split_defers() {
        let mut s = MulticoreEager::new();
        assert_eq!(decide_with(&mut s, vec![0.0, 10.0], vec![1, 2, 3], &[64 << 10]), Action::Defer);
        // The fast rail busy: one rail now costs its wait too.
        assert_eq!(decide_with(&mut s, vec![10.0, 0.0], vec![1, 2, 3], &[64 << 10]), Action::Defer);
        assert_eq!(decide_with(&mut s, vec![10.0, 15.0], vec![1, 2], &[64 << 10]), Action::Defer);
    }

    #[test]
    fn a_long_wait_sends_on_one_rail_now() {
        let mut s = MulticoreEager::new();
        match decide_with(&mut s, vec![0.0, 25.0], vec![1, 2, 3], &[64 << 10]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 1);
                assert_eq!(chunks[0].rail, RailId(0));
                assert!(chunks[0].offload_core.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_idle_core_never_defers() {
        let mut s = MulticoreEager::new();
        let action = decide_with(&mut s, vec![0.0, 10.0], vec![2], &[64 << 10]);
        assert_eq!(split_total(&action), 64 << 10);
        let action = decide_with(&mut s, vec![0.0, 10.0], vec![], &[64 << 10]);
        assert_eq!(split_total(&action), 64 << 10);
    }

    #[test]
    fn the_defer_check_reads_the_all_idle_plan_from_the_cache() {
        let mut s = MulticoreEager::new();
        assert_eq!(decide_with(&mut s, vec![0.0, 10.0], vec![1, 2, 3], &[64 << 10]), Action::Defer);
        assert_eq!((s.cache.stats().hits, s.cache.stats().misses), (0, 1));
        // The same size behind a different wait: the same all-idle plan.
        assert_eq!(decide_with(&mut s, vec![0.0, 12.0], vec![1, 2, 3], &[64 << 10]), Action::Defer);
        assert_eq!((s.cache.stats().hits, s.cache.stats().misses), (1, 1));
        // And the decision once the NICs are idle shares its key.
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![1, 2], &[64 << 10]);
        assert!(matches!(&action, Action::Split(chunks) if chunks.len() == 2), "{action:?}");
        assert_eq!((s.cache.stats().hits, s.cache.stats().misses, s.cache.len()), (2, 1, 1));
    }

    #[test]
    fn rendezvous_sizes_fall_back_to_hetero() {
        let mut s = MulticoreEager::new();
        // 4 MiB > the synthetic 128 KiB threshold on every rail.
        match decide_with(&mut s, vec![0.0, 0.0], vec![1, 2], &[4 << 20]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 2, "hetero split of a rendezvous message");
                assert!(chunks.iter().all(|c| c.mode.is_none()));
                assert!(chunks.iter().all(|c| c.offload_core.is_none()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunks_are_assigned_to_listed_idle_cores() {
        let mut s = MulticoreEager::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![2, 3], &[64 << 10]) {
            Action::Split(chunks) => {
                let cores: Vec<_> = chunks.iter().map(|c| c.offload_core.unwrap()).collect();
                assert_eq!(cores, vec![CoreId(2), CoreId(3)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn higher_offload_cost_shrinks_the_split_regime() {
        // With a 1ms offload cost even 64 KiB refuses to split.
        let mut s = MulticoreEager::new();
        s.offload_us = 1000.0;
        match decide_with(&mut s, vec![0.0, 0.0], vec![1, 2], &[64 << 10]) {
            Action::Split(chunks) => assert_eq!(chunks.len(), 1),
            other => panic!("{other:?}"),
        }
    }
}
