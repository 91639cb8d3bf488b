//! Aggregation of eager messages (paper §II-C, Fig 3's winner; Fig 4b).
//!
//! "It is more efficient to aggregate the messages and to send them over
//! the fastest available network instead of using the entire set of network
//! resources." Small queued messages bound for the same peer are packed
//! into one packet on the predicted-fastest rail; rendezvous-sized messages
//! fall back to the hetero split.

use crate::strategy::hetero::HeteroSplit;
use crate::strategy::{Action, Ctx, Strategy};
use nm_proto::aggregate::ENTRY_OVERHEAD;

/// Packs small eager messages onto the fastest rail.
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// Maximum packed payload per aggregate packet.
    pub max_pack_bytes: u64,
    big_message_fallback: HeteroSplit,
}

impl Aggregation {
    /// Default: packs up to 32 KiB of payload per aggregate.
    pub fn new() -> Self {
        Aggregation::with_max_pack(32 * 1024)
    }

    /// Custom pack budget.
    // nm-analyzer: allow(unit-bare) -- packing threshold compared against
    // queue byte counts, which the Ctx interface keeps as u64
    pub fn with_max_pack(max_pack_bytes: u64) -> Self {
        assert!(max_pack_bytes > ENTRY_OVERHEAD as u64);
        Aggregation { max_pack_bytes, big_message_fallback: HeteroSplit::new() }
    }
}

impl Default for Aggregation {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Aggregation {
    fn name(&self) -> &'static str {
        "aggregation"
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        let head = ctx.head_size();
        let rail = ctx.predictor.fastest_rail(head, ctx.rail_waits_us);
        if !ctx.is_eager(rail, head) {
            // Large messages do not aggregate; split them properly.
            return self.big_message_fallback.decide(ctx);
        }
        // Pack the head and as many successors as fit the budget while
        // staying eager on the chosen rail.
        let threshold = ctx.predictor.rail(rail).rdv_threshold;
        let mut packed = 0u64;
        let mut count = 0usize;
        for &size in ctx.queued_sizes {
            let next = packed + ENTRY_OVERHEAD as u64 + size;
            if count > 0 && (next > self.max_pack_bytes || next >= threshold) {
                break;
            }
            packed = next;
            count += 1;
        }
        Action::aggregate(count, rail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::decide_with;
    use nm_sim::RailId;

    #[test]
    fn small_messages_pack_onto_fastest_rail() {
        let mut s = Aggregation::new();
        // Synthetic rails: rail 1 has 1us latency — fastest for small sizes.
        match decide_with(&mut s, vec![0.0, 0.0], vec![0], &[64, 64, 64]) {
            Action::Aggregate { count, rail, .. } => {
                assert_eq!(count, 3, "all three fit one pack");
                assert_eq!(rail, RailId(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pack_budget_limits_count() {
        let mut s = Aggregation::with_max_pack(200);
        // Each entry costs 16 + 64 = 80 bytes: two fit (160), three don't.
        match decide_with(&mut s, vec![0.0, 0.0], vec![0], &[64, 64, 64]) {
            Action::Aggregate { count, .. } => assert_eq!(count, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn head_alone_is_a_pack_of_one() {
        let mut s = Aggregation::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![0], &[500]) {
            Action::Aggregate { count, .. } => assert_eq!(count, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_head_falls_back_to_split() {
        let mut s = Aggregation::new();
        // 4 MiB is far beyond the synthetic 128 KiB threshold.
        match decide_with(&mut s, vec![0.0, 0.0], vec![0], &[4 << 20, 64]) {
            Action::Split(chunks) => assert!(!chunks.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pack_never_crosses_the_rendezvous_threshold() {
        let mut s = Aggregation::with_max_pack(1 << 20);
        // Two 100 KiB messages: each eager alone (threshold 128 KiB) but
        // packing both would hit 200 KiB and go rendezvous — refuse.
        match decide_with(&mut s, vec![0.0, 0.0], vec![0], &[100 << 10, 100 << 10]) {
            Action::Aggregate { count, .. } => assert_eq!(count, 1),
            other => panic!("{other:?}"),
        }
    }
}
