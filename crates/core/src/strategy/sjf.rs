//! Shortest-first reordering.
//!
//! NewMadeleine "aims at applying dynamic scheduling optimizations on
//! multiple communication flows such as reordering, aggregation, multirail
//! distribution" (paper §III-A). This plug-in implements the reordering
//! part: when a small message waits behind a large one, promoting it to the
//! head slashes its latency for a negligible delay of the large transfer.
//! The actual wire scheduling of the (possibly promoted) head is delegated
//! to an inner strategy.
//!
//! Promotion changes only wire order; the engine still *delivers* each
//! flow's messages to the application in posted order.

use crate::strategy::{Action, Ctx, Strategy};

/// Promotes the smallest queued message when it is substantially smaller
/// than the head, then delegates to `inner`.
pub struct ShortestFirst {
    inner: Box<dyn Strategy>,
}

/// Promote only when `smallest * PROMOTE_FACTOR <= head` (hysteresis against
/// churn).
const PROMOTE_FACTOR: u64 = 4;

impl ShortestFirst {
    /// Wraps `inner` with shortest-first reordering.
    pub fn new(inner: Box<dyn Strategy>) -> Self {
        ShortestFirst { inner }
    }
}

impl Strategy for ShortestFirst {
    fn name(&self) -> &'static str {
        "shortest-first"
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        let head = ctx.head_size();
        if let Some((index, &size)) =
            ctx.queued_sizes.iter().enumerate().skip(1).min_by_key(|&(_, &s)| s)
        {
            if size.saturating_mul(PROMOTE_FACTOR) <= head {
                return Action::Promote { index };
            }
        }
        self.inner.decide(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::hetero::HeteroSplit;
    use crate::strategy::test_support::decide_with;

    fn sjf() -> ShortestFirst {
        ShortestFirst::new(Box::new(HeteroSplit::new()))
    }

    #[test]
    fn promotes_a_small_message_behind_a_large_one() {
        let mut s = sjf();
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![0], &[1 << 20, 8 << 10, 256]);
        assert_eq!(action, Action::Promote { index: 2 });
    }

    #[test]
    fn does_not_promote_similar_sizes() {
        let mut s = sjf();
        // 64K behind 128K: within factor 4, no promotion; delegate.
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![0], &[128 << 10, 64 << 10]);
        assert!(matches!(action, Action::Split(_)), "{action:?}");
    }

    #[test]
    fn after_promotion_the_head_is_smallest_and_it_delegates() {
        let mut s = sjf();
        // Simulates the engine having applied the promotion.
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![0], &[256, 1 << 20, 8 << 10]);
        assert!(matches!(action, Action::Split(_)), "{action:?}");
    }

    #[test]
    fn single_message_queue_delegates() {
        let mut s = sjf();
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![0], &[1 << 20]);
        assert!(matches!(action, Action::Split(_)));
    }
}
