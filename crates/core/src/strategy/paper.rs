//! The complete strategy of the paper, as a single plug-in.
//!
//! The evaluation sections exercise the pieces separately, but the system
//! the paper describes composes them by regime:
//!
//! * **tiny/small eager messages** — aggregate onto the fastest NIC
//!   (Fig 3/4b): splitting cannot beat one latency, and several queued
//!   packets amortize one injection;
//! * **medium eager messages** — split across rails with the PIO copies
//!   offloaded to idle cores when equation (1) predicts a win (Fig 4c/7/9);
//! * **rendezvous messages** — sampling-based equal-completion split with
//!   busy-until-aware selection (Fig 1c/2/8).
//!
//! Dispatch is decided per interrogation from the predictor and the queue,
//! so the same plug-in serves mixed workloads. An eager plan the dispatch
//! leaves on the initiating core (a pack, or a single-rail eager send)
//! moves to the first idle core when core 0 is busy, charged T_O — the
//! paper's "signal an idle core" (§III-D). Only the composite does this:
//! the single plug-ins reproduce the evaluation's pieces, and Fig 3's
//! aggregation is measured on the application core.

use crate::strategy::aggregation::Aggregation;
use crate::strategy::hetero::HeteroSplit;
use crate::strategy::multicore::MulticoreEager;
use crate::strategy::{Action, Ctx, Strategy};
use nm_model::SimDuration;
use nm_sim::CoreId;

/// Aggregation + multicore eager + hetero split, dispatched by regime.
#[derive(Debug, Clone)]
pub struct PaperStrategy {
    aggregation: Aggregation,
    multicore: MulticoreEager,
    hetero: HeteroSplit,
    /// Head sizes below this try the aggregation path first.
    pub aggregate_below: u64,
}

impl PaperStrategy {
    /// Paper-calibrated composition: aggregate below 4 KiB (where Fig 9
    /// says splitting always loses), offload-split eager messages above,
    /// hetero-split rendezvous messages.
    pub fn new() -> Self {
        PaperStrategy {
            aggregation: Aggregation::new(),
            multicore: MulticoreEager::new(),
            hetero: HeteroSplit::new(),
            aggregate_below: 4 * 1024,
        }
    }
}

impl Default for PaperStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for PaperStrategy {
    fn name(&self) -> &'static str {
        "paper-composite"
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        let size = ctx.head_size();
        let eager_everywhere = ctx.predictor.rails().iter().all(|rv| size < rv.rdv_threshold);
        if !eager_everywhere {
            return self.hetero.decide(ctx);
        }
        // Medium eager: the multicore plug-in itself falls back to a
        // single-rail send when no idle cores/NICs or no predicted win.
        let mut action = if size < self.aggregate_below {
            self.aggregation.decide(ctx)
        } else {
            self.multicore.decide(ctx)
        };
        // A pack or a one-chunk split is left on the initiating core, where
        // its copy would serialize behind the one already there when core 0
        // is busy: signal the first idle core instead, at T_O, so the rails
        // copy in parallel (§II-C). Idle cores are listed ascending.
        let Some(&core) = ctx.idle_cores.first().filter(|&&c| c != CoreId(0)) else {
            return action;
        };
        let delay = SimDuration::from_micros_f64(self.multicore.offload_us);
        match &mut action {
            Action::Aggregate { offload_core, offload_delay, .. } => {
                (*offload_core, *offload_delay) = (Some(core), delay);
            }
            Action::Split(chunks) => {
                if let [c] = chunks.as_mut_slice() {
                    (c.offload_core, c.offload_delay) = (Some(core), delay);
                }
            }
            _ => {}
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::test_support::decide_with;
    use nm_model::TransferMode;
    use nm_sim::RailId;

    #[test]
    fn tiny_messages_take_the_aggregation_path() {
        let mut s = PaperStrategy::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![1, 2], &[256, 256, 256]) {
            Action::Aggregate { count, .. } => assert_eq!(count, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn medium_eager_messages_offload_split() {
        let mut s = PaperStrategy::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![1, 2], &[64 << 10]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 2);
                assert!(chunks.iter().all(|c| c.offload_core.is_some()));
                assert!(chunks.iter().all(|c| c.mode == Some(TransferMode::Eager)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_messages_hetero_split_without_offload() {
        let mut s = PaperStrategy::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![1, 2], &[4 << 20]) {
            Action::Split(chunks) => {
                assert_eq!(chunks.len(), 2);
                assert!(chunks.iter().all(|c| c.offload_core.is_none()));
                assert!(chunks.iter().all(|c| c.mode.is_none()));
            }
            other => panic!("{other:?}"),
        }
    }

    /// T_O, what a copy moved off core 0 is charged.
    const T_O: SimDuration = SimDuration::from_micros(3);
    /// Rail 1 busy for 50 µs: past the 19.5 µs a 64 KiB split is worth
    /// waiting for, so `MulticoreEager` sends 64 KiB eager on rail 0 alone.
    const RAIL_1_BUSY: [f64; 2] = [0.0, 50.0];

    /// The core a pack's or a one-chunk split's copy runs on, and its T_O.
    fn placement(action: &Action) -> (Option<CoreId>, SimDuration) {
        match action {
            Action::Aggregate { offload_core, offload_delay, .. } => {
                (*offload_core, *offload_delay)
            }
            Action::Split(chunks) if chunks.len() == 1 => {
                (chunks[0].offload_core, chunks[0].offload_delay)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_pack_leaves_a_busy_core_0_for_the_first_idle_core() {
        let mut s = PaperStrategy::new();
        let action = decide_with(&mut s, vec![0.0, 0.0], vec![2, 3], &[256, 256, 256]);
        assert!(matches!(action, Action::Aggregate { count: 3, .. }), "{action:?}");
        assert_eq!(placement(&action), (Some(CoreId(2)), T_O));
    }

    #[test]
    fn the_single_rail_eager_fallback_leaves_a_busy_core_0() {
        let mut s = PaperStrategy::new();
        let action = decide_with(&mut s, RAIL_1_BUSY.to_vec(), vec![2, 3], &[64 << 10]);
        let Action::Split(chunks) = &action else { panic!("{action:?}") };
        assert_eq!((chunks.len(), chunks[0].rail), (1, RailId(0)));
        assert_eq!(chunks[0].mode, Some(TransferMode::Eager));
        assert_eq!(placement(&action), (Some(CoreId(2)), T_O));
    }

    #[test]
    fn an_idle_core_0_keeps_the_inner_plan() {
        let cases: [(&mut dyn Strategy, &[u64]); 2] = [
            (&mut Aggregation::new(), &[256, 256, 256]),
            (&mut MulticoreEager::new(), &[64 << 10]),
        ];
        for (inner, sizes) in cases {
            let waits = RAIL_1_BUSY.to_vec();
            let mut s = PaperStrategy::new();
            let idle = decide_with(&mut s, waits.clone(), vec![0, 2, 3], sizes);
            assert_eq!(idle, decide_with(inner, waits.clone(), vec![0, 2, 3], sizes));
            assert_eq!(placement(&idle), (None, SimDuration::ZERO));
            // The same queue behind a busy core 0 moves.
            let busy = decide_with(&mut s, waits, vec![2, 3], sizes);
            assert_eq!(placement(&busy), (Some(CoreId(2)), T_O));
        }
    }

    #[test]
    fn with_no_idle_core_the_copy_stays_on_core_0() {
        for sizes in [&[256u64, 256, 256][..], &[64 << 10]] {
            let mut s = PaperStrategy::new();
            let none = decide_with(&mut s, RAIL_1_BUSY.to_vec(), vec![], sizes);
            assert_eq!(placement(&none), (None, SimDuration::ZERO));
            // One idle core is enough to leave core 0.
            let one = decide_with(&mut s, RAIL_1_BUSY.to_vec(), vec![1], sizes);
            assert_eq!(placement(&one), (Some(CoreId(1)), T_O));
        }
    }

    #[test]
    fn a_rendezvous_head_never_reaches_the_rule() {
        // Rail 1 quarantined: 4 MiB goes whole on rail 0, in one chunk.
        let waits = vec![0.0, f64::INFINITY];
        let mut s = PaperStrategy::new();
        let rdv = decide_with(&mut s, waits.clone(), vec![2, 3], &[4 << 20, 256]);
        let hetero =
            decide_with(&mut HeteroSplit::new(), waits.clone(), vec![2, 3], &[4 << 20, 256]);
        assert_eq!(rdv, hetero);
        assert_eq!(placement(&rdv), (None, SimDuration::ZERO));
        // An eager head in the same context leaves core 0.
        let eager = decide_with(&mut s, waits, vec![2, 3], &[256, 4 << 20]);
        assert_eq!(placement(&eager), (Some(CoreId(2)), T_O));
    }

    #[test]
    fn medium_eager_without_idle_cores_degrades_gracefully() {
        let mut s = PaperStrategy::new();
        match decide_with(&mut s, vec![0.0, 0.0], vec![], &[64 << 10]) {
            Action::Split(chunks) => assert_eq!(chunks.len(), 1),
            other => panic!("{other:?}"),
        }
    }
}
