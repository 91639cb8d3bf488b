//! The optimizer-scheduler layer: strategy plug-ins.
//!
//! In NewMadeleine "the features proposed in this article are mainly
//! organized around the implementation of a new optimization strategy which
//! actually is a plug-in called to gather the data requests and interrogated
//! by the lower layer in order to know what to do at the appropriate time"
//! (§III-B). A [`Strategy`] here is exactly that plug-in: interrogated with
//! a [`Ctx`] snapshot (sampled predictions + rail/core state + the waiting
//! queue), it answers with an [`Action`].
//!
//! Implementations:
//!
//! | strategy | paper role |
//! |---|---|
//! | [`single::SingleRail`] | baseline: one network only (Fig 8 "Myri-10G" / "Quadrics" curves) |
//! | [`greedy::GreedyBalance`] | "when a NIC becomes idle, it looks after the next communication" (Fig 3's loser) |
//! | [`iso::IsoSplit`] | equal-size chunks over all rails (Fig 1b, Fig 8 "Iso-split") |
//! | [`ratio::BandwidthRatioSplit`] | Open MPI-style static bandwidth ratio (§II-A critique) |
//! | [`hetero::HeteroSplit`] | sampling + dichotomy + busy-until (Fig 1c, Fig 8 "Hetero-split") |
//! | [`aggregation::Aggregation`] | pack small eager messages onto the fastest NIC (Fig 3's winner) |
//! | [`multicore::MulticoreEager`] | offload eager chunk copies to idle cores (Fig 4c / Fig 7 / eq. 1) |
//! | [`sjf::ShortestFirst`] | queue reordering ("reordering", §III-A) wrapping any inner strategy |
//! | [`paper::PaperStrategy`] | the complete composition, dispatched by message regime |

pub mod aggregation;
pub mod greedy;
pub mod hetero;
pub mod iso;
pub mod multicore;
pub mod paper;
pub mod ratio;
pub mod single;
pub mod sjf;

use crate::predictor::Predictor;
use nm_model::{InlineVec, SimDuration, SimTime, TransferMode, MAX_RAILS};
use nm_sim::{CoreId, RailId};

/// Snapshot handed to a strategy when it is interrogated.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Current time.
    pub now: SimTime,
    /// Sampled knowledge of every rail.
    pub predictor: &'a Predictor,
    /// Per-rail wait (µs until the local NIC goes idle), indexed by rail.
    /// Borrowed from the engine's reusable scratch buffer.
    pub rail_waits_us: &'a [f64],
    /// Locally idle cores right now, ascending. Borrowed from the engine's
    /// reusable scratch buffer.
    pub idle_cores: &'a [CoreId],
    /// Total local cores.
    pub core_count: usize,
    /// Sizes of queued messages, head first (never empty when interrogated).
    pub queued_sizes: &'a [u64],
    /// Generation counter of the predictor: bumped whenever the engine
    /// replaces its sampled knowledge (feedback correction, re-sampling).
    /// Plan caches key on it so stale plans die with the old predictor.
    pub predictor_epoch: u64,
}

/// Every rail's wait in a quiet context: no NIC is busy.
pub(crate) static QUIET_WAITS_US: [f64; MAX_RAILS] = [0.0; MAX_RAILS];

impl<'a> Ctx<'a> {
    /// A context at time zero on a quiet node: every NIC idle, the listed
    /// cores idle and the only ones there are, and the predictor at epoch
    /// zero. What a strategy decides here is what it does on an
    /// uncontended pair.
    pub fn quiet(
        predictor: &'a Predictor,
        idle_cores: &'a [CoreId],
        queued_sizes: &'a [u64],
    ) -> Self {
        Ctx {
            now: SimTime::ZERO,
            predictor,
            rail_waits_us: &QUIET_WAITS_US[..predictor.rail_count()],
            idle_cores,
            core_count: idle_cores.len(),
            queued_sizes,
            predictor_epoch: 0,
        }
    }

    /// Size of the head message.
    pub fn head_size(&self) -> u64 {
        self.queued_sizes[0]
    }

    /// Candidate `(rail, wait)` pairs for split computations.
    pub fn rail_candidates(&self) -> InlineVec<(RailId, f64), MAX_RAILS> {
        self.rail_waits_us.iter().enumerate().map(|(i, &w)| (RailId(i), w)).collect()
    }

    /// Rails whose NIC is idle right now.
    pub fn idle_rails(&self) -> InlineVec<RailId, MAX_RAILS> {
        self.rail_waits_us
            .iter()
            .enumerate()
            .filter(|(_, &w)| w <= 0.0)
            .map(|(i, _)| RailId(i))
            .collect()
    }

    /// True when `size` would go eager on `rail`.
    pub fn is_eager(&self, rail: RailId, size: u64) -> bool {
        size < self.predictor.rail(rail).rdv_threshold
    }
}

/// One chunk of a split plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChunkPlan {
    /// Rail carrying the chunk.
    pub rail: RailId,
    /// Chunk bytes (≥ 1).
    pub bytes: u64,
    /// Core executing the send; `None` = the initiating core.
    pub offload_core: Option<CoreId>,
    /// Offload cost to charge (T_O), zero when not offloaded.
    pub offload_delay: SimDuration,
    /// Protocol override.
    pub mode: Option<TransferMode>,
}

impl ChunkPlan {
    /// A plain chunk on the initiating core.
    pub fn new(rail: RailId, bytes: u64) -> Self {
        ChunkPlan { rail, bytes, offload_core: None, offload_delay: SimDuration::ZERO, mode: None }
    }
}

/// Chunk plans for one message, stored inline (one chunk per rail at most).
pub type ChunkList = InlineVec<ChunkPlan, MAX_RAILS>;

/// A strategy's answer.
///
/// `Split` carries its chunks inline (no heap allocation on the decision
/// fast path); the size skew vs the unit-like variants is deliberate.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send the head message as these chunks (possibly a single one).
    Split(ChunkList),
    /// Pack the first `count` queued messages into one aggregate packet on
    /// `rail` (all must be eager-sized).
    Aggregate {
        /// How many queued messages to pack (≥ 1).
        count: usize,
        /// Rail for the pack.
        rail: RailId,
        /// Core copying the pack; `None` = the initiating core.
        offload_core: Option<CoreId>,
        /// Offload cost to charge (T_O), zero when not offloaded.
        offload_delay: SimDuration,
    },
    /// Move the queued message at `index` (> 0) to the head, then
    /// re-interrogate — NewMadeleine's *reordering* optimization. The
    /// engine still delivers each flow in posted order; reordering only
    /// changes wire scheduling.
    Promote {
        /// Queue position to promote (0 is the head; must be > 0).
        index: usize,
    },
    /// Leave the queue untouched; the engine re-interrogates on the next
    /// NIC-idle event.
    Defer,
}

impl Action {
    /// A split consisting of a single chunk.
    pub fn single(plan: ChunkPlan) -> Action {
        let mut chunks = ChunkList::new();
        chunks.push(plan);
        Action::Split(chunks)
    }

    /// A pack of the first `count` queued messages on the initiating core.
    pub fn aggregate(count: usize, rail: RailId) -> Action {
        Action::Aggregate { count, rail, offload_core: None, offload_delay: SimDuration::ZERO }
    }
}

/// The strategy plug-in interface.
pub trait Strategy: Send {
    /// Plug-in name (for reports).
    fn name(&self) -> &'static str;

    /// Interrogation: decide what to do with the head of the queue.
    fn decide(&mut self, ctx: &Ctx<'_>) -> Action;
}

/// Built-in strategy selector (mirrors NewMadeleine's strategy registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Everything on one rail (`None`: predicted-fastest per message).
    SingleRail(Option<RailId>),
    /// Greedy balancing over idle NICs.
    GreedyBalance,
    /// Equal-size split over all rails.
    IsoSplit,
    /// Static split by asymptotic bandwidth ratio (Open MPI baseline).
    RatioSplit,
    /// The paper's sampling-based equal-completion split.
    HeteroSplit,
    /// Aggregation of eager messages onto the fastest rail.
    Aggregation,
    /// Multicore eager offload (hetero split + idle-core PIO copies).
    MulticoreEager,
    /// Shortest-job-first reordering in front of the hetero split
    /// (NewMadeleine's reordering optimization).
    ShortestFirst,
    /// The paper's complete composition: aggregation for small eager
    /// messages, multicore-offloaded splits for medium eager ones,
    /// hetero-split for rendezvous sizes.
    Paper,
}

impl StrategyKind {
    /// Instantiates the strategy with its default parameters.
    pub fn build(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::SingleRail(fixed) => Box::new(single::SingleRail::new(fixed)),
            StrategyKind::GreedyBalance => Box::new(greedy::GreedyBalance::new()),
            StrategyKind::IsoSplit => Box::new(iso::IsoSplit::new()),
            StrategyKind::RatioSplit => Box::new(ratio::BandwidthRatioSplit::new()),
            StrategyKind::HeteroSplit => Box::new(hetero::HeteroSplit::new()),
            StrategyKind::Aggregation => Box::new(aggregation::Aggregation::new()),
            StrategyKind::MulticoreEager => Box::new(multicore::MulticoreEager::new()),
            StrategyKind::ShortestFirst => {
                Box::new(sjf::ShortestFirst::new(Box::new(hetero::HeteroSplit::new())))
            }
            StrategyKind::Paper => Box::new(paper::PaperStrategy::new()),
        }
    }

    /// All kinds, for sweeps in benches and tests.
    pub fn all() -> Vec<StrategyKind> {
        vec![
            StrategyKind::SingleRail(None),
            StrategyKind::GreedyBalance,
            StrategyKind::IsoSplit,
            StrategyKind::RatioSplit,
            StrategyKind::HeteroSplit,
            StrategyKind::Aggregation,
            StrategyKind::MulticoreEager,
            StrategyKind::ShortestFirst,
            StrategyKind::Paper,
        ]
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::predictor::test_support::two_rail_predictor;

    /// Runs `decide` once against the two synthetic rails with the given
    /// waits, idle cores and queue.
    pub fn decide_with(
        strategy: &mut dyn Strategy,
        waits: Vec<f64>,
        idle_cores: Vec<usize>,
        queued_sizes: &[u64],
    ) -> Action {
        let p = two_rail_predictor();
        let idle_cores: Vec<CoreId> = idle_cores.into_iter().map(CoreId).collect();
        let ctx = Ctx {
            now: SimTime::ZERO,
            predictor: &p,
            rail_waits_us: &waits,
            idle_cores: &idle_cores,
            core_count: 4,
            queued_sizes,
            predictor_epoch: 0,
        };
        strategy.decide(&ctx)
    }

    /// Total bytes of a split action.
    pub fn split_total(action: &Action) -> u64 {
        match action {
            Action::Split(chunks) => chunks.iter().map(|c| c.bytes).sum(),
            other => panic!("expected Split, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_names() {
        for kind in StrategyKind::all() {
            let s = kind.build();
            match kind {
                StrategyKind::SingleRail(_) => assert_eq!(s.name(), "single-rail"),
                StrategyKind::GreedyBalance => assert_eq!(s.name(), "greedy-balance"),
                StrategyKind::IsoSplit => assert_eq!(s.name(), "iso-split"),
                StrategyKind::RatioSplit => assert_eq!(s.name(), "ratio-split"),
                StrategyKind::HeteroSplit => assert_eq!(s.name(), "hetero-split"),
                StrategyKind::Aggregation => assert_eq!(s.name(), "aggregation"),
                StrategyKind::MulticoreEager => assert_eq!(s.name(), "multicore-eager"),
                StrategyKind::ShortestFirst => assert_eq!(s.name(), "shortest-first"),
                StrategyKind::Paper => assert_eq!(s.name(), "paper-composite"),
            }
        }
    }

    #[test]
    fn ctx_helpers() {
        let p = crate::predictor::test_support::two_rail_predictor();
        let sizes = [100u64, 200];
        let ctx = Ctx {
            now: SimTime::ZERO,
            predictor: &p,
            rail_waits_us: &[0.0, 50.0],
            idle_cores: &[CoreId(1), CoreId(3)],
            core_count: 4,
            queued_sizes: &sizes,
            predictor_epoch: 0,
        };
        assert_eq!(ctx.head_size(), 100);
        assert_eq!(ctx.idle_rails(), vec![RailId(0)]);
        assert_eq!(ctx.rail_candidates(), vec![(RailId(0), 0.0), (RailId(1), 50.0)]);
        assert!(ctx.is_eager(RailId(0), 1000));
        assert!(!ctx.is_eager(RailId(0), 1 << 20));

        let quiet = Ctx::quiet(&p, &[CoreId(0), CoreId(1)], &sizes);
        assert_eq!(quiet.idle_rails(), vec![RailId(0), RailId(1)]);
        assert_eq!((quiet.now, quiet.core_count, quiet.predictor_epoch), (SimTime::ZERO, 2, 0));
    }
}
