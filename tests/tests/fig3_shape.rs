//! Figure 3 shape assertions: greedy balancing of eager packets loses to
//! aggregating on one network, across the whole 4 B – 16 KB sweep.

use nm_core::engine::Engine;
use nm_core::strategy::{Action, Ctx, Strategy, StrategyKind};
use nm_model::units::{pow2_sizes, KIB};
use nm_sim::RailId;
use nm_tests::paper_engine;

/// Fig 3's per-rail aggregated series: everything packed on one fixed rail.
#[derive(Debug, Clone)]
struct AggregateOn(RailId);

impl Strategy for AggregateOn {
    fn name(&self) -> &'static str {
        "aggregate-on-fixed-rail"
    }
    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        Action::aggregate(ctx.queued_sizes.len(), self.0)
    }
}

fn batch_completion_us(strategy: Box<dyn Strategy>, sizes: &[u64]) -> f64 {
    let mut engine: Engine<_> = paper_engine(strategy);
    engine.post_send_batch(sizes).expect("post batch");
    engine
        .drain()
        .expect("drain")
        .iter()
        .map(|c| c.delivered_at.as_micros_f64())
        .fold(0.0, f64::max)
}

#[test]
fn balancing_two_eager_segments_never_wins() {
    for total in pow2_sizes(4, 16 * KIB) {
        let seg = (total / 2).max(1);
        let segments = [seg, seg];
        let myri = batch_completion_us(Box::new(AggregateOn(RailId(0))), &segments);
        let quad = batch_completion_us(Box::new(AggregateOn(RailId(1))), &segments);
        let balanced = batch_completion_us(StrategyKind::GreedyBalance.build(), &segments);
        let best = myri.min(quad);
        assert!(
            balanced > best,
            "total {total}: balanced {balanced:.2}us beat aggregation {best:.2}us"
        );
    }
}

#[test]
fn balancing_penalty_is_substantial_for_tiny_packets() {
    // At 4 B the paper's gap is large; demand at least 15%.
    let segments = [2u64, 2];
    let myri = batch_completion_us(Box::new(AggregateOn(RailId(0))), &segments);
    let quad = batch_completion_us(Box::new(AggregateOn(RailId(1))), &segments);
    let balanced = batch_completion_us(StrategyKind::GreedyBalance.build(), &segments);
    let best = myri.min(quad);
    assert!(balanced / best > 1.15, "penalty only {:.2}x", balanced / best);
}

#[test]
fn the_aggregation_strategy_actually_aggregates() {
    let mut engine = paper_engine(StrategyKind::Aggregation.build());
    engine.post_send_batch(&[512; 4]).expect("post batch");
    engine.drain().expect("drain");
    let stats = engine.stats();
    assert_eq!(stats.msgs_aggregated, 4, "{stats:?}");
    assert_eq!(stats.packs_submitted, 1, "four small messages pack into one: {stats:?}");
    assert_eq!(stats.chunks_submitted, 1, "{stats:?}");
}
