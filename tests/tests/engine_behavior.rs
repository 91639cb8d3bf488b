//! Engine behaviour across strategies: queueing, deferral, aggregation,
//! completion accounting, and strategy-to-wire consistency.

use nm_core::engine::Engine;
use nm_core::strategy::{Action, ChunkPlan, Ctx, Strategy, StrategyKind};
use nm_model::units::{KIB, MIB};
use nm_sim::RailId;
use nm_tests::{paper_engine, paper_engine_kind};

#[test]
fn every_builtin_strategy_completes_a_mixed_workload() {
    let sizes = [64u64, 4 * KIB, 100 * KIB, 2 * MIB, 512, 64 * KIB];
    for kind in StrategyKind::all() {
        let mut engine = paper_engine_kind(kind);
        let ids: Vec<_> = sizes.iter().map(|&s| engine.post_send(s).expect("post")).collect();
        let done = engine.drain().expect("drain");
        assert_eq!(done.len(), ids.len(), "{kind:?} lost messages");
        let stats = engine.stats();
        assert_eq!(stats.msgs_completed, sizes.len() as u64, "{kind:?}");
        assert_eq!(stats.bytes_completed, sizes.iter().sum::<u64>(), "{kind:?}");
    }
}

#[test]
fn greedy_defers_until_a_nic_frees_up() {
    let mut engine = paper_engine_kind(StrategyKind::GreedyBalance);
    // Three messages, two rails: the third must defer at least once.
    for _ in 0..3 {
        engine.post_send(MIB).expect("post");
    }
    let done = engine.drain().expect("drain");
    assert_eq!(done.len(), 3);
    assert!(engine.stats().defers >= 1, "stats: {:?}", engine.stats());
}

#[test]
fn completions_report_the_actual_chunk_layout() {
    let mut engine = paper_engine_kind(StrategyKind::HeteroSplit);
    let id = engine.post_send(4 * MIB).expect("post");
    let done = engine.wait(id).expect("wait");
    let total: u64 = done.chunks.iter().map(|c| c.1).sum();
    assert_eq!(total, 4 * MIB, "chunks must tile the message");
    let rails: std::collections::HashSet<_> = done.chunks.iter().map(|c| c.0).collect();
    assert_eq!(rails.len(), done.chunks.len(), "one chunk per rail");
}

#[test]
fn rail_byte_accounting_matches_layouts() {
    let mut engine = paper_engine_kind(StrategyKind::HeteroSplit);
    let ids: Vec<_> = (0..4).map(|_| engine.post_send(MIB).expect("post")).collect();
    let mut per_rail = vec![0u64; 2];
    for id in ids {
        for (rail, bytes) in engine.wait(id).expect("wait").chunks {
            per_rail[rail.index()] += bytes;
        }
    }
    assert_eq!(engine.stats().rail_bytes, per_rail);
}

#[test]
fn a_malformed_strategy_plan_is_rejected() {
    /// Covers only half the message: must be refused.
    #[derive(Debug)]
    struct Broken;
    impl Strategy for Broken {
        fn name(&self) -> &'static str {
            "broken"
        }
        fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
            Action::single(ChunkPlan::new(RailId(0), ctx.head_size() / 2))
        }
    }
    let mut engine: Engine<_> = paper_engine(Box::new(Broken));
    let err = engine.post_send(1024).unwrap_err();
    assert!(matches!(err, nm_core::EngineError::BadPlan(_)), "{err}");
}

#[test]
fn unknown_rail_in_plan_is_rejected() {
    #[derive(Debug)]
    struct BadRail;
    impl Strategy for BadRail {
        fn name(&self) -> &'static str {
            "bad-rail"
        }
        fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
            Action::single(ChunkPlan::new(RailId(7), ctx.head_size()))
        }
    }
    let mut engine: Engine<_> = paper_engine(Box::new(BadRail));
    assert!(engine.post_send(1024).is_err());
}

#[test]
fn zero_byte_messages_are_refused() {
    let mut engine = paper_engine_kind(StrategyKind::HeteroSplit);
    assert!(engine.post_send(0).is_err());
}

#[test]
fn waiting_twice_on_the_same_message_fails_cleanly() {
    let mut engine = paper_engine_kind(StrategyKind::HeteroSplit);
    let id = engine.post_send(1024).expect("post");
    let _ = engine.wait(id).expect("first wait");
    let err = engine.wait(id).unwrap_err();
    assert!(matches!(err, nm_core::EngineError::UnknownMessage(_)));
}

#[test]
fn drain_claims_completions_released_before_it_was_called() {
    let mut engine = paper_engine_kind(StrategyKind::SingleRail(Some(RailId(0))));
    let a = engine.post_send(4 * KIB).expect("post");
    let b = engine.post_send(4 * KIB).expect("post");
    // Same rail, same flow: waiting for `b` releases `a` on the way.
    engine.wait(b).expect("wait");
    let rest = engine.drain().expect("drain");
    assert_eq!(rest.iter().map(|c| c.id).collect::<Vec<_>>(), vec![a]);
    assert!(engine.try_completion(a).is_none(), "drain must leave nothing behind");
    assert!(engine.drain().expect("drain").is_empty());
}

#[test]
fn fifo_messages_on_one_rail_complete_in_post_order() {
    let mut engine = paper_engine_kind(StrategyKind::SingleRail(Some(RailId(0))));
    let ids: Vec<_> = (0..5).map(|_| engine.post_send(64 * KIB).expect("post")).collect();
    let mut last = nm_model::SimTime::ZERO;
    for id in ids {
        let done = engine.wait(id).expect("wait");
        assert!(done.delivered_at >= last, "reordered on a FIFO rail");
        last = done.delivered_at;
    }
}

#[test]
fn cancelling_a_queued_message_frees_the_flow() {
    // Greedy on 2 rails: the third message stays queued and can be
    // cancelled; the flow must not stall on its sequence number.
    let mut engine = paper_engine_kind(StrategyKind::GreedyBalance);
    let ids: Vec<_> = (0..4).map(|_| engine.post_send(MIB).expect("post")).collect();
    assert!(engine.cancel(ids[2]).expect("cancel"), "third message still queued");
    assert!(!engine.cancel(ids[0]).expect("cancel"), "first message already on a rail");
    let done = engine.drain().expect("drain");
    assert_eq!(done.len(), 3, "cancelled message never completes");
    assert!(done.iter().all(|c| c.id != ids[2]));
    assert_eq!(engine.stats().cancelled, 1);
    // Waiting on the cancelled id errors out cleanly.
    assert!(matches!(engine.wait(ids[2]), Err(nm_core::EngineError::UnknownMessage(_))));
}

#[test]
fn cancelling_an_inflight_message_releases_reserved_rail_time() {
    use nm_core::Transport;
    // Single rail: the second message's chunk is submitted behind the
    // first and has not started moving — cancel must retract it and give
    // the reserved rail time back.
    let mut engine = paper_engine_kind(StrategyKind::SingleRail(Some(RailId(0))));
    let first = engine.post_send(4 * MIB).expect("post");
    let busy_after_first = engine.transport().rail_busy_until(RailId(0));
    let second = engine.post_send(4 * MIB).expect("post");
    assert!(
        engine.transport().rail_busy_until(RailId(0)) > busy_after_first,
        "second message reserves rail time"
    );
    assert!(engine.cancel(second).expect("cancel"), "unstarted transfer is retractable");
    assert_eq!(
        engine.transport().rail_busy_until(RailId(0)),
        busy_after_first,
        "cancel must release the reserved rail time"
    );
    let done = engine.drain().expect("drain");
    assert_eq!(done.len(), 1, "only the first message completes");
    assert_eq!(done[0].id, first);
    assert_eq!(engine.stats().cancelled, 1);
    assert!(matches!(engine.wait(second), Err(nm_core::EngineError::UnknownMessage(_))));
}

#[test]
fn multicore_eager_beats_single_rail_for_medium_messages() {
    let single = nm_tests::one_way_us(StrategyKind::SingleRail(None), 64 * KIB);
    let multi = nm_tests::one_way_us(StrategyKind::MulticoreEager, 64 * KIB);
    assert!(
        multi < single * 0.75,
        "multicore {multi:.1}us should be >25% under single {single:.1}us"
    );
}

#[test]
fn multicore_eager_matches_single_rail_for_tiny_messages() {
    let single = nm_tests::one_way_us(StrategyKind::SingleRail(None), 256);
    let multi = nm_tests::one_way_us(StrategyKind::MulticoreEager, 256);
    assert!((multi - single).abs() < 0.5, "tiny: multi {multi:.2} vs single {single:.2}");
}
