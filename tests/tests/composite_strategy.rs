//! The composite paper strategy must be at-or-near the best specialist in
//! every regime — that is the point of composing them.

use nm_core::driver::sim::SimDriver;
use nm_core::engine::Engine;
use nm_core::strategy::StrategyKind;
use nm_core::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_model::units::{KIB, MIB};
use nm_model::SimTime;
use nm_sim::{ClusterSpec, CoreId, RailId};
use nm_tests::{one_way_us, paper_engine_kind, sample_predictor};

#[test]
fn composite_matches_hetero_on_rendezvous_sizes() {
    for size in [MIB, 4 * MIB] {
        let hetero = one_way_us(StrategyKind::HeteroSplit, size);
        let paper = one_way_us(StrategyKind::Paper, size);
        assert!(
            (paper - hetero).abs() / hetero < 0.01,
            "size {size}: paper {paper:.0} vs hetero {hetero:.0}"
        );
    }
}

#[test]
fn composite_matches_multicore_on_medium_eager_sizes() {
    for size in [16 * KIB, 64 * KIB] {
        let multicore = one_way_us(StrategyKind::MulticoreEager, size);
        let paper = one_way_us(StrategyKind::Paper, size);
        assert!(
            (paper - multicore).abs() / multicore < 0.01,
            "size {size}: paper {paper:.0} vs multicore {multicore:.0}"
        );
    }
}

#[test]
fn composite_aggregates_small_bursts() {
    let mut engine = paper_engine_kind(StrategyKind::Paper);
    engine.post_send_batch(&[512; 8]).expect("post");
    engine.drain().expect("drain");
    let stats = engine.stats();
    assert_eq!(stats.msgs_aggregated, 8, "{stats:?}");
    assert_eq!(stats.packs_submitted, 1, "{stats:?}");
}

#[test]
fn composite_never_loses_badly_to_any_specialist() {
    // Across a size sweep the composite stays within 10% of the best
    // specialist (it IS one of them per regime, modulo dispatch boundaries).
    let specialists = [
        StrategyKind::SingleRail(None),
        StrategyKind::HeteroSplit,
        StrategyKind::MulticoreEager,
        StrategyKind::Aggregation,
    ];
    for size in [256u64, 4 * KIB, 32 * KIB, 256 * KIB, 2 * MIB] {
        let best = specialists.iter().map(|&k| one_way_us(k, size)).fold(f64::INFINITY, f64::min);
        let paper = one_way_us(StrategyKind::Paper, size);
        assert!(
            paper <= best * 1.10 + 0.5,
            "size {size}: paper {paper:.1}us vs best specialist {best:.1}us"
        );
    }
}

#[test]
fn composite_handles_a_mixed_workload_end_to_end() {
    let mut engine = paper_engine_kind(StrategyKind::Paper);
    let sizes = [128u64, 512, 8 * KIB, 64 * KIB, 2 * MIB, 300, 100 * KIB];
    engine.post_send_batch(&sizes).expect("post");
    let done = engine.drain().expect("drain");
    assert_eq!(done.len(), sizes.len());
    let stats = engine.stats();
    assert_eq!(stats.bytes_completed, sizes.iter().sum::<u64>());
    // The mixed workload exercises all three paths.
    assert!(stats.packs_submitted >= 1, "aggregation path unused: {stats:?}");
    assert!(stats.chunks_submitted > sizes.len() as u64 - 2, "split paths unused: {stats:?}");
}

/// The paper testbed's driver, recording each chunk's transmit window:
/// an eager chunk holds its NIC from the start of its PIO copy until the
/// copy ends, which is the NIC's busy-until right after the submission.
struct TxWindows {
    inner: SimDriver,
    spec: ClusterSpec,
    windows: Vec<(RailId, SimTime, SimTime)>,
}

impl Transport for TxWindows {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn rail_count(&self) -> usize {
        self.inner.rail_count()
    }
    fn rail_name(&self, rail: RailId) -> String {
        self.inner.rail_name(rail)
    }
    fn rdv_threshold(&self, rail: RailId) -> u64 {
        self.inner.rdv_threshold(rail)
    }
    fn rail_busy_until(&self, rail: RailId) -> SimTime {
        self.inner.rail_busy_until(rail)
    }
    fn core_count(&self) -> usize {
        self.inner.core_count()
    }
    fn idle_cores(&self) -> Vec<CoreId> {
        self.inner.idle_cores()
    }
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        let (rail, copy) =
            (chunk.rail, self.spec.rails[chunk.rail.index()].pio.copy_time(chunk.bytes));
        let id = self.inner.submit(chunk);
        let end = self.inner.rail_busy_until(rail);
        self.windows.push((rail, end - copy, end));
        id
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        self.inner.poll()
    }
}

/// `small_batch`'s five sizes (64 B – 16 KiB, all eager on both rails), in
/// turn, sixteen messages: one batch of the `perf` workload.
const SMALL_BATCH: [u64; 16] = [
    64,
    256,
    KIB,
    4 * KIB,
    16 * KIB,
    64,
    256,
    KIB,
    4 * KIB,
    16 * KIB,
    64,
    256,
    KIB,
    4 * KIB,
    16 * KIB,
    64,
];

/// This batch's last delivery, in sim-µs, when the composite copied every
/// pack and single-rail eager send on core 0: its three packs then copied
/// one after another (rail 1 over 0–34.8 µs, rail 0 over 34.8–53.5, rail 1
/// over 53.5–81.4), measured with this test's setup before the composite
/// offloaded them.
const ALL_ON_CORE_0_LAST_US: f64 = 89.515;

#[test]
fn a_small_batch_copies_on_both_rails_at_once() {
    let spec = ClusterSpec::paper_testbed();
    let transport =
        TxWindows { inner: SimDriver::new(spec.clone()), spec: spec.clone(), windows: Vec::new() };
    let mut engine = Engine::new(transport, sample_predictor(&spec), StrategyKind::Paper.build())
        .expect("engine");
    engine.post_send_batch(&SMALL_BATCH).expect("post batch");
    let done = engine.drain().expect("drain");
    assert_eq!(done.len(), SMALL_BATCH.len());
    let windows = &engine.transport().windows;
    let overlap = windows.iter().any(|&(r0, s0, e0)| {
        windows.iter().any(|&(r1, s1, e1)| r0 != r1 && s0.max(s1) < e0.min(e1))
    });
    assert!(overlap, "the rails never transmit at once: {windows:?}");
    let last = done.iter().map(|c| c.delivered_at).max().expect("a batch");
    assert!(
        last.as_micros_f64() <= 0.8 * ALL_ON_CORE_0_LAST_US,
        "last delivery at {last}, not 20 % before {ALL_ON_CORE_0_LAST_US} µs"
    );
    // Pinned to the nanosecond: T_O reaches the simulator through f64
    // arithmetic, which an optimised build must not move.
    assert_eq!(last.as_nanos(), 54_702, "last delivery moved");
}
