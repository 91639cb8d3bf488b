//! Reproduction of the paper's in-text measurements (§IV-A, §III-D).

use nm_core::strategy::StrategyKind;
use nm_model::units::{KIB, MIB};
use nm_sim::{ClusterSpec, NodeId, RailId, SendSpec, Simulator};
use nm_tests::{delivered_at, paper_engine_kind};

/// §IV-A iso-split: "a 2 MB chunk of message is sent over Myri-10G in
/// approximately 1730 µs while another 2 MB chunk is sent through Quadrics
/// in 2400 µs. The Myri-10G network is thus unused for 670 µs."
#[test]
fn iso_split_chunk_times_and_idle_gap() {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed()).with_trace();
    let a = sim.submit(SendSpec::simple(NodeId(0), NodeId(1), RailId(0), 2 * MIB));
    let b = sim.submit(SendSpec::simple(NodeId(0), NodeId(1), RailId(1), 2 * MIB));
    let events = sim.run_until_idle();
    let myri_us = delivered_at(&events, a).as_micros_f64();
    let quad_us = delivered_at(&events, b).as_micros_f64();
    assert!((myri_us - 1730.0).abs() / 1730.0 < 0.10, "myri 2MB: {myri_us:.0}us");
    assert!((quad_us - 2400.0).abs() / 2400.0 < 0.10, "quadrics 2MB: {quad_us:.0}us");
    let gap = quad_us - myri_us;
    assert!((gap - 670.0).abs() < 200.0, "idle gap {gap:.0}us vs paper 670us");
}

/// §IV-A hetero-split: "a 2437 KB chunk ... through Myri-10G in 1999 µs
/// whereas a 1757 KB chunk is sent over Quadrics in 2001 µs."
#[test]
fn hetero_split_chunk_sizes_and_balance() {
    let mut engine = paper_engine_kind(StrategyKind::HeteroSplit);
    let id = engine.post_send(4 * MIB).expect("post");
    let done = engine.wait(id).expect("wait");
    assert_eq!(done.chunks.len(), 2);
    let myri_kib = done.chunks.iter().find(|c| c.0 == RailId(0)).unwrap().1 / KIB;
    let quad_kib = done.chunks.iter().find(|c| c.0 == RailId(1)).unwrap().1 / KIB;
    // Paper: 2437 / 1757 KB. Accept 5% on the split point.
    assert!(
        (myri_kib as f64 - 2437.0).abs() / 2437.0 < 0.05,
        "myri chunk {myri_kib} KiB vs paper 2437"
    );
    assert!(
        (quad_kib as f64 - 1757.0).abs() / 1757.0 < 0.05,
        "quadrics chunk {quad_kib} KiB vs paper 1757"
    );
    // Both chunk transfers end nearly together: verify by replaying the
    // layout directly on a simulator.
    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    let ids: Vec<_> = done
        .chunks
        .iter()
        .map(|&(r, b)| sim.submit(SendSpec::simple(NodeId(0), NodeId(1), r, b)))
        .collect();
    let events = sim.run_until_idle();
    let ends: Vec<f64> = ids.iter().map(|&i| delivered_at(&events, i).as_micros_f64()).collect();
    let spread = (ends[0] - ends[1]).abs();
    let max_end = ends[0].max(ends[1]);
    assert!(spread / max_end < 0.02, "chunk completions {ends:?} differ by more than 2%");
    // And the completion is within 10% of the paper's ~2000us.
    assert!((max_end - 2000.0).abs() / 2000.0 < 0.10, "completion {max_end:.0}us");
}

/// §IV-A: hetero-split's whole-message time beats iso-split's.
#[test]
fn hetero_beats_iso_on_the_4mb_message() {
    let iso = nm_tests::one_way_us(StrategyKind::IsoSplit, 4 * MIB);
    let hetero = nm_tests::one_way_us(StrategyKind::HeteroSplit, 4 * MIB);
    assert!(hetero < iso, "hetero {hetero:.0}us vs iso {iso:.0}us");
    // Paper: ~2400us -> ~2000us, a ~17% improvement. Demand >= 10%.
    assert!(1.0 - hetero / iso > 0.10, "improvement only {:.1}%", (1.0 - hetero / iso) * 100.0);
}

/// §III-D: the one offload cost the strategy charges is the paper's 3 µs to
/// an idle core. Nothing in production charges the 6 µs preemption cost (the
/// strategy offloads to idle cores only and `nm-sim` takes `offload_delay`
/// from its caller): it stays the paper's number that `table_offload`'s busy
/// row measures against.
#[test]
fn offload_constants_match_the_paper() {
    let m = nm_core::strategy::multicore::MulticoreEager::new();
    assert_eq!(m.offload_us, 3.0);
}
