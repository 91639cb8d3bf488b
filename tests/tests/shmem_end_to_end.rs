//! Real-thread end-to-end tests: the engine drives the shared-memory
//! driver, real bytes move through throttled rails, and what arrives is
//! byte-compared with what was sent.

use bytes::Bytes;
use nm_core::driver::shmem::ShmemDriver;
use nm_core::duplex::{self, DuplexConfig};
use nm_core::prelude::*;
use nm_core::strategy::StrategyKind;

fn payload(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect::<Vec<u8>>(),
    )
}

fn shmem_session(kind: StrategyKind) -> Session {
    // Coarse sampling keeps wall-clock test time low.
    let sampling = nm_sampler::SamplingConfig {
        min_size: 1024,
        max_size: 256 * 1024,
        iters: 1,
        warmup: 0,
        ..Default::default()
    };
    Session::builder().strategy(kind).sampling(sampling).build_shmem(ShmemDriver::two_rail_demo())
}

#[test]
fn payloads_survive_hetero_splitting_across_real_threads() {
    let mut session = shmem_session(StrategyKind::HeteroSplit);
    let sizes = [10_000usize, 400_000, 3_000];
    let ids: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| session.post_send_bytes(payload(len, i as u8)))
        .collect();
    for id in ids {
        let done = session.wait(id);
        assert!(done.duration.as_micros_f64() > 0.0);
    }
    // Completion accounting only: a raw session has no receive side. The
    // bytes themselves are compared in the two tests below.
    assert_eq!(session.stats().bytes_completed, sizes.iter().map(|&s| s as u64).sum::<u64>());
}

#[test]
fn every_strategy_runs_on_real_threads() {
    for kind in [
        StrategyKind::SingleRail(None),
        StrategyKind::GreedyBalance,
        StrategyKind::IsoSplit,
        StrategyKind::HeteroSplit,
        StrategyKind::Aggregation,
        StrategyKind::MulticoreEager,
    ] {
        let (mut a, mut b) = duplex::pair(DuplexConfig { strategy: kind, ..Default::default() });
        // One flow, so `recv` must hand the messages over in send order —
        // split, aggregated or PIO-copied by an offload core alike.
        let sent: Vec<Bytes> = (0..3).map(|i| payload(20_000 + i * 1000, i as u8)).collect();
        for msg in &sent {
            a.send(0, msg.clone());
        }
        // A send the strategy deferred (rail busy, pack still open) leaves
        // only when the sending engine is polled: drive it to completion.
        a.flush();
        for (i, msg) in sent.iter().enumerate() {
            let (_, got) = b.recv(std::time::Duration::from_secs(10)).expect("message arrives");
            assert_eq!(&got, msg, "{kind:?}: message {i}");
        }
        assert_eq!(a.engine().stats().msgs_completed, 3, "{kind:?}");
        assert_eq!(b.corrupt_received(), 0, "{kind:?}");
    }
}

#[test]
fn driver_integrity_counters_stay_clean() {
    use nm_core::transport::{ChunkSubmit, Transport, TransportEvent};
    use nm_sim::RailId;
    let mut driver = ShmemDriver::two_rail_demo();
    let deliveries = driver.take_delivery_receiver().expect("fresh driver");
    let n = 16;
    let mut sent: [Vec<Bytes>; 2] = Default::default();
    for i in 0..n {
        let rail = i % 2;
        let mut c = ChunkSubmit::new(RailId(rail), 8192);
        c.payload = Some(payload(8192, i as u8));
        sent[rail].extend(c.payload.clone());
        driver.submit(c);
    }
    let mut delivered = 0;
    while delivered < n {
        for ev in driver.poll() {
            if matches!(ev, TransportEvent::ChunkDelivered { .. }) {
                delivered += 1;
            }
        }
    }
    // A payload is forwarded before its `ChunkDelivered` is raised: all
    // sixteen are here, each rail's in the order they were submitted to it.
    let mut got: [Vec<Bytes>; 2] = Default::default();
    for d in deliveries.try_iter() {
        got[d.rail.index()].push(d.payload);
    }
    assert_eq!(got, sent);
}
