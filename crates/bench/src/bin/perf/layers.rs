//! Direct timed calls into single layers, on a workload's own inputs, for the
//! layers the spans of the traced pass cannot see from outside.

use crate::harness::{scaled, time_ns};
use crate::metrics::Report;
use bytes::Bytes;
use nm_core::driver::cluster::SimCluster;
use nm_core::engine::Engine;
use nm_core::replicated::{CounterKind, EngineOp, SharedDecisionState};
use nm_core::strategy::StrategyKind;
use nm_faults::FaultSchedule;
use nm_model::TransferMode;
use nm_proto::aggregate::{AggEntry, Aggregator};
use nm_proto::{crc32c, Packet, PacketHeader, PacketKind};
use nm_sampler::{sample_rail, SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, EventQueue, NodeId, RailId, SendSpec, Simulator};
use std::hint::black_box;

/// `sampler.*`: one rail's sampling campaign, and the ping-pongs a whole
/// predictor costs (natural and forced-eager profile per rail).
pub fn sampler(report: &mut Report, spec: &ClusterSpec) {
    let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
    let eager = SamplingConfig { mode: Some(TransferMode::Eager), ..cfg.clone() };
    let mut transport = SimTransport::new(spec.clone());
    let ns = time_ns(3, || {
        black_box(sample_rail(&mut transport, 0, &cfg).expect("sampling"));
    });
    report.set("sampler.sample_rail_us", ns / 1e3, 15);
    let mut transport = SimTransport::new(spec.clone());
    for rail in 0..spec.rail_count() {
        black_box(sample_rail(&mut transport, rail, &cfg).expect("sampling"));
        black_box(sample_rail(&mut transport, rail, &eager).expect("sampling"));
    }
    report.set("sampler.pingpongs", transport.measurement_count() as f64, 1);
}

/// `model.predict_ns`: one `PerfProfile::predict_us` on each of `sizes`.
pub fn model(report: &mut Report, spec: &ClusterSpec, sizes: &[u64]) {
    let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
    let profile = sample_rail(&mut SimTransport::new(spec.clone()), 0, &cfg).expect("sampling");
    let ns = time_ns(2_000, || {
        for &s in sizes {
            black_box(profile.predict_us(black_box(s)));
        }
    });
    report.set("model.predict_ns", ns / sizes.len() as f64, 10_000);
}

/// `sim.events_per_s` and `sim.event_queue_ops_per_s`: the simulator alone
/// on the workload's transfer mix, and its calendar queue alone.
// nm-analyzer: allow(determinism-taint) -- host time of the simulator itself; the events
// it produces are only counted
pub fn sim(report: &mut Report, spec: &ClusterSpec, sizes: &[u64]) {
    let rounds = scaled(200);
    let mut events = 0u64;
    let t = std::time::Instant::now();
    let mut simulator = Simulator::new(spec.clone());
    for _ in 0..rounds {
        for (i, &size) in sizes.iter().enumerate() {
            simulator.submit(SendSpec::simple(NodeId(0), NodeId(1), RailId(i % 2), size));
        }
        events += simulator.run_until_idle().len() as u64;
    }
    let secs = t.elapsed().as_secs_f64();
    report.set("sim.events_per_s", events as f64 / secs, events);

    let queue_ops = scaled(1 << 16) as u64;
    let ns = time_ns(3, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..queue_ops {
            // A scrambled but fixed arrival order.
            q.push(nm_model::SimTime::from_nanos(i.wrapping_mul(0x9e37_79b9) % 1_000_003), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
    report.set("sim.event_queue_ops_per_s", 2.0 * queue_ops as f64 / (ns / 1e9), 10 * queue_ops);
}

/// `proto.encode_ns_per_kib`, `proto.crc32c_mib_per_s` and
/// `proto.aggregate_flush_ns_per_entry`: the send-side protocol work, which
/// happens inside `Engine::post_*` where no span reaches.
pub fn proto_send(report: &mut Report, payloads: &[Bytes]) {
    let kib: f64 = payloads.iter().map(|p| p.len() as f64 / 1024.0).sum();
    let header = |len: usize| PacketHeader {
        kind: PacketKind::Eager,
        flow: 0,
        msg_id: 0,
        offset: 0,
        total_len: len as u64,
        chunk_index: 0,
        payload_len: 0,
    };
    let ns = time_ns(5, || {
        for p in payloads {
            black_box(Packet::new(header(p.len()), p.clone()).with_integrity(true).encode());
        }
    });
    report.set("proto.encode_ns_per_kib", ns / kib, 25);
    let ns = time_ns(5, || {
        for p in payloads {
            black_box(crc32c(p));
        }
    });
    report.set("proto.crc32c_mib_per_s", kib / 1024.0 / (ns / 1e9), 25);

    const ENTRIES: usize = 16;
    let small = payloads.iter().min_by_key(|p| p.len()).expect("payloads");
    let entry = small.slice(..small.len().min(1024));
    let ns = time_ns(200, || {
        let mut agg = Aggregator::new(ENTRIES * (entry.len() + 64));
        for i in 0..ENTRIES {
            agg.push(AggEntry { flow: 0, msg_id: i as u64, data: entry.clone() });
        }
        black_box(agg.flush(0));
    });
    report.set("proto.aggregate_flush_ns_per_entry", ns / ENTRIES as f64, 1_000);
}

/// `faults.*`: compiling a schedule into its transition timeline.
pub fn faults(report: &mut Report, schedule: &FaultSchedule) {
    report.set("faults.transitions", schedule.transitions().len() as f64, 1);
    let ns = time_ns(200, || {
        schedule.validate().expect("valid schedule");
        black_box(schedule.transitions());
    });
    report.set("faults.compile_us", ns / 1e3, 1_000);
}

/// `replog.read_ns`: a replica catching up on one batch of published ops,
/// then reading.
pub fn replog(report: &mut Report) {
    let shared = SharedDecisionState::new(2);
    let mut reader = shared.reader();
    let ns = time_ns(2_000, || {
        shared.publish_batch(&[
            EngineOp::Feedback { rail: 0, ewma_ratio: 1.01 },
            EngineOp::Counter { kind: CounterKind::FeedbackRecords, delta: 1 },
        ]);
        black_box(reader.read().epoch());
    });
    report.set("replog.read_ns", ns, 10_000);
}

/// Host ns per message of a lone `PairDriver` engine on `sizes` (post, wait,
/// one at a time): the base of `collectives.runner_overhead_ratio`.
pub fn lone_pair_ns_per_msg(spec: &ClusterSpec, sizes: &[u64]) -> f64 {
    let cluster = SimCluster::new(spec.clone());
    let predictor = nm_collectives::ProfileBank::new(spec.clone()).predictor_for_pair(0, 1);
    let mut engine = Engine::new(
        cluster.pair_driver(NodeId(0), NodeId(1)),
        predictor,
        StrategyKind::HeteroSplit.build(),
    )
    .expect("engine");
    let ns = time_ns(200, || {
        for &s in sizes {
            let id = engine.post_send(s).expect("post");
            black_box(engine.wait(id).expect("wait"));
        }
    });
    ns / sizes.len() as f64
}
