//! Micro-benchmarks of the engine's hot paths: prediction, split
//! computation, the simulator calendar, the wire protocol, and the host
//! cost of predicting and running a collective.
//!
//! These are the operations the paper's strategy performs *per message* on
//! the critical path — they must be negligible against microsecond-scale
//! network latencies for the approach to make sense.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nm_core::predictor::{CostModel, Predictor, RailView};
use nm_core::selection::select_rails;
use nm_core::split::{dichotomy_split, equal_completion_split};
use nm_model::{PerfProfile, SimTime};
use nm_proto::aggregate::{AggEntry, Aggregator};
use nm_proto::{Packet, PacketHeader, PacketKind, Reassembler};
use nm_sim::{EventQueue, RailId};
use std::hint::black_box;

fn affine_profile(name: &str, lat: f64, bw: f64) -> PerfProfile {
    let samples = (2..=23).map(|p| (1u64 << p, lat + (1u64 << p) as f64 / bw)).collect();
    PerfProfile::from_samples(name, samples).unwrap()
}

fn affine_rail(i: usize, name: &str, lat: f64, bw: f64) -> RailView {
    RailView {
        rail: RailId(i),
        name: name.into(),
        natural: affine_profile(name, lat, bw),
        eager: affine_profile(name, lat, bw * 0.8),
        rdv_threshold: 128 * 1024,
    }
}

fn predictor() -> Predictor {
    Predictor::new(vec![affine_rail(0, "a", 2.8, 1226.8), affine_rail(1, "b", 1.6, 877.6)])
}

fn four_rail_predictor() -> Predictor {
    Predictor::new(vec![
        affine_rail(0, "a", 2.8, 1226.8),
        affine_rail(1, "b", 1.6, 877.6),
        affine_rail(2, "c", 2.0, 1500.0),
        affine_rail(3, "d", 45.0, 117.0),
    ])
}

fn bench_prediction(c: &mut Criterion) {
    let p = predictor();
    let mut g = c.benchmark_group("predict");
    g.bench_function("interpolate_one_size", |b| {
        b.iter(|| black_box(p.natural_cost().time_us(RailId(0), black_box(123_456))))
    });
    // The inverse at three depths of the table: inside the first sampled
    // segment, mid-table, and extrapolated past the last sample.
    for (depth, budget_us) in
        [("first_segment", 1.606), ("mid_table", 500.0), ("extrapolated", 5e4)]
    {
        g.bench_with_input(BenchmarkId::new("bytes_within_budget", depth), &budget_us, |b, &t| {
            b.iter(|| black_box(p.natural_cost().bytes_within(RailId(1), black_box(t))))
        });
    }
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    let p = predictor();
    let cost = p.natural_cost();
    let mut g = c.benchmark_group("split");
    for size in [64 * 1024u64, 4 << 20] {
        g.bench_with_input(BenchmarkId::new("dichotomy", size), &size, |b, &s| {
            b.iter(|| {
                black_box(dichotomy_split(
                    &cost,
                    (RailId(0), 0.0),
                    (RailId(1), 0.0),
                    black_box(s),
                    60,
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("water_filling", size), &size, |b, &s| {
            b.iter(|| {
                black_box(equal_completion_split(
                    &cost,
                    &[(RailId(0), 0.0), (RailId(1), 0.0)],
                    black_box(s),
                ))
            })
        });
        // Fig 2's case: one rail still busy, so the waits are fresh on
        // every message and no plan cache can answer.
        g.bench_with_input(BenchmarkId::new("water_filling_busy_rail", size), &size, |b, &s| {
            b.iter(|| {
                black_box(equal_completion_split(
                    &cost,
                    &[(RailId(0), 0.0), (RailId(1), black_box(300.0))],
                    black_box(s),
                ))
            })
        });
    }
    let p4 = four_rail_predictor();
    let cost4 = p4.natural_cost();
    let four_idle: Vec<(RailId, f64)> = (0..4).map(|i| (RailId(i), 0.0)).collect();
    g.bench_function("water_filling_4_rails/4194304", |b| {
        b.iter(|| black_box(equal_completion_split(&cost4, &four_idle, black_box(4 << 20))))
    });
    // Four candidates capped at two chunks: one split, two re-splits.
    g.bench_function("select_rails_capped/4194304", |b| {
        b.iter(|| black_box(select_rails(&cost4, &four_idle, black_box(4 << 20), 2)))
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("push_pop_1024", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // Heavy retraction: half the scheduled events get cancelled (an O(1)
    // generation bump each).
    g.bench_function("push_cancel_half_pop_1024", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = (0..1024u64)
                .map(|i| q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let header = PacketHeader {
        kind: PacketKind::Eager,
        flow: 3,
        msg_id: 42,
        offset: 0,
        total_len: 4096,
        chunk_index: 0,
        payload_len: 0,
    };
    let packet = Packet::new(header, bytes::Bytes::from(vec![7u8; 4096]));
    g.throughput(Throughput::Bytes(packet.wire_len() as u64));
    g.bench_function("encode_decode_4k", |b| {
        b.iter(|| {
            let mut wire = black_box(&packet).encode();
            black_box(Packet::decode(&mut wire).unwrap())
        })
    });

    g.bench_function("aggregate_pack_unpack_16x256", |b| {
        b.iter(|| {
            let mut agg = Aggregator::new(64 * 1024);
            for i in 0..16 {
                agg.push(AggEntry {
                    flow: 0,
                    msg_id: i,
                    data: bytes::Bytes::from(vec![i as u8; 256]),
                });
            }
            let pack = agg.flush(0).unwrap();
            black_box(nm_proto::unpack_aggregate(&pack).unwrap())
        })
    });

    // Zero-copy packing: flush_segments never touches payload bytes, so
    // its cost is independent of message size — compare against the
    // contiguous gather (flush) on the same 16×4 KiB batch.
    let batch: Vec<AggEntry> = (0..16)
        .map(|i| AggEntry { flow: 0, msg_id: i, data: bytes::Bytes::from(vec![i as u8; 4096]) })
        .collect();
    g.bench_function("aggregate_flush_gather_16x4k", |b| {
        b.iter(|| {
            let mut agg = Aggregator::new(256 * 1024);
            for e in &batch {
                agg.push(e.clone());
            }
            black_box(agg.flush(0).unwrap())
        })
    });
    g.bench_function("aggregate_flush_segments_16x4k", |b| {
        b.iter(|| {
            let mut agg = Aggregator::new(256 * 1024);
            for e in &batch {
                agg.push(e.clone());
            }
            black_box(agg.flush_segments(0).unwrap())
        })
    });

    g.bench_function("reassemble_1m_from_8_chunks", |b| {
        let total = 1u64 << 20;
        let chunk = bytes::Bytes::from(vec![1u8; (total / 8) as usize]);
        b.iter(|| {
            let mut r = Reassembler::new(total);
            for i in 0..8u64 {
                r.feed(i * total / 8, &chunk).unwrap();
            }
            black_box(r.into_message())
        })
    });

    // Integrity mode: the checksum alone, then encode (fused checksum and
    // copy) and decode (verify, zero-copy payload) at the framed workload's
    // three sizes.
    for size in [4usize << 10, 64 << 10, 1 << 20] {
        let payload =
            bytes::Bytes::from((0..size).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>());
        let header = PacketHeader { total_len: size as u64, ..header };
        let packet = Packet::new(header, payload.clone()).with_integrity(true);
        let wire = packet.encode();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("crc32c", size), &payload, |b, p| {
            b.iter(|| black_box(nm_proto::crc32c(black_box(p))))
        });
        g.bench_with_input(BenchmarkId::new("integrity_encode", size), &packet, |b, p| {
            b.iter(|| black_box(black_box(p).encode()))
        });
        g.bench_with_input(BenchmarkId::new("integrity_decode", size), &wire, |b, w| {
            b.iter(|| black_box(Packet::decode(&mut black_box(w).clone()).unwrap()))
        });
    }
    g.finish();
}

fn bench_sampling(c: &mut Criterion) {
    use nm_sampler::{sample_rail, SamplingConfig, SimTransport};
    use nm_sim::ClusterSpec;
    let mut g = c.benchmark_group("sampling");
    g.sample_size(20);
    g.bench_function("one_rail_full_ladder", |b| {
        let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
        b.iter(|| {
            let mut t = SimTransport::new(ClusterSpec::paper_testbed());
            black_box(sample_rail(&mut t, 0, &cfg).unwrap())
        })
    });
    g.finish();
}

/// Host cost of the collectives layer on 16 nodes: the DAG cost model on a
/// warm bank (every hop time already in the memo), and one prediction-
/// selected all-to-all on a stack that persists across iterations, as an
/// application's would (240 hops through 240 kept engines).
fn bench_collectives(c: &mut Criterion) {
    use nm_collectives::{cost, Algorithm, Collective, Collectives, ProfileBank};
    use nm_model::builtin;
    use nm_sim::ClusterSpec;
    let spec = || ClusterSpec::homogeneous(16, 4, builtin::paper_testbed());
    let mut g = c.benchmark_group("collectives");
    g.sample_size(10);
    let dag = Algorithm::AlltoallPairwise.dag(16, 16 * 1024);
    g.throughput(Throughput::Elements(dag.hops.len() as u64));
    let mut bank = ProfileBank::new(spec());
    black_box(cost::predict_dag_us(&mut bank, &dag));
    g.bench_function("predict_dag_warm/alltoall_pairwise_16x16KiB", |b| {
        b.iter(|| black_box(cost::predict_dag_us(&mut bank, black_box(&dag))))
    });
    let mut stack = Collectives::new(spec());
    g.bench_function("run/alltoall_16x16KiB", |b| {
        b.iter(|| black_box(stack.run(Collective::AllToAll, 16 * 1024).expect("run")))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_prediction,
    bench_split,
    bench_event_queue,
    bench_wire,
    bench_sampling,
    bench_collectives
);
criterion_main!(benches);
