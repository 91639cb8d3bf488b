//! Property-based validation of the discrete-event simulator: for random
//! workloads, resources never double-book, time never runs backwards, and
//! every transfer is delivered exactly once at a physically possible time.
//! A send drawn with an offload delay leaves its receive core to the
//! destination's pick, so both receive-core rules are exercised.

use nm_model::units::MIB;
use nm_model::{SimDuration, TransferMode};
use nm_sim::trace::TraceRecord;
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId, SendSpec, SimEvent, Simulator};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct RandomSend {
    rail: usize,
    size: u64,
    send_core: usize,
    force_eager: bool,
    offload_us: u64,
}

fn random_send() -> impl Strategy<Value = RandomSend> {
    (0usize..2, 1u64..(2 * MIB), 0usize..4, any::<bool>(), 0u64..10).prop_map(
        |(rail, size, send_core, force_eager, offload_us)| RandomSend {
            rail,
            size,
            send_core,
            force_eager,
            offload_us,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_workloads_respect_physics(sends in proptest::collection::vec(random_send(), 1..24)) {
        let mut sim = Simulator::new(ClusterSpec::paper_testbed()).with_trace();
        let submitted_at = sim.now();
        let ids: Vec<_> = sends
            .iter()
            .map(|s| {
                let mut spec = SendSpec::simple(
                    NodeId(0),
                    NodeId(1),
                    RailId(s.rail),
                    s.size,
                )
                .on_core(CoreId(s.send_core))
                .with_offload_delay(SimDuration::from_micros(s.offload_us));
                if s.force_eager {
                    spec = spec.with_mode(TransferMode::Eager);
                }
                sim.submit(spec)
            })
            .collect();

        // Time is monotone across events; every transfer delivers once.
        let mut last = nm_model::SimTime::ZERO;
        let mut deliveries: HashMap<_, u32> = HashMap::new();
        let mut delivered_at = HashMap::new();
        let mut events = Vec::new();
        while sim.step(&mut events) {
            for ev in events.drain(..) {
                let at = match ev {
                    SimEvent::RtsArrived { at, .. }
                    | SimEvent::SendDone { at, .. }
                    | SimEvent::Delivered { at, .. }
                    | SimEvent::NicIdle { at, .. }
                    | SimEvent::Wakeup { at, .. } => at,
                };
                prop_assert!(at >= last, "event time went backwards");
                last = at;
                if let SimEvent::Delivered { transfer, .. } = ev {
                    *deliveries.entry(transfer).or_insert(0) += 1;
                    delivered_at.insert(transfer, at);
                }
            }
        }
        for id in &ids {
            prop_assert_eq!(deliveries.get(id), Some(&1), "transfer {} deliveries", id);
        }

        // A transfer started when its earliest traced window began.
        let mut started_at = HashMap::new();
        for rec in sim.trace().records() {
            if let TraceRecord::NicBusy { from, transfer, .. }
            | TraceRecord::CoreBusy { from, transfer, .. } = *rec
            {
                let first = started_at.entry(transfer).or_insert(from);
                *first = (*first).min(from);
            }
        }

        // Per-transfer sanity: start >= submit (+offload), delivery after
        // start, and duration at least the uncontended one-way time.
        for (send, id) in sends.iter().zip(&ids) {
            let started = *started_at.get(id).expect("started");
            let delivered = *delivered_at.get(id).expect("delivered");
            prop_assert!(
                started >= submitted_at + SimDuration::from_micros(send.offload_us)
            );
            prop_assert!(delivered > started);
            let link = &sim.spec().rails[send.rail];
            let floor = if send.force_eager {
                link.one_way_us_in_mode(send.size, TransferMode::Eager)
            } else {
                link.one_way_us(send.size)
            }
            .get();
            let got = delivered.saturating_since(started).as_micros_f64();
            // 10ns tolerance: durations are rounded to nanoseconds.
            prop_assert!(
                got + 0.01 >= floor,
                "transfer {} faster than physics: {got} < {floor}", id
            );
        }

        // No resource double-books: per (node, resource), busy windows from
        // the trace must not overlap.
        let mut windows: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        for rec in sim.trace().records() {
            match *rec {
                TraceRecord::NicBusy { node, rail, from, to, .. } => {
                    windows
                        .entry(format!("{node}/{rail}"))
                        .or_default()
                        .push((from.as_nanos(), to.as_nanos()));
                }
                TraceRecord::CoreBusy { node, core, from, to, .. } => {
                    windows
                        .entry(format!("{node}/{core}"))
                        .or_default()
                        .push((from.as_nanos(), to.as_nanos()));
                }
                TraceRecord::Delivered { .. } => {}
            }
        }
        for (resource, mut w) in windows {
            w.sort_unstable();
            for pair in w.windows(2) {
                prop_assert!(
                    pair[0].1 <= pair[1].0,
                    "{resource} double-booked: {:?} overlaps {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// Determinism: the same workload replays to identical timings.
    #[test]
    fn simulation_is_deterministic(sends in proptest::collection::vec(random_send(), 1..12)) {
        let run = || {
            let mut sim = Simulator::new(ClusterSpec::paper_testbed());
            let ids: Vec<_> = sends
                .iter()
                .map(|s| {
                    sim.submit(
                        SendSpec::simple(NodeId(0), NodeId(1), RailId(s.rail), s.size)
                            .on_core(CoreId(s.send_core))
                            .with_offload_delay(SimDuration::from_micros(s.offload_us)),
                    )
                })
                .collect();
            let events = sim.run_until_idle();
            ids.iter().map(|&i| nm_tests::delivered_at(&events, i)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
