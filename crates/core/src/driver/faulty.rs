//! The chaos substrate: the two-node driver replaying a fault schedule.
//!
//! A [`FaultSimDriver`] is the `node 0 → node 1` slot of a `SimCore`
//! built with an [`nm_faults::FaultSchedule`]: the schedule lowers to the
//! port-addressed cluster model (rail `r` is the sender's port
//! `(node 0, r)`) and the core replays it — see [`super::cluster`] for what
//! each fault kind does to the event stream. With an **empty schedule**
//! every hook is inert, so a fault-free chaos run is bit-identical to a
//! plain [`SimDriver`](super::sim::SimDriver) run — pinned by the
//! resilience golden test in `nm-bench`.

use super::cluster::{slot_transport, SimCore};
use crate::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_faults::FaultSchedule;
use nm_model::SimTime;
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId};

/// The two-node driver with a fault schedule spliced into its event stream.
pub struct FaultSimDriver {
    core: SimCore,
}

impl FaultSimDriver {
    /// A driver over a fresh simulator for `spec`, replaying `schedule`.
    /// Panics on an invalid schedule.
    pub fn new(spec: ClusterSpec, schedule: FaultSchedule) -> Self {
        let mut core =
            SimCore::with_faults(spec, &schedule.lowered()).expect("invalid fault schedule");
        core.register(NodeId(0), NodeId(1));
        FaultSimDriver { core }
    }

    /// The paper's testbed under `schedule`.
    pub fn paper_testbed(schedule: FaultSchedule) -> Self {
        Self::new(ClusterSpec::paper_testbed(), schedule)
    }
}

// The pair registered at construction is the core's first slot.
slot_transport!(FaultSimDriver, self, self.core, self.core, 0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::sim::SimDriver;
    use bytes::Bytes;
    use nm_faults::{FaultKind, FaultSpec};
    use nm_model::units::{KIB, MIB};
    use nm_model::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    /// Polls the calendar dry; by then every chunk has been delivered,
    /// failed or found corrupt, and the fault layer must have let go of it.
    fn drain(driver: &mut FaultSimDriver) -> Vec<TransportEvent> {
        let mut all = Vec::new();
        loop {
            let evs = driver.poll();
            if evs.is_empty() {
                assert_eq!(driver.core.fault_entries(), 0, "state kept for a finished chunk");
                return all;
            }
            all.extend(evs);
        }
    }

    #[test]
    fn engines_over_the_owning_handles_can_cross_threads() {
        // Both handles own their core (no `Rc`): `admission_stress` shares
        // an `Engine<SimDriver>` between threads under a mutex.
        fn assert_send<T: Send>() {}
        assert_send::<crate::Engine<SimDriver>>();
        assert_send::<crate::Engine<FaultSimDriver>>();
    }

    #[test]
    fn empty_schedule_passes_events_through_unchanged() {
        let mut plain = SimDriver::paper_testbed();
        let mut chaos = FaultSimDriver::paper_testbed(FaultSchedule::empty());
        let p = plain.submit(ChunkSubmit::new(RailId(0), 64 * KIB));
        let c = chaos.submit(ChunkSubmit::new(RailId(0), 64 * KIB));
        assert_eq!(p, c);
        let mut plain_events = Vec::new();
        loop {
            let evs = plain.poll();
            if evs.is_empty() {
                break;
            }
            plain_events.extend(evs);
        }
        assert_eq!(drain(&mut chaos), plain_events);
    }

    #[test]
    fn submission_to_a_down_rail_fails_without_touching_the_sim() {
        let schedule = FaultSchedule::new(1).with(FaultSpec {
            rail: RailId(0),
            at: SimTime::ZERO,
            kind: FaultKind::RailDown { duration: d(1000) },
        });
        // A window scheduled at t = 0 is open from construction.
        let mut driver = FaultSimDriver::paper_testbed(schedule);
        let id = driver.submit(ChunkSubmit::new(RailId(0), 64 * KIB));
        assert!(id.0 >= 1 << 63, "rejected ids are synthetic");
        assert_eq!(driver.rail_busy_until(RailId(0)), SimTime::ZERO, "sim untouched");
        let events = driver.poll();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::ChunkFailed { chunk, .. } if *chunk == id)),
            "rejected submission must fail on the next poll: {events:?}"
        );
    }

    #[test]
    fn rail_down_onset_fails_chunks_in_flight() {
        let schedule = FaultSchedule::new(1).with(FaultSpec {
            rail: RailId(0),
            at: t(100),
            kind: FaultKind::RailDown { duration: d(10_000) },
        });
        let mut driver = FaultSimDriver::paper_testbed(schedule);
        let id = driver.submit(ChunkSubmit::new(RailId(0), 4 * MIB)); // takes ~3.5ms
        let events = drain(&mut driver);
        let failed_at = events.iter().find_map(|e| match e {
            TransportEvent::ChunkFailed { chunk, at } if *chunk == id => Some(*at),
            _ => None,
        });
        assert_eq!(failed_at, Some(t(100)), "failure strikes at the exact onset instant");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, TransportEvent::ChunkDelivered { chunk, .. } if *chunk == id)),
            "a failed chunk must not also deliver"
        );
    }

    #[test]
    fn payload_corruption_on_size_only_chunks_is_detected() {
        let schedule = FaultSchedule::new(3).with(FaultSpec {
            rail: RailId(0),
            at: SimTime::ZERO,
            kind: FaultKind::PayloadCorrupt { prob: 1.0, duration: d(1_000_000) },
        });
        let mut driver = FaultSimDriver::paper_testbed(schedule);
        let id = driver.submit(ChunkSubmit::new(RailId(0), 64 * KIB));
        let clean = driver.submit(ChunkSubmit::new(RailId(1), 64 * KIB));
        let events = drain(&mut driver);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::ChunkCorrupt { chunk, .. } if *chunk == id)),
            "size-only chunk models a NIC CRC: corruption must be detected: {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, TransportEvent::ChunkDelivered { chunk, .. } if *chunk == id)),
            "a detected-corrupt chunk must not also deliver"
        );
        assert!(
            events.iter().any(
                |e| matches!(e, TransportEvent::ChunkDelivered { chunk, .. } if *chunk == clean)
            ),
            "the other rail is untouched"
        );
    }

    #[test]
    fn framed_corruption_detection_follows_the_integrity_flag() {
        use nm_proto::{Packet, PacketHeader, PacketKind};
        let packet = |integrity: bool| {
            Packet::new(
                PacketHeader {
                    kind: PacketKind::Eager,
                    flow: 1,
                    msg_id: 1,
                    offset: 0,
                    total_len: 1024,
                    chunk_index: 0,
                    payload_len: 0,
                },
                Bytes::from(vec![0x5Au8; 1024]),
            )
            .with_integrity(integrity)
            .encode()
        };
        let run = |integrity: bool, header_fault: bool| {
            let kind = if header_fault {
                FaultKind::HeaderCorrupt { prob: 1.0, duration: d(1_000_000) }
            } else {
                FaultKind::PayloadCorrupt { prob: 1.0, duration: d(1_000_000) }
            };
            let schedule =
                FaultSchedule::new(3).with(FaultSpec { rail: RailId(0), at: SimTime::ZERO, kind });
            let mut driver = FaultSimDriver::paper_testbed(schedule);
            let mut sub = ChunkSubmit::new(RailId(0), 1024);
            sub.payload = Some(packet(integrity));
            let id = driver.submit(sub);
            let events = drain(&mut driver);
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::ChunkCorrupt { chunk, .. } if *chunk == id))
        };
        assert!(run(true, false), "integrity framing catches a payload flip");
        assert!(run(true, true), "integrity framing catches a header flip");
        assert!(!run(false, false), "legacy framing passes payload corruption silently");
    }

    #[test]
    fn duplicate_chunks_deliver_twice() {
        let schedule = FaultSchedule::new(5).with(FaultSpec {
            rail: RailId(0),
            at: SimTime::ZERO,
            kind: FaultKind::DuplicateChunk { prob: 1.0, duration: d(1_000_000) },
        });
        let mut driver = FaultSimDriver::paper_testbed(schedule);
        let id = driver.submit(ChunkSubmit::new(RailId(0), 64 * KIB));
        let events = drain(&mut driver);
        let deliveries = events
            .iter()
            .filter(|e| matches!(e, TransportEvent::ChunkDelivered { chunk, .. } if *chunk == id))
            .count();
        assert_eq!(deliveries, 2, "duplicated chunk must deliver exactly twice: {events:?}");
    }

    #[test]
    fn reorder_storm_releases_deliveries_reversed_at_window_close() {
        let schedule = FaultSchedule::new(5).with(FaultSpec {
            rail: RailId(0),
            at: SimTime::ZERO,
            kind: FaultKind::ChunkReorderStorm { duration: d(1_000_000) },
        });
        let mut driver = FaultSimDriver::paper_testbed(schedule);
        let ids: Vec<ChunkId> =
            (0..4).map(|_| driver.submit(ChunkSubmit::new(RailId(0), 4 * KIB))).collect();
        let events = drain(&mut driver);
        let delivered: Vec<(ChunkId, SimTime)> = events
            .iter()
            .filter_map(|e| match e {
                TransportEvent::ChunkDelivered { chunk, at } => Some((*chunk, *at)),
                _ => None,
            })
            .collect();
        let order: Vec<ChunkId> = delivered.iter().map(|(c, _)| *c).collect();
        let mut reversed = ids.clone();
        reversed.reverse();
        assert_eq!(order, reversed, "storm must release deliveries in reverse arrival order");
        assert!(
            delivered.iter().all(|&(_, at)| at == t(1_000_000)),
            "held deliveries are re-stamped at the window close: {delivered:?}"
        );
    }

    #[test]
    fn transient_loss_dooms_a_deterministic_subset() {
        let schedule = |seed| {
            FaultSchedule::new(seed).with(FaultSpec {
                rail: RailId(0),
                at: SimTime::ZERO,
                kind: FaultKind::TransientLoss { prob: 0.5, duration: d(1_000_000) },
            })
        };
        let run = |seed| {
            let mut driver = FaultSimDriver::paper_testbed(schedule(seed));
            let ids: Vec<ChunkId> =
                (0..16).map(|_| driver.submit(ChunkSubmit::new(RailId(0), 4 * KIB))).collect();
            let events = drain(&mut driver);
            ids.iter()
                .map(|id| {
                    events.iter().any(
                        |e| matches!(e, TransportEvent::ChunkFailed { chunk, .. } if chunk == id),
                    )
                })
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same losses");
        assert!(a.iter().any(|&x| x) && !a.iter().all(|&x| x), "p=0.5 over 16 draws");
    }
}
