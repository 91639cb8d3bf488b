//! Fault schedules: what goes wrong, where, and when.
//!
//! A [`FaultSchedule`] is a declarative list of [`FaultSpec`]s — each one a
//! rail, an onset instant and a [`FaultKind`] — for the two-node testbed,
//! where a rail *is* a location. Schedules carry the RNG seed for every
//! probabilistic model, so a chaos run is a pure function of
//! `(workload, schedule)`: replaying the same schedule reproduces the same
//! failures, retries and recoveries bit for bit.
//!
//! The schedule holds no fault logic of its own: it lowers to the
//! port-addressed [`ClusterFaultSchedule`] (rail `r` is the sender's port
//! `(node 0, r)`), which validates it, compiles it into time-sorted
//! transitions and drives the one runtime state.

use crate::cluster::{ClusterFaultSchedule, ClusterFaultSpec, ClusterTransition, LOTTERY_SALT};
use nm_model::{SimDuration, SimTime};
use nm_sim::RailId;

/// What seeded the lottery of rail-addressed schedules before they lowered
/// to the cluster model; [`FaultSchedule::lowered`] pre-mixes the seed with
/// it so every such schedule keeps drawing the stream it always drew.
const RAIL_LOTTERY_SALT: u64 = 0x6e6d_666c_7400;

/// What kind of failure strikes a rail.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The rail is hard-down: submissions fail immediately and in-flight
    /// chunks on the rail are lost at onset.
    RailDown {
        /// How long the outage lasts.
        duration: SimDuration,
    },
    /// Each chunk submitted while the window is open is independently lost
    /// with probability `prob` (send side completes; delivery never does).
    TransientLoss {
        /// Loss probability in `[0, 1]`.
        prob: f64,
        /// How long the lossy window lasts.
        duration: SimDuration,
    },
    /// Every chunk started while the window is open pays `extra` additional
    /// latency (a congested or flapping path).
    LatencySpike {
        /// Added one-way latency.
        extra: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// The rail's effective bandwidth drops to `factor` of nominal: modeled
    /// durations are stretched by `1/factor` while the window is open.
    BandwidthDegrade {
        /// Remaining bandwidth fraction in `(0, 1]`.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// Each chunk submitted while the window is open independently has its
    /// payload bytes corrupted in flight with probability `prob` (a flaky
    /// link or DMA path flipping bits past the NIC checksum).
    PayloadCorrupt {
        /// Corruption probability in `[0, 1]`.
        prob: f64,
        /// How long the corrupting window lasts.
        duration: SimDuration,
    },
    /// Each chunk submitted while the window is open independently has its
    /// *header* bytes corrupted with probability `prob` — the nastier class,
    /// since a mangled header misroutes the chunk rather than just
    /// damaging data.
    HeaderCorrupt {
        /// Corruption probability in `[0, 1]`.
        prob: f64,
        /// How long the corrupting window lasts.
        duration: SimDuration,
    },
    /// Each chunk delivered while the window is open is independently
    /// delivered *twice* with probability `prob` (a retransmit-happy link
    /// layer).
    DuplicateChunk {
        /// Duplication probability in `[0, 1]`.
        prob: f64,
        /// How long the duplicating window lasts.
        duration: SimDuration,
    },
    /// Deliveries on the rail are held while the window is open and
    /// released in *reverse* arrival order when it closes — the worst-case
    /// adversary for reassembly and per-flow sequencing.
    ChunkReorderStorm {
        /// How long deliveries are held.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// How long the fault window stays open.
    pub fn duration(&self) -> SimDuration {
        match self {
            FaultKind::RailDown { duration }
            | FaultKind::TransientLoss { duration, .. }
            | FaultKind::LatencySpike { duration, .. }
            | FaultKind::BandwidthDegrade { duration, .. }
            | FaultKind::PayloadCorrupt { duration, .. }
            | FaultKind::HeaderCorrupt { duration, .. }
            | FaultKind::DuplicateChunk { duration, .. }
            | FaultKind::ChunkReorderStorm { duration } => *duration,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::RailDown { .. } => "rail-down",
            FaultKind::TransientLoss { .. } => "transient-loss",
            FaultKind::LatencySpike { .. } => "latency-spike",
            FaultKind::BandwidthDegrade { .. } => "bandwidth-degrade",
            FaultKind::PayloadCorrupt { .. } => "payload-corrupt",
            FaultKind::HeaderCorrupt { .. } => "header-corrupt",
            FaultKind::DuplicateChunk { .. } => "duplicate-chunk",
            FaultKind::ChunkReorderStorm { .. } => "reorder-storm",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Afflicted rail.
    pub rail: RailId,
    /// Onset instant (virtual time).
    pub at: SimTime,
    /// Failure model.
    pub kind: FaultKind,
}

/// The state change carried by a [`ClusterTransition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Change {
    /// Rail goes hard-down.
    DownBegin,
    /// Rail hardware is reachable again (health layer still gates traffic).
    DownEnd,
    /// Probabilistic chunk loss starts.
    LossBegin {
        /// Loss probability in `[0, 1]`.
        prob: f64,
    },
    /// Probabilistic chunk loss ends.
    LossEnd,
    /// Duration shaping starts: modeled durations are scaled by
    /// `time_scale` and `extra_latency` is added to the one-way path.
    ShapeBegin {
        /// Multiplicative duration stretch (`1.0` = nominal).
        time_scale: f64,
        /// Additive one-way latency.
        extra_latency: SimDuration,
    },
    /// Duration shaping ends.
    ShapeEnd,
    /// Probabilistic in-flight corruption starts (`header` selects which
    /// bytes the fault mangles: header vs payload).
    CorruptBegin {
        /// Corruption probability in `[0, 1]`.
        prob: f64,
        /// True = header bytes, false = payload bytes.
        header: bool,
    },
    /// Probabilistic corruption ends.
    CorruptEnd {
        /// Which corruption slot closes (header vs payload).
        header: bool,
    },
    /// Probabilistic chunk duplication starts.
    DupBegin {
        /// Duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Probabilistic chunk duplication ends.
    DupEnd,
    /// Deliveries start being held for reversed release.
    ReorderBegin,
    /// Held deliveries are released in reverse arrival order.
    ReorderEnd,
}

/// A deterministic, seedable fault schedule.
///
/// ```
/// use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
/// use nm_model::{SimDuration, SimTime};
/// use nm_sim::RailId;
///
/// let schedule = FaultSchedule::new(42).with(FaultSpec {
///     rail: RailId(0),
///     at: SimTime::from_micros(3_000),
///     kind: FaultKind::RailDown { duration: SimDuration::from_micros(20_000) },
/// });
/// schedule.validate().unwrap();
/// let ts = schedule.transitions();
/// assert_eq!(ts.len(), 2); // DownBegin at 3ms, DownEnd at 23ms
/// assert!(ts[0].at < ts[1].at);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    faults: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// An empty schedule whose probabilistic draws use `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSchedule { seed, faults: Vec::new() }
    }

    /// The fault-free schedule — injection hooks stay completely inert.
    pub fn empty() -> Self {
        FaultSchedule::new(0)
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// The RNG seed for probabilistic fault models.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The same schedule in cluster terms: each fault strikes the sender's
    /// port `(node 0, rail)`. The seed is pre-mixed so that the cluster
    /// state's lottery draws the stream rail-addressed schedules always drew.
    pub fn lowered(&self) -> ClusterFaultSchedule {
        let seed = self.seed ^ RAIL_LOTTERY_SALT ^ LOTTERY_SALT;
        self.faults.iter().fold(ClusterFaultSchedule::new(seed), |schedule, f| {
            schedule.with(ClusterFaultSpec::port(0, f.rail, f.at, f.kind.clone()))
        })
    }

    /// Checks parameter sanity and rejects overlapping windows of the same
    /// class on one rail (the runtime state tracks one active window per
    /// class per port). Whether the rails exist is checked against the
    /// topology by the transport that replays the schedule.
    pub fn validate(&self) -> Result<(), String> {
        self.lowered().validate_windows()
    }

    /// Compiles the schedule into a time-sorted transition list. Ties are
    /// broken by (rail, end-before-begin) so a back-to-back window on one
    /// rail closes before the next opens.
    pub fn transitions(&self) -> Vec<ClusterTransition> {
        self.lowered().compile(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn empty_schedule_has_no_transitions() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert!(s.validate().is_ok());
        assert!(s.transitions().is_empty());
    }

    #[test]
    fn transitions_are_time_sorted_with_ends_before_begins() {
        let s = FaultSchedule::new(1)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(100),
                kind: FaultKind::RailDown { duration: d(50) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(150),
                kind: FaultKind::RailDown { duration: d(10) },
            });
        s.validate().unwrap();
        let ts = s.transitions();
        assert_eq!(ts.len(), 4);
        // At t=150 the first outage ends before the second begins.
        assert_eq!(ts[1].at, t(150));
        assert_eq!(ts[1].change, Change::DownEnd);
        assert_eq!(ts[2].at, t(150));
        assert_eq!(ts[2].change, Change::DownBegin);
    }

    #[test]
    fn degrade_maps_to_time_scale_and_spike_to_extra_latency() {
        let s = FaultSchedule::new(1)
            .with(FaultSpec {
                rail: RailId(1),
                at: t(0),
                kind: FaultKind::BandwidthDegrade { factor: 0.25, duration: d(10) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::LatencySpike { extra: d(500), duration: d(10) },
            });
        let ts = s.transitions();
        let shape_of = |rail: RailId| {
            ts.iter()
                .find_map(|tr| match tr.change {
                    Change::ShapeBegin { time_scale, extra_latency } if tr.rail == rail => {
                        Some((time_scale, extra_latency))
                    }
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(shape_of(RailId(1)), (4.0, SimDuration::ZERO));
        assert_eq!(shape_of(RailId(0)), (1.0, d(500)));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad = |kind| {
            FaultSchedule::new(0).with(FaultSpec { rail: RailId(0), at: t(0), kind }).validate()
        };
        assert!(bad(FaultKind::RailDown { duration: SimDuration::ZERO }).is_err());
        assert!(bad(FaultKind::TransientLoss { prob: 1.5, duration: d(10) }).is_err());
        assert!(bad(FaultKind::BandwidthDegrade { factor: 0.0, duration: d(10) }).is_err());
        assert!(bad(FaultKind::BandwidthDegrade { factor: 1.5, duration: d(10) }).is_err());
        assert!(bad(FaultKind::LatencySpike { extra: SimDuration::ZERO, duration: d(10) }).is_err());
        assert!(bad(FaultKind::PayloadCorrupt { prob: -0.1, duration: d(10) }).is_err());
        assert!(bad(FaultKind::HeaderCorrupt { prob: 2.0, duration: d(10) }).is_err());
        assert!(bad(FaultKind::DuplicateChunk { prob: 1.01, duration: d(10) }).is_err());
        assert!(bad(FaultKind::ChunkReorderStorm { duration: SimDuration::ZERO }).is_err());
    }

    #[test]
    fn corruption_class_faults_compile_to_typed_transitions() {
        let s = FaultSchedule::new(5)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(10),
                kind: FaultKind::PayloadCorrupt { prob: 0.5, duration: d(20) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(10),
                kind: FaultKind::HeaderCorrupt { prob: 0.25, duration: d(20) },
            })
            .with(FaultSpec {
                rail: RailId(1),
                at: t(15),
                kind: FaultKind::DuplicateChunk { prob: 1.0, duration: d(5) },
            })
            .with(FaultSpec {
                rail: RailId(1),
                at: t(30),
                kind: FaultKind::ChunkReorderStorm { duration: d(40) },
            });
        s.validate().unwrap();
        let ts = s.transitions();
        assert_eq!(ts.len(), 8);
        assert!(ts.iter().any(|tr| tr.change == Change::CorruptBegin { prob: 0.5, header: false }));
        assert!(ts.iter().any(|tr| tr.change == Change::CorruptBegin { prob: 0.25, header: true }));
        assert!(ts.iter().any(|tr| tr.change == Change::DupBegin { prob: 1.0 }));
        let reorder_end = ts.iter().find(|tr| tr.change == Change::ReorderEnd).unwrap();
        assert_eq!(reorder_end.at, t(70));
    }

    #[test]
    fn header_and_payload_corruption_are_distinct_classes() {
        // Overlapping payload + header windows on one rail are fine (they
        // occupy different slots) ...
        let cross = FaultSchedule::new(0)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::PayloadCorrupt { prob: 0.5, duration: d(100) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(50),
                kind: FaultKind::HeaderCorrupt { prob: 0.5, duration: d(100) },
            });
        assert!(cross.validate().is_ok());
        // ... but two payload windows overlapping are rejected.
        let same = FaultSchedule::new(0)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::PayloadCorrupt { prob: 0.5, duration: d(100) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(50),
                kind: FaultKind::PayloadCorrupt { prob: 0.1, duration: d(100) },
            });
        assert!(same.validate().is_err());
    }

    #[test]
    fn validation_rejects_same_class_overlap_on_one_rail() {
        let overlapping = FaultSchedule::new(0)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::RailDown { duration: d(100) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(50),
                kind: FaultKind::RailDown { duration: d(100) },
            });
        assert!(overlapping.validate().is_err());
        // Same windows on different rails are fine.
        let disjoint_rails = FaultSchedule::new(0)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::RailDown { duration: d(100) },
            })
            .with(FaultSpec {
                rail: RailId(1),
                at: t(50),
                kind: FaultKind::RailDown { duration: d(100) },
            });
        assert!(disjoint_rails.validate().is_ok());
        // Spike and degrade share the shaping slot: overlap rejected too.
        let shape_overlap = FaultSchedule::new(0)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::LatencySpike { extra: d(5), duration: d(100) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(50),
                kind: FaultKind::BandwidthDegrade { factor: 0.5, duration: d(100) },
            });
        assert!(shape_overlap.validate().is_err());
        // A down window overlapping a loss window is allowed (distinct classes).
        let cross_class = FaultSchedule::new(0)
            .with(FaultSpec {
                rail: RailId(0),
                at: t(0),
                kind: FaultKind::RailDown { duration: d(100) },
            })
            .with(FaultSpec {
                rail: RailId(0),
                at: t(50),
                kind: FaultKind::TransientLoss { prob: 0.5, duration: d(100) },
            });
        assert!(cross_class.validate().is_ok());
    }
}
