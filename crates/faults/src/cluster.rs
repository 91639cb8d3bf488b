//! Cluster-scale fault schedules: `(node, rail)`-addressed failures — the
//! one fault model of the simulated transport.
//!
//! On an N-node cluster a physical rail fans out into one NIC port per
//! node, and failures are local: one node's Myrinet port dies while the
//! other fifteen keep using the rail. A [`ClusterFaultSchedule`] therefore
//! addresses each fault at a NIC **port** `(node, rail)`, with a node-wide
//! target (`rail: None`) covering every port at once — that is how
//! `NodeDown` is expressed: a simultaneous `RailDown` on all of the node's
//! ports, which no repair can route around and the collectives layer must
//! instead *re-plan* around. The rail-addressed two-node
//! [`FaultSchedule`](crate::FaultSchedule) is the N = 2 case: on a
//! point-to-point pair "rail 0" *is* the sender's port `(node 0, rail 0)`,
//! and that is what it lowers to.
//!
//! All eight [`FaultKind`]s apply to a port. The availability and
//! performance classes strike every transfer that touches it, as sender or
//! receiver; so do the corruption classes — a chunk crossing a corrupting,
//! duplicating or reordering port in either direction draws that port's
//! lottery (or is held by its storm).
//!
//! A schedule validates its windows (against a concrete [`ClusterSpec`],
//! since port addresses must exist), compiles to time-sorted
//! [`ClusterTransition`]s, and drives a [`ClusterFaultState`] whose
//! lotteries draw from one seeded RNG — `(workload, schedule)` fully
//! determines a chaos run, and an empty schedule is guaranteed inert.

use crate::schedule::{Change, FaultKind};
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// XORed into a schedule's seed to seed the lottery RNG.
pub(crate) const LOTTERY_SALT: u64 = 0x6e6d_636c_6600;

/// One scheduled cluster fault, addressed at a NIC port or a whole node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFaultSpec {
    /// Afflicted node.
    pub node: usize,
    /// Afflicted NIC port of that node; `None` strikes every port the node
    /// has (the node-down shape).
    pub rail: Option<RailId>,
    /// Onset instant (virtual time).
    pub at: SimTime,
    /// Failure model.
    pub kind: FaultKind,
}

impl ClusterFaultSpec {
    /// A fault on one NIC port.
    pub fn port(node: usize, rail: RailId, at: SimTime, kind: FaultKind) -> Self {
        ClusterFaultSpec { node, rail: Some(rail), at, kind }
    }

    /// A whole-node outage: `RailDown` on every NIC port of `node` for
    /// `duration`. While it lasts the node can neither send nor receive.
    pub fn node_down(node: usize, at: SimTime, duration: SimDuration) -> Self {
        ClusterFaultSpec { node, rail: None, at, kind: FaultKind::RailDown { duration } }
    }

    /// The NIC ports the fault expands to. A port-addressed fault names its
    /// own; only a node-wide one needs the topology to enumerate them.
    fn ports(&self, spec: Option<&ClusterSpec>) -> Vec<RailId> {
        match (self.rail, spec) {
            (Some(r), _) => vec![r],
            (None, Some(spec)) => {
                (0..spec.rail_count()).filter(|&r| spec.has_nic(self.node, r)).map(RailId).collect()
            }
            (None, None) => Vec::new(),
        }
    }

    fn overlaps(&self, other: &ClusterFaultSpec) -> bool {
        self.at < other.at + other.kind.duration() && other.at < self.at + self.kind.duration()
    }
}

/// Whether two faults occupy the same window slot of a port (the runtime
/// state tracks one open window per class per port).
fn same_class(a: &FaultKind, b: &FaultKind) -> bool {
    use FaultKind::*;
    matches!(
        (a, b),
        (RailDown { .. }, RailDown { .. })
            | (TransientLoss { .. }, TransientLoss { .. })
            | (LatencySpike { .. }, LatencySpike { .. } | BandwidthDegrade { .. })
            | (BandwidthDegrade { .. }, LatencySpike { .. } | BandwidthDegrade { .. })
            | (PayloadCorrupt { .. }, PayloadCorrupt { .. })
            | (HeaderCorrupt { .. }, HeaderCorrupt { .. })
            | (DuplicateChunk { .. }, DuplicateChunk { .. })
            | (ChunkReorderStorm { .. }, ChunkReorderStorm { .. })
    )
}

/// A state change at one instant on one NIC port, produced by compiling a
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTransition {
    /// When the change takes effect.
    pub at: SimTime,
    /// Affected node.
    pub node: usize,
    /// Affected NIC port of that node.
    pub rail: RailId,
    /// The change itself.
    pub change: Change,
}

/// A deterministic, seedable fault schedule over an N-node topology.
///
/// ```
/// use nm_faults::cluster::{ClusterFaultSchedule, ClusterFaultSpec};
/// use nm_model::{SimDuration, SimTime};
/// use nm_sim::ClusterSpec;
///
/// let spec = ClusterSpec::homogeneous(8, 4, nm_model::builtin::paper_testbed());
/// let schedule = ClusterFaultSchedule::new(42)
///     .with(ClusterFaultSpec::node_down(3, SimTime::from_micros(500), SimDuration::from_micros(10_000)));
/// schedule.validate(&spec).unwrap();
/// // Two ports on node 3 go down and come back: 4 transitions.
/// assert_eq!(schedule.transitions(&spec).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFaultSchedule {
    seed: u64,
    faults: Vec<ClusterFaultSpec>,
}

impl ClusterFaultSchedule {
    /// An empty schedule whose probabilistic draws use `seed`.
    pub fn new(seed: u64) -> Self {
        ClusterFaultSchedule { seed, faults: Vec::new() }
    }

    /// The fault-free schedule — injection hooks stay completely inert.
    pub fn empty() -> Self {
        ClusterFaultSchedule::new(0)
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, spec: ClusterFaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// The RNG seed for probabilistic fault models.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[ClusterFaultSpec] {
        &self.faults
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Checks addresses against `spec`, parameter sanity, and rejects
    /// overlapping same-class windows on one port (node-wide faults are
    /// expanded to their ports first).
    pub fn validate(&self, spec: &ClusterSpec) -> Result<(), String> {
        for f in &self.faults {
            if f.node >= spec.nodes.len() {
                return Err(format!(
                    "{} on node {}: cluster has {} nodes",
                    f.kind.label(),
                    f.node,
                    spec.nodes.len()
                ));
            }
            if let Some(r) = f.rail {
                if r.index() >= spec.rail_count() || !spec.has_nic(f.node, r.index()) {
                    return Err(format!(
                        "{} on node {}: no NIC on rail {:?}",
                        f.kind.label(),
                        f.node,
                        r
                    ));
                }
            } else if f.ports(Some(spec)).is_empty() {
                return Err(format!("node {} has no NIC ports to fault", f.node));
            }
        }
        self.validate_windows()
    }

    /// The address-independent half of [`Self::validate`]: every fault's
    /// parameters, and no two same-class windows open at once on one port.
    pub(crate) fn validate_windows(&self) -> Result<(), String> {
        for f in &self.faults {
            let label = f.kind.label();
            if f.kind.duration() <= SimDuration::ZERO {
                return Err(format!("{label} on node {}: duration must be positive", f.node));
            }
            match f.kind {
                FaultKind::RailDown { .. } | FaultKind::ChunkReorderStorm { .. } => {}
                FaultKind::TransientLoss { prob, .. }
                | FaultKind::PayloadCorrupt { prob, .. }
                | FaultKind::HeaderCorrupt { prob, .. }
                | FaultKind::DuplicateChunk { prob, .. } => {
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("{label} prob {prob} outside [0, 1]"));
                    }
                }
                FaultKind::LatencySpike { extra, .. } => {
                    if extra <= SimDuration::ZERO {
                        return Err("latency-spike extra latency must be positive".into());
                    }
                }
                FaultKind::BandwidthDegrade { factor, .. } => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(format!("bandwidth-degrade factor {factor} outside (0, 1]"));
                    }
                }
            }
        }
        for (i, a) in self.faults.iter().enumerate() {
            for b in &self.faults[i + 1..] {
                // A node-wide fault covers every port its node has, so on
                // one node only two different named ports are disjoint.
                let shared_port = a.rail.is_none() || b.rail.is_none() || a.rail == b.rail;
                if a.node == b.node && shared_port && same_class(&a.kind, &b.kind) && a.overlaps(b)
                {
                    return Err(format!(
                        "overlapping {} windows on node {} (at {} and {})",
                        a.kind.label(),
                        a.node,
                        a.at,
                        b.at
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compiles the schedule into a time-sorted per-port transition list.
    /// Ties are broken by (node, rail, end-before-begin) so a back-to-back
    /// window on one port closes before the next opens.
    pub fn transitions(&self, spec: &ClusterSpec) -> Vec<ClusterTransition> {
        self.compile(Some(spec))
    }

    /// [`Self::transitions`]; `spec` is only needed to expand node-wide
    /// faults.
    pub(crate) fn compile(&self, spec: Option<&ClusterSpec>) -> Vec<ClusterTransition> {
        let mut out = Vec::with_capacity(self.faults.len() * 2);
        for f in &self.faults {
            let end_at = f.at + f.kind.duration();
            let (begin, end) = match f.kind {
                FaultKind::RailDown { .. } => (Change::DownBegin, Change::DownEnd),
                FaultKind::TransientLoss { prob, .. } => {
                    (Change::LossBegin { prob }, Change::LossEnd)
                }
                FaultKind::LatencySpike { extra, .. } => {
                    (Change::ShapeBegin { time_scale: 1.0, extra_latency: extra }, Change::ShapeEnd)
                }
                FaultKind::BandwidthDegrade { factor, .. } => (
                    Change::ShapeBegin {
                        time_scale: 1.0 / factor,
                        extra_latency: SimDuration::ZERO,
                    },
                    Change::ShapeEnd,
                ),
                FaultKind::PayloadCorrupt { prob, .. } => (
                    Change::CorruptBegin { prob, header: false },
                    Change::CorruptEnd { header: false },
                ),
                FaultKind::HeaderCorrupt { prob, .. } => (
                    Change::CorruptBegin { prob, header: true },
                    Change::CorruptEnd { header: true },
                ),
                FaultKind::DuplicateChunk { prob, .. } => {
                    (Change::DupBegin { prob }, Change::DupEnd)
                }
                FaultKind::ChunkReorderStorm { .. } => (Change::ReorderBegin, Change::ReorderEnd),
            };
            for port in f.ports(spec) {
                out.push(ClusterTransition { at: f.at, node: f.node, rail: port, change: begin });
                out.push(ClusterTransition { at: end_at, node: f.node, rail: port, change: end });
            }
        }
        out.sort_by_key(|t| {
            let is_begin = matches!(
                t.change,
                Change::DownBegin
                    | Change::LossBegin { .. }
                    | Change::ShapeBegin { .. }
                    | Change::CorruptBegin { .. }
                    | Change::DupBegin { .. }
                    | Change::ReorderBegin
            );
            (t.at, t.node, t.rail.index(), is_begin)
        });
        out
    }
}

/// The windows of one NIC port.
#[derive(Debug, Clone, PartialEq)]
struct Port {
    /// Whether the node has a NIC here at all (node-down queries must not
    /// count absent ports as up).
    present: bool,
    down: bool,
    loss: Option<f64>,
    /// Mirrored for introspection; the effect lives in the simulator's
    /// per-NIC shaping table (`Simulator::set_nic_fault`).
    shape: (f64, SimDuration),
    corrupt_header: Option<f64>,
    corrupt_payload: Option<f64>,
    dup: Option<f64>,
    reorder: bool,
}

impl Port {
    fn healthy(present: bool) -> Self {
        Port {
            present,
            down: false,
            loss: None,
            shape: (1.0, SimDuration::ZERO),
            corrupt_header: None,
            corrupt_payload: None,
            dup: None,
            reorder: false,
        }
    }
}

/// What one port's lotteries decided about one submission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Draw {
    /// The chunk is lost: the send side completes, delivery never does.
    pub drop: bool,
    /// The chunk's header bytes are damaged in flight.
    pub corrupt_header: bool,
    /// The chunk's payload bytes are damaged in flight.
    pub corrupt_payload: bool,
    /// The chunk is delivered twice.
    pub duplicate: bool,
}

/// Open fault windows per NIC port, plus the deterministic lottery RNG.
#[derive(Debug)]
pub struct ClusterFaultState {
    /// `ports[node][rail]`.
    ports: Vec<Vec<Port>>,
    rng: StdRng,
}

impl ClusterFaultState {
    /// All-healthy state for `spec`, drawing from `seed`.
    pub fn new(spec: &ClusterSpec, seed: u64) -> Self {
        let rails = spec.rail_count();
        let ports = (0..spec.nodes.len())
            .map(|n| (0..rails).map(|r| Port::healthy(spec.has_nic(n, r))).collect())
            .collect();
        ClusterFaultState { ports, rng: StdRng::seed_from_u64(seed ^ LOTTERY_SALT) }
    }

    /// Applies one transition.
    pub fn apply(&mut self, t: &ClusterTransition) {
        let p = &mut self.ports[t.node][t.rail.index()];
        match t.change {
            Change::DownBegin => p.down = true,
            Change::DownEnd => p.down = false,
            Change::LossBegin { prob } => p.loss = Some(prob),
            Change::LossEnd => p.loss = None,
            Change::ShapeBegin { time_scale, extra_latency } => {
                p.shape = (time_scale, extra_latency)
            }
            Change::ShapeEnd => p.shape = (1.0, SimDuration::ZERO),
            Change::CorruptBegin { prob, header: true } => p.corrupt_header = Some(prob),
            Change::CorruptBegin { prob, header: false } => p.corrupt_payload = Some(prob),
            Change::CorruptEnd { header: true } => p.corrupt_header = None,
            Change::CorruptEnd { header: false } => p.corrupt_payload = None,
            Change::DupBegin { prob } => p.dup = Some(prob),
            Change::DupEnd => p.dup = None,
            Change::ReorderBegin => p.reorder = true,
            Change::ReorderEnd => p.reorder = false,
        }
    }

    /// True while the port `(node, rail)` is hard-down.
    pub fn is_down(&self, node: usize, rail: RailId) -> bool {
        self.ports[node][rail.index()].down
    }

    /// True while *every* NIC port of `node` is down — the node can neither
    /// send nor receive and counts as dead for DAG repair.
    pub fn node_is_down(&self, node: usize) -> bool {
        let mut present = self.ports[node].iter().filter(|p| p.present).peekable();
        present.peek().is_some() && present.all(|p| p.down)
    }

    /// Draws one port's lotteries for one submission, in the fixed order
    /// loss, header corruption, payload corruption, duplication. Each draw
    /// consumes randomness only while its window is open, so fault-free
    /// ports never perturb the stream.
    pub fn draw(&mut self, node: usize, rail: RailId) -> Draw {
        let p = &self.ports[node][rail.index()];
        let windows = [p.loss, p.corrupt_header, p.corrupt_payload, p.dup];
        let [drop, corrupt_header, corrupt_payload, duplicate] =
            windows.map(|w| w.is_some_and(|prob| self.rng.random_range(0.0..1.0) < prob));
        Draw { drop, corrupt_header, corrupt_payload, duplicate }
    }

    /// True while a reorder storm holds the port's deliveries.
    pub fn reorder_active(&self, node: usize, rail: RailId) -> bool {
        self.ports[node][rail.index()].reorder
    }

    /// Current `(time_scale, extra_latency)` shaping of a port
    /// (`(1.0, ZERO)` = nominal).
    pub fn shaping(&self, node: usize, rail: RailId) -> (f64, SimDuration) {
        self.ports[node][rail.index()].shape
    }

    /// True when any window is open on any port.
    pub fn any_active(&self) -> bool {
        self.ports.iter().flatten().any(|p| *p != Port::healthy(p.present))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::builtin;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }
    fn spec(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, 4, builtin::paper_testbed())
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = ClusterFaultSchedule::empty();
        assert!(s.is_empty());
        assert!(s.validate(&spec(8)).is_ok());
        assert!(s.transitions(&spec(8)).is_empty());
        assert!(!ClusterFaultState::new(&spec(8), 0).any_active());
    }

    #[test]
    fn node_down_expands_to_every_nic_port() {
        let sp = spec(4);
        let s = ClusterFaultSchedule::new(1).with(ClusterFaultSpec::node_down(2, t(100), d(50)));
        s.validate(&sp).unwrap();
        let ts = s.transitions(&sp);
        // paper_testbed has 2 rails: 2 ports x (begin + end).
        assert_eq!(ts.len(), 4);
        assert!(ts.iter().all(|tr| tr.node == 2));

        let mut state = ClusterFaultState::new(&sp, 1);
        for tr in ts.iter().filter(|tr| tr.change == Change::DownBegin) {
            state.apply(tr);
        }
        assert!(state.node_is_down(2));
        assert!(!state.node_is_down(1));
        assert!(state.is_down(2, RailId(0)));
        assert!(state.is_down(2, RailId(1)));
    }

    #[test]
    fn one_downed_port_does_not_kill_the_node() {
        let sp = spec(4);
        let s = ClusterFaultSchedule::new(1).with(ClusterFaultSpec::port(
            1,
            RailId(0),
            t(0),
            FaultKind::RailDown { duration: d(10) },
        ));
        s.validate(&sp).unwrap();
        let mut state = ClusterFaultState::new(&sp, 1);
        for tr in s.transitions(&sp).iter().filter(|tr| tr.change == Change::DownBegin) {
            state.apply(tr);
        }
        assert!(state.is_down(1, RailId(0)));
        assert!(!state.is_down(1, RailId(1)));
        assert!(!state.node_is_down(1), "one live port keeps the node up");
    }

    #[test]
    fn validation_rejects_bad_addresses_and_parameters() {
        let sp = spec(4);
        let bad_node =
            ClusterFaultSchedule::new(0).with(ClusterFaultSpec::node_down(9, t(0), d(1)));
        assert!(bad_node.validate(&sp).is_err());

        let bad_rail = ClusterFaultSchedule::new(0).with(ClusterFaultSpec::port(
            0,
            RailId(7),
            t(0),
            FaultKind::RailDown { duration: d(1) },
        ));
        assert!(bad_rail.validate(&sp).is_err());

        // Every kind is addressable at a port; its parameters are bounded.
        let on_port = |kind| {
            ClusterFaultSchedule::new(0)
                .with(ClusterFaultSpec::port(0, RailId(0), t(0), kind))
                .validate(&sp)
        };
        assert!(on_port(FaultKind::PayloadCorrupt { prob: 0.5, duration: d(1) }).is_ok());
        assert!(on_port(FaultKind::HeaderCorrupt { prob: 1.0, duration: d(1) }).is_ok());
        assert!(on_port(FaultKind::DuplicateChunk { prob: 0.0, duration: d(1) }).is_ok());
        assert!(on_port(FaultKind::ChunkReorderStorm { duration: d(1) }).is_ok());
        let err = on_port(FaultKind::PayloadCorrupt { prob: -0.1, duration: d(1) }).unwrap_err();
        assert!(err.contains("payload-corrupt prob"), "{err}");
        assert!(on_port(FaultKind::HeaderCorrupt { prob: 2.0, duration: d(1) }).is_err());
        assert!(on_port(FaultKind::DuplicateChunk { prob: 1.01, duration: d(1) }).is_err());
        assert!(on_port(FaultKind::TransientLoss { prob: f64::NAN, duration: d(1) }).is_err());
        assert!(on_port(FaultKind::ChunkReorderStorm { duration: SimDuration::ZERO }).is_err());

        // A port the node does not have.
        let mut partial = sp.clone();
        partial.nodes[3].rails = Some(vec![1]);
        let absent = ClusterFaultSchedule::new(0).with(ClusterFaultSpec::port(
            3,
            RailId(0),
            t(0),
            FaultKind::RailDown { duration: d(1) },
        ));
        assert!(absent.validate(&partial).is_err());
    }

    #[test]
    fn overlap_is_rejected_per_port_across_node_wide_targets() {
        let sp = spec(4);
        // Node-wide down overlapping a port-down on the same node: the
        // expanded port sets intersect.
        let s = ClusterFaultSchedule::new(0)
            .with(ClusterFaultSpec::node_down(1, t(0), d(100)))
            .with(ClusterFaultSpec::port(
                1,
                RailId(1),
                t(50),
                FaultKind::RailDown { duration: d(100) },
            ));
        assert!(s.validate(&sp).is_err());
        // Same two windows on different nodes are fine.
        let disjoint = ClusterFaultSchedule::new(0)
            .with(ClusterFaultSpec::node_down(1, t(0), d(100)))
            .with(ClusterFaultSpec::port(
                2,
                RailId(1),
                t(50),
                FaultKind::RailDown { duration: d(100) },
            ));
        assert!(disjoint.validate(&sp).is_ok());
    }

    #[test]
    fn transitions_sort_ends_before_begins_per_port() {
        let sp = spec(2);
        let s = ClusterFaultSchedule::new(0)
            .with(ClusterFaultSpec::port(
                0,
                RailId(0),
                t(100),
                FaultKind::RailDown { duration: d(50) },
            ))
            .with(ClusterFaultSpec::port(
                0,
                RailId(0),
                t(150),
                FaultKind::RailDown { duration: d(10) },
            ));
        s.validate(&sp).unwrap();
        let ts = s.transitions(&sp);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[1].at, t(150));
        assert_eq!(ts[1].change, Change::DownEnd);
        assert_eq!(ts[2].at, t(150));
        assert_eq!(ts[2].change, Change::DownBegin);
    }

    #[test]
    fn shaping_faults_compile_to_per_port_shape_changes() {
        let sp = spec(2);
        let s = ClusterFaultSchedule::new(0)
            .with(ClusterFaultSpec::port(
                1,
                RailId(0),
                t(0),
                FaultKind::BandwidthDegrade { factor: 0.25, duration: d(10) },
            ))
            .with(ClusterFaultSpec::port(
                0,
                RailId(1),
                t(0),
                FaultKind::LatencySpike { extra: d(500), duration: d(10) },
            ));
        s.validate(&sp).unwrap();
        let ts = s.transitions(&sp);
        let mut state = ClusterFaultState::new(&sp, 0);
        for tr in &ts {
            if matches!(tr.change, Change::ShapeBegin { .. }) {
                state.apply(tr);
            }
        }
        assert_eq!(state.shaping(1, RailId(0)), (4.0, SimDuration::ZERO));
        assert_eq!(state.shaping(0, RailId(1)), (1.0, d(500)));
        assert_eq!(state.shaping(0, RailId(0)), (1.0, SimDuration::ZERO));
    }

    #[test]
    fn loss_lotteries_are_deterministic_and_lazy() {
        let sp = spec(2);
        let draw = |seed: u64| {
            let mut s = ClusterFaultState::new(&sp, seed);
            s.apply(&ClusterTransition {
                at: SimTime::ZERO,
                node: 0,
                rail: RailId(0),
                change: Change::LossBegin { prob: 0.5 },
            });
            (0..64).map(|_| s.draw(0, RailId(0)).drop).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3), "same seed, same lottery");
        assert_ne!(draw(3), draw(4), "different seeds diverge");

        // Closed windows never draw: the stream stays aligned.
        let mut a = ClusterFaultState::new(&sp, 9);
        for _ in 0..100 {
            assert_eq!(a.draw(1, RailId(1)), Draw::default());
        }
        let mut b = ClusterFaultState::new(&sp, 9);
        let open = ClusterTransition {
            at: SimTime::ZERO,
            node: 0,
            rail: RailId(0),
            change: Change::LossBegin { prob: 0.5 },
        };
        a.apply(&open);
        b.apply(&open);
        assert_eq!(a.draw(0, RailId(0)), b.draw(0, RailId(0)));
    }

    fn at_port(node: usize, rail: usize, change: Change) -> ClusterTransition {
        ClusterTransition { at: SimTime::ZERO, node, rail: RailId(rail), change }
    }

    #[test]
    fn windows_open_and_close() {
        let mut s = ClusterFaultState::new(&spec(2), 7);
        assert!(!s.any_active());
        s.apply(&at_port(0, 0, Change::DownBegin));
        assert!(s.is_down(0, RailId(0)));
        assert!(!s.is_down(0, RailId(1)));
        assert!(!s.is_down(1, RailId(0)), "the far end of the rail is another port");
        assert!(s.any_active());
        s.apply(&at_port(0, 0, Change::DownEnd));
        assert!(!s.any_active());

        let shape = Change::ShapeBegin { time_scale: 4.0, extra_latency: d(10) };
        s.apply(&at_port(0, 1, shape));
        assert_eq!(s.shaping(0, RailId(1)), (4.0, d(10)));
        assert!(s.any_active());
        s.apply(&at_port(0, 1, Change::ShapeEnd));
        assert_eq!(s.shaping(0, RailId(1)), (1.0, SimDuration::ZERO));
        assert!(!s.any_active());
    }

    #[test]
    fn extreme_probabilities_behave() {
        let mut s = ClusterFaultState::new(&spec(2), 0);
        s.apply(&at_port(0, 0, Change::LossBegin { prob: 0.0 }));
        assert!((0..32).all(|_| !s.draw(0, RailId(0)).drop));
        s.apply(&at_port(0, 0, Change::LossBegin { prob: 1.0 }));
        assert!((0..32).all(|_| s.draw(0, RailId(0)).drop));
    }

    #[test]
    fn corruption_windows_open_and_close_independently() {
        let mut s = ClusterFaultState::new(&spec(2), 11);
        s.apply(&at_port(0, 0, Change::CorruptBegin { prob: 1.0, header: false }));
        s.apply(&at_port(0, 0, Change::DupBegin { prob: 1.0 }));
        s.apply(&at_port(0, 1, Change::ReorderBegin));
        assert!(s.any_active());
        let hit = s.draw(0, RailId(0));
        assert!(hit.corrupt_payload && hit.duplicate);
        assert!(!hit.corrupt_header, "header slot stays closed");
        assert_eq!(s.draw(0, RailId(1)), Draw::default());
        assert_eq!(s.draw(1, RailId(0)), Draw::default(), "windows are per port");
        assert!(s.reorder_active(0, RailId(1)));
        assert!(!s.reorder_active(0, RailId(0)));
        s.apply(&at_port(0, 0, Change::CorruptEnd { header: false }));
        s.apply(&at_port(0, 0, Change::DupEnd));
        s.apply(&at_port(0, 1, Change::ReorderEnd));
        assert!(!s.any_active());
        assert_eq!(s.draw(0, RailId(0)), Draw::default());

        // Header slot is separate from payload.
        s.apply(&at_port(0, 0, Change::CorruptBegin { prob: 1.0, header: true }));
        let hit = s.draw(0, RailId(0));
        assert!(hit.corrupt_header && !hit.corrupt_payload);
        s.apply(&at_port(0, 0, Change::CorruptEnd { header: true }));
        assert!(!s.any_active());
    }

    #[test]
    fn each_open_window_draws_once_in_a_fixed_order() {
        // Loss, header, payload, duplicate — the order rail-addressed
        // schedules have always drawn in. Opening all four at 0.5 must
        // consume four values per submission, the first deciding the loss.
        let open_all = |s: &mut ClusterFaultState| {
            s.apply(&at_port(0, 0, Change::LossBegin { prob: 0.5 }));
            s.apply(&at_port(0, 0, Change::CorruptBegin { prob: 0.5, header: true }));
            s.apply(&at_port(0, 0, Change::CorruptBegin { prob: 0.5, header: false }));
            s.apply(&at_port(0, 0, Change::DupBegin { prob: 0.5 }));
        };
        let mut all = ClusterFaultState::new(&spec(2), 5);
        open_all(&mut all);
        let mut loss_only = ClusterFaultState::new(&spec(2), 5);
        loss_only.apply(&at_port(0, 0, Change::LossBegin { prob: 0.5 }));
        let stream: Vec<bool> = (0..32).map(|_| loss_only.draw(0, RailId(0)).drop).collect();
        for four in stream.chunks(4) {
            let hit = all.draw(0, RailId(0));
            let drawn = [hit.drop, hit.corrupt_header, hit.corrupt_payload, hit.duplicate];
            assert_eq!(drawn[..], *four);
        }
    }
}
