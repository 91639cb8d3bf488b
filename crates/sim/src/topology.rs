//! **Network** topology: nodes, cores, rails and the switch fabric.
//!
//! The paper's testbed is two dual dual-core Opteron nodes with two rails
//! (Myri-10G + QsNetII); [`ClusterSpec::paper_testbed`] builds exactly that.
//! By default every node owns one NIC per rail and rails are independent
//! contention-free networks (only NICs and host cores are resources) —
//! that is the 2-endpoint world all paper figures run in, and it is
//! preserved bit-identically. Two generalizations extend the model to
//! N-node clusters:
//!
//! * **Per-node rail sets** ([`NodeSpec::rails`]): a heterogeneous node may
//!   have NICs on only a subset of the rails. `None` keeps the historic
//!   "every rail" meaning.
//! * **A switch backplane** ([`SwitchSpec`]): each rail optionally gets one
//!   serially-occupied crossbar resource shared by *all* node pairs, so
//!   traffic between disjoint pairs contends the way it does on a real
//!   (oversubscribed) switch. `None` models ideal point-to-point cabling —
//!   the historic behaviour.

use nm_model::{builtin, LinkModel, SimDuration};

/// Shape of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Number of cores. The paper's nodes have 4 (dual dual-core Opteron).
    pub cores: usize,
    /// Rail indices this node has a NIC on; `None` means *all* rails (the
    /// historic homogeneous meaning). Must be non-empty, sorted would be
    /// nice but is not required; out-of-range indices fail validation.
    pub rails: Option<Vec<usize>>,
}

impl NodeSpec {
    /// The paper's node: dual dual-core Opteron, 4 cores, NICs everywhere.
    pub fn dual_dual_core_opteron() -> Self {
        NodeSpec { cores: 4, rails: None }
    }

    /// A node with `cores` cores and a NIC on every rail.
    pub fn with_cores(cores: usize) -> Self {
        assert!(cores >= 1, "a node needs at least one core");
        NodeSpec { cores, rails: None }
    }

    /// Restricts the node's NICs to the given rail indices.
    pub fn on_rails(mut self, rails: Vec<usize>) -> Self {
        assert!(!rails.is_empty(), "a node needs at least one NIC");
        self.rails = Some(rails);
        self
    }

    /// Whether this node has a NIC on `rail` (given the cluster rail count).
    pub fn has_nic(&self, rail: usize) -> bool {
        match &self.rails {
            None => true,
            Some(rs) => rs.contains(&rail),
        }
    }
}

/// The shared switch backplane of one rail: a serial crossbar resource
/// every transfer on that rail crosses exactly once.
///
/// A transfer of `size` bytes occupies the backplane for
/// `port_latency_us + size / bytes_per_us` — with a backplane faster than
/// the link an uncontended transfer is never delayed (the crossing hides
/// inside the wire time), while concurrent transfers from *different* node
/// pairs queue, which no per-NIC resource can express.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSpec {
    /// Fixed port-to-port forwarding latency, in microseconds.
    pub port_latency_us: f64,
    /// Backplane throughput in bytes per microsecond (MB/s).
    pub bytes_per_us: f64,
}

impl SwitchSpec {
    /// A switch with the given port latency and backplane bandwidth.
    // nm-analyzer: allow(unit-bare) -- spec-construction boundary: the
    // fields themselves are documented µs-f64/bytes-per-µs quantities
    pub fn new(port_latency_us: f64, bytes_per_us: f64) -> Self {
        assert!(
            port_latency_us >= 0.0 && port_latency_us.is_finite(),
            "port latency must be finite and non-negative"
        );
        assert!(
            bytes_per_us > 0.0 && bytes_per_us.is_finite(),
            "backplane bandwidth must be finite and positive"
        );
        SwitchSpec { port_latency_us, bytes_per_us }
    }

    /// A backplane provisioned at `factor ×` the given link's large-message
    /// bandwidth — `factor` ≥ the concurrent-pair count approximates a
    /// non-blocking crossbar; smaller factors model oversubscription.
    pub fn provisioned(link: &LinkModel, factor: f64) -> Self {
        assert!(factor > 0.0, "provisioning factor must be positive");
        // Large-message link bandwidth from the rendezvous table: bytes/us
        // at 4 MiB, the flattest point of the curve.
        let probe = 4 * 1024 * 1024u64;
        let bw = probe as f64 / link.rdv.time_us(probe);
        SwitchSpec::new(0.5, bw * factor)
    }

    /// How long one `size`-byte crossing occupies the backplane.
    pub fn transit(&self, size: u64) -> SimDuration {
        SimDuration::from_micros_f64(self.port_latency_us + size as f64 / self.bytes_per_us)
    }
}

/// Shape and performance of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Per-node shapes. All experiments in the paper use two identical nodes.
    pub nodes: Vec<NodeSpec>,
    /// One [`LinkModel`] per rail; rail `i` connects NIC `i` of every node
    /// that has one (see [`NodeSpec::rails`]).
    pub rails: Vec<LinkModel>,
    /// Per-rail switch backplane; `None` (the default everywhere in the
    /// paper reproduction) models ideal point-to-point cabling with no
    /// cross-pair contention.
    pub switch: Option<SwitchSpec>,
}

impl ClusterSpec {
    /// Two dual dual-core Opterons joined by Myri-10G + QsNetII — the
    /// paper's evaluation platform (§IV).
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            nodes: vec![NodeSpec::dual_dual_core_opteron(); 2],
            rails: builtin::paper_testbed(),
            switch: None,
        }
    }

    /// Two nodes with `cores` cores each and the given rails.
    pub fn two_nodes(cores: usize, rails: Vec<LinkModel>) -> Self {
        ClusterSpec { nodes: vec![NodeSpec::with_cores(cores); 2], rails, switch: None }
    }

    /// `n` identical nodes with `cores` cores each and the given rails.
    pub fn homogeneous(n: usize, cores: usize, rails: Vec<LinkModel>) -> Self {
        assert!(n >= 2, "a cluster needs at least two nodes");
        ClusterSpec { nodes: vec![NodeSpec::with_cores(cores); n], rails, switch: None }
    }

    /// A heterogeneous demo cluster: `n` nodes cycling through 2/4/8-core
    /// shapes. Nodes keep NICs on every rail so all pairs stay routable;
    /// callers wanting partial rail sets use [`NodeSpec::on_rails`].
    pub fn heterogeneous(n: usize, rails: Vec<LinkModel>) -> Self {
        assert!(n >= 2, "a cluster needs at least two nodes");
        let shapes = [2usize, 4, 8];
        let nodes = (0..n).map(|i| NodeSpec::with_cores(shapes[i % shapes.len()])).collect();
        ClusterSpec { nodes, rails, switch: None }
    }

    /// Attaches a switch backplane to every rail.
    pub fn with_switch(mut self, switch: SwitchSpec) -> Self {
        self.switch = Some(switch);
        self
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.len() < 2 {
            return Err(format!("need at least 2 nodes, got {}", self.nodes.len()));
        }
        if self.rails.is_empty() {
            return Err("need at least one rail".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.cores == 0 {
                return Err(format!("node {i} has zero cores"));
            }
            if let Some(rs) = &n.rails {
                if rs.is_empty() {
                    return Err(format!("node {i} has an empty rail set"));
                }
                for &r in rs {
                    if r >= self.rails.len() {
                        return Err(format!(
                            "node {i} names rail {r}, but only {} rails exist",
                            self.rails.len()
                        ));
                    }
                }
                let mut seen = rs.clone();
                seen.sort_unstable();
                seen.dedup();
                if seen.len() != rs.len() {
                    return Err(format!("node {i} lists a rail twice"));
                }
            }
        }
        Ok(())
    }

    /// Number of rails in the cluster (a node's NIC count may be smaller —
    /// see [`NodeSpec::rails`]).
    pub fn rail_count(&self) -> usize {
        self.rails.len()
    }

    /// Whether `node` has a NIC on `rail`.
    pub fn has_nic(&self, node: usize, rail: usize) -> bool {
        self.nodes.get(node).is_some_and(|n| n.has_nic(rail))
    }

    /// Rail indices both `src` and `dst` have NICs on, in ascending order —
    /// the rails a transfer between them may use.
    pub fn common_rails(&self, src: usize, dst: usize) -> Vec<usize> {
        (0..self.rails.len()).filter(|&r| self.has_nic(src, r) && self.has_nic(dst, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let spec = ClusterSpec::paper_testbed();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.nodes.len(), 2);
        assert_eq!(spec.nodes[0].cores, 4);
        assert_eq!(spec.rail_count(), 2);
        assert_eq!(spec.rails[0].name, "myri-10g");
        assert_eq!(spec.rails[1].name, "qsnet2");
        assert!(spec.switch.is_none(), "the paper's testbed has no modeled switch");
    }

    #[test]
    fn validation_catches_degenerate_clusters() {
        let one_node = ClusterSpec {
            nodes: vec![NodeSpec::with_cores(4)],
            rails: builtin::paper_testbed(),
            switch: None,
        };
        assert!(one_node.validate().is_err());

        let no_rails =
            ClusterSpec { nodes: vec![NodeSpec::with_cores(4); 2], rails: vec![], switch: None };
        assert!(no_rails.validate().is_err());

        let zero_core = ClusterSpec {
            nodes: vec![NodeSpec { cores: 0, rails: None }, NodeSpec::with_cores(4)],
            rails: builtin::paper_testbed(),
            switch: None,
        };
        assert!(zero_core.validate().is_err());
    }

    #[test]
    fn validation_checks_rail_sets() {
        let mut spec = ClusterSpec::paper_testbed();
        spec.nodes[0].rails = Some(vec![0, 7]);
        assert!(spec.validate().unwrap_err().contains("rail 7"));

        spec.nodes[0].rails = Some(vec![]);
        assert!(spec.validate().unwrap_err().contains("empty rail set"));

        spec.nodes[0].rails = Some(vec![1, 1]);
        assert!(spec.validate().unwrap_err().contains("twice"));

        spec.nodes[0].rails = Some(vec![1]);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn common_rails_intersects_nic_sets() {
        let mut spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
        assert_eq!(spec.common_rails(0, 1), vec![0, 1]);
        spec.nodes[1].rails = Some(vec![1]);
        spec.nodes[2].rails = Some(vec![0]);
        assert_eq!(spec.common_rails(0, 1), vec![1]);
        assert_eq!(spec.common_rails(0, 2), vec![0]);
        assert_eq!(spec.common_rails(1, 2), Vec::<usize>::new());
        assert!(spec.has_nic(1, 1) && !spec.has_nic(1, 0));
    }

    #[test]
    fn heterogeneous_builder_gives_mixed_cores() {
        let spec = ClusterSpec::heterogeneous(8, builtin::paper_testbed());
        assert!(spec.validate().is_ok());
        assert_eq!(spec.nodes.len(), 8);
        let cores: Vec<usize> = spec.nodes.iter().map(|n| n.cores).collect();
        assert_eq!(cores, vec![2, 4, 8, 2, 4, 8, 2, 4]);
    }

    #[test]
    fn switch_transit_scales_with_size() {
        let sw = SwitchSpec::new(0.5, 1000.0);
        assert_eq!(sw.transit(0), SimDuration::from_micros_f64(0.5));
        let t = sw.transit(100_000).as_micros_f64();
        assert!((t - 100.5).abs() < 1e-9, "transit {t}");
        let fast = SwitchSpec::provisioned(&builtin::myri_10g(), 8.0);
        assert!(fast.transit(1024 * 1024) < builtin::myri_10g().rdv.time(1024 * 1024));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn with_cores_rejects_zero() {
        let _ = NodeSpec::with_cores(0);
    }
}
