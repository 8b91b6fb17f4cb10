//! Cluster topology, CPU speed, rank placement and the OS-noise model.
//!
//! The paper's most surprising observation (§4.1, Fig. 3(b)) is that on
//! 16-way SMP nodes, *dedicating one CPU per node to an I/O server makes
//! the computation itself faster* than using all 16 CPUs for compute:
//! "many operating system related tasks go to the server processor
//! automatically, where the CPU is mostly idle." [`NoiseModel`] captures
//! that mechanism: per-node OS daemon work either lands on a spare CPU
//! (idle, or an I/O server blocked in `probe`) or steals cycles from the
//! solvers — and in a tightly synchronized parallel code the slowest node
//! sets the pace, so the penalty grows with node count.

use rocio_core::SimTime;

use crate::model::NetworkModel;

/// How the CPUs of each SMP node are used — the three configurations of
/// Fig. 3(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NodeUsage {
    /// Every CPU on the node runs a compute rank ("16NS").
    AllCompute,
    /// One CPU per node left idle ("15NS").
    SpareIdle,
    /// One CPU per node runs an I/O server that is blocked most of the
    /// time ("15S").
    SpareServer,
}

/// Per-node operating-system interference model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NoiseModel {
    /// Fraction of CPU stolen by OS daemons when no spare CPU can absorb
    /// them.
    pub daemon_load: f64,
    /// Amplification of per-node jitter by inter-node synchronization:
    /// the effective slowdown grows by this coefficient per `log2(nodes)`.
    pub sync_amplification: f64,
    /// Residual slowdown when a *server* (rather than an idle CPU) absorbs
    /// the daemons: the server does occasionally compute (drain buffers),
    /// so absorption is slightly imperfect.
    pub server_residual: f64,
}

impl NoiseModel {
    /// A noiseless machine (unit tests, ideal cluster).
    pub fn none() -> Self {
        NoiseModel {
            daemon_load: 0.0,
            sync_amplification: 0.0,
            server_residual: 0.0,
        }
    }

    /// AIX on the 16-way POWER3 nodes of Frost. Calibrated so the
    /// 16NS-vs-15NS gap starts small (~2.5% on one node) and grows
    /// visibly with node count (~7% at 32 nodes), as in Fig. 3(b): with
    /// tightly synchronized solvers the slowest node sets the pace, so
    /// per-node OS jitter is amplified roughly with log(nodes).
    pub(crate) fn aix_frost() -> Self {
        NoiseModel {
            daemon_load: 0.025,
            sync_amplification: 0.35,
            server_residual: 0.004,
        }
    }

    /// Linux on the dual-P3 Turing nodes. Shared interactive use means a
    /// higher base load, but the experiments on Turing always leave the
    /// second CPU available to the I/O thread, so this mostly affects the
    /// baseline compute time.
    pub(crate) fn linux_turing() -> Self {
        NoiseModel {
            daemon_load: 0.02,
            sync_amplification: 0.008,
            server_residual: 0.004,
        }
    }

    /// Multiplier applied to compute work for a job spanning `n_nodes`
    /// nodes with the given per-node CPU usage.
    pub(crate) fn compute_factor(&self, usage: NodeUsage, n_nodes: usize) -> f64 {
        let amplification = 1.0 + self.sync_amplification * (n_nodes.max(1) as f64).log2();
        match usage {
            NodeUsage::AllCompute => 1.0 + self.daemon_load * amplification,
            NodeUsage::SpareIdle => 1.0,
            NodeUsage::SpareServer => 1.0 + self.server_residual * amplification,
        }
    }
}

/// Static description of the machine a job runs on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterSpec {
    /// Machine name for reports ("turing", "frost", "ideal").
    pub name: String,
    /// CPUs per SMP node.
    pub cpus_per_node: usize,
    /// Effective compute rate in work-units/second per CPU. The solvers
    /// express cost in work units; the Table 1 harness calibrates this so
    /// absolute compute times land near the paper's.
    pub compute_rate: f64,
    /// Network model.
    pub net: NetworkModel,
    /// OS-noise model.
    pub noise: NoiseModel,
    /// How node CPUs are used in this run (Fig. 3(b) configurations).
    pub usage: NodeUsage,
    /// Node index of each global rank. `placement[r]` is rank `r`'s node.
    pub placement: Vec<usize>,
}

impl ClusterSpec {
    /// An ideal machine: free network, no noise, every rank on its own
    /// node. For unit tests of message semantics.
    pub fn ideal(n_ranks: usize) -> Self {
        ClusterSpec {
            name: "ideal".into(),
            cpus_per_node: 1,
            compute_rate: 1.0,
            net: NetworkModel::ideal(),
            noise: NoiseModel::none(),
            usage: NodeUsage::SpareIdle,
            placement: (0..n_ranks).collect(),
        }
    }

    /// The Turing development cluster: dual-CPU nodes, Myrinet, shared
    /// NFS. Ranks are packed two per node in rank order.
    pub fn turing(n_ranks: usize) -> Self {
        let placement = (0..n_ranks).map(|r| r / 2).collect();
        ClusterSpec {
            name: "turing".into(),
            cpus_per_node: 2,
            compute_rate: 1.0,
            net: NetworkModel::myrinet_turing(),
            noise: NoiseModel::linux_turing(),
            usage: NodeUsage::SpareIdle,
            placement,
        }
    }

    /// ASCI Frost: 16-way SMP nodes, SP Switch2, GPFS.
    ///
    /// `placement` must be supplied by the experiment because the paper's
    /// server placement rule (rank 0, n/m, 2n/m… become servers, spread
    /// across nodes — §4.1) is what the Fig. 3 experiments vary.
    pub fn frost(placement: Vec<usize>, usage: NodeUsage) -> Self {
        ClusterSpec {
            name: "frost".into(),
            cpus_per_node: 16,
            compute_rate: 1.0,
            net: NetworkModel::sp_switch2_frost(),
            noise: NoiseModel::aix_frost(),
            usage,
            placement,
        }
    }

    /// Number of ranks this spec places.
    pub fn n_ranks(&self) -> usize {
        self.placement.len()
    }

    /// Number of distinct nodes used.
    pub fn n_nodes(&self) -> usize {
        self.placement.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Node hosting global rank `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.placement[rank]
    }

    /// Time to perform `work` work-units of computation on one CPU of this
    /// cluster, including OS noise.
    pub fn compute_time(&self, work: f64) -> SimTime {
        let factor = self.noise.compute_factor(self.usage, self.n_nodes());
        work / self.compute_rate * factor
    }
}

/// Build the paper's server placement for a client:server ratio on an SMP
/// machine: with `n` clients and `m` servers, global ranks `0, n/m, 2n/m…`
/// are servers "to avoid resource contention on SMPs … by assigning
/// processors with global rank 0, n/m, 2n/m … to be servers" (§4.1).
///
/// Returns `(placement, server_ranks)` for `n + m` global ranks packed onto
/// nodes of `cpus_per_node` CPUs in rank order.
pub fn smp_server_placement(
    n_clients: usize,
    m_servers: usize,
    cpus_per_node: usize,
) -> (Vec<usize>, Vec<usize>) {
    let total = n_clients + m_servers;
    let placement: Vec<usize> = (0..total).map(|r| r / cpus_per_node).collect();
    let server_ranks: Vec<usize> = if m_servers == 0 {
        Vec::new()
    } else {
        (0..m_servers).map(|s| s * total / m_servers).collect()
    };
    (placement, server_ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_ordering_matches_fig3b() {
        let noise = NoiseModel::aix_frost();
        for nodes in [1, 2, 8, 32] {
            let f16 = noise.compute_factor(NodeUsage::AllCompute, nodes);
            let f15s = noise.compute_factor(NodeUsage::SpareServer, nodes);
            let f15 = noise.compute_factor(NodeUsage::SpareIdle, nodes);
            assert!(f16 > f15s, "16NS must be slowest at {nodes} nodes");
            assert!(f15s >= f15, "15S must be >= 15NS at {nodes} nodes");
            assert_eq!(f15, 1.0);
        }
    }

    #[test]
    fn noise_gap_grows_with_nodes() {
        let noise = NoiseModel::aix_frost();
        let gap_small = noise.compute_factor(NodeUsage::AllCompute, 2) - 1.0;
        let gap_large = noise.compute_factor(NodeUsage::AllCompute, 32) - 1.0;
        assert!(gap_large > gap_small);
    }

    #[test]
    fn fifteen_over_sixteen_crossover() {
        // The headline effect: 15/16 of the work at 16NS speed takes longer
        // than 15/16 of work at 15S speed — i.e. 15S wall time with 15
        // compute CPUs beats 16NS with 16 CPUs doing 16/15 more work per
        // CPU? The paper states 15S total time < 16NS total time even
        // though 15S does 15/16 of the per-node work with 15/16 of the
        // CPUs, i.e. the same work per CPU. So the comparison is direct:
        // factor(16NS) > factor(15S) suffices, and it must exceed it by a
        // visible margin at scale.
        let noise = NoiseModel::aix_frost();
        let f16 = noise.compute_factor(NodeUsage::AllCompute, 32);
        let f15s = noise.compute_factor(NodeUsage::SpareServer, 32);
        assert!(f16 / f15s > 1.02);
    }

    #[test]
    fn turing_packs_two_ranks_per_node() {
        let spec = ClusterSpec::turing(6);
        assert_eq!(spec.placement, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(spec.n_nodes(), 3);
        assert_eq!(spec.node_of(3), 1);
        assert_eq!(spec.n_ranks(), 6);
    }

    #[test]
    fn ideal_compute_time_is_work() {
        let spec = ClusterSpec::ideal(2);
        assert_eq!(spec.compute_time(3.5), 3.5);
    }

    #[test]
    fn compute_rate_scales_time() {
        let spec = ClusterSpec {
            compute_rate: 2.0,
            ..ClusterSpec::ideal(1)
        };
        assert_eq!(spec.compute_time(3.0), 1.5);
    }

    #[test]
    fn smp_placement_spreads_servers() {
        // 120 clients + 8 servers on 16-way nodes: servers at ranks
        // 0, 16, 32, ... — one per node.
        let (placement, servers) = smp_server_placement(120, 8, 16);
        assert_eq!(placement.len(), 128);
        assert_eq!(servers, vec![0, 16, 32, 48, 64, 80, 96, 112]);
        let server_nodes: Vec<usize> = servers.iter().map(|&r| placement[r]).collect();
        let mut dedup = server_nodes.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "one server per node");
    }

    #[test]
    fn smp_placement_no_servers() {
        let (placement, servers) = smp_server_placement(32, 0, 16);
        assert!(servers.is_empty());
        assert_eq!(placement.len(), 32);
    }

    #[test]
    fn frost_spec_uses_16way_nodes() {
        let (placement, _) = smp_server_placement(15, 1, 16);
        let spec = ClusterSpec::frost(placement, NodeUsage::SpareServer);
        assert_eq!(spec.cpus_per_node, 16);
        assert_eq!(spec.n_nodes(), 1);
    }
}
