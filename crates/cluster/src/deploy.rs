//! Deployment builder: assemble a full CFS-style cluster on the simulator.
//!
//! Naming follows the paper: `MAMS-3A3S` = 3 replica groups (actives), each
//! with 1 standby... no — each active has `standbys` hot backups, so 3A3S
//! means `groups = 3`, `standbys = 1` *per group*? The paper's notation
//! "MAMS-3A3S means 3 actives and 3 standbys" counts totals: 3 groups with
//! one standby each. [`DeploySpec::mams`] takes totals and divides evenly.

use std::sync::Arc;

use mams_coord::{CoordConfig, CoordServer};
use mams_core::{InitialRole, MdsConfig, MdsServer, MdsTiming};
use mams_namespace::Partitioner;
use mams_sim::{DetRng, Duration, NodeId, Sim};
use mams_storage::pool::{new_shared_pool, SharedPool};
use mams_storage::{DiskModel, PoolNode};

use crate::client::{ClientConfig, FsClient};
use crate::datasrv::DataServer;
use crate::metrics::Metrics;
use crate::workload::Workload;

/// What to build.
#[derive(Debug, Clone)]
pub struct DeploySpec {
    /// Number of replica groups (= actives).
    pub groups: u32,
    /// Hot standbys per group.
    pub standbys_per_group: usize,
    /// Cold (junior) backups per group.
    pub juniors_per_group: usize,
    /// Shared-storage-pool nodes.
    pub pool_nodes: usize,
    /// Data servers (block reporters).
    pub data_servers: usize,
    pub timing: MdsTiming,
    pub coord: CoordConfig,
    /// Data-server block-report interval.
    pub report_interval: Duration,
    /// Override the pool nodes' journal/image disk models (ablations).
    pub pool_disks: Option<(DiskModel, DiskModel)>,
}

impl Default for DeploySpec {
    fn default() -> Self {
        DeploySpec {
            groups: 1,
            standbys_per_group: 3,
            juniors_per_group: 0,
            pool_nodes: 3,
            data_servers: 4,
            timing: MdsTiming::default(),
            coord: CoordConfig::default(),
            report_interval: Duration::from_secs(3),
            pool_disks: None,
        }
    }
}

impl DeploySpec {
    /// Paper notation: `mams(actives_total, standbys_total)` — e.g.
    /// `mams(3, 3)` is MAMS-3A3S (one standby per active). `standbys_total`
    /// must divide evenly.
    pub fn mams(actives: u32, standbys_total: u32) -> Self {
        assert!(actives >= 1);
        assert_eq!(standbys_total % actives, 0, "paper configurations distribute standbys evenly");
        DeploySpec {
            groups: actives,
            standbys_per_group: (standbys_total / actives) as usize,
            ..DeploySpec::default()
        }
    }
}

/// One replica group's node ids; `members[0]` is the boot-time designated
/// active.
#[derive(Debug, Clone)]
pub struct GroupHandle {
    pub members: Vec<NodeId>,
}

/// A built deployment.
pub struct Deployment {
    pub coord: NodeId,
    pub pool: Vec<NodeId>,
    pub groups: Vec<GroupHandle>,
    pub data_servers: Vec<NodeId>,
    pub partitioner: Partitioner,
    /// Direct handle to the pool contents (inspection, pre-population).
    pub shared_pool: SharedPool,
    spec: DeploySpec,
    client_count: u32,
}

/// Build the cluster: coordination server, pool nodes, `groups ×
/// (1 + standbys + juniors)` metadata servers (restartable), data servers.
pub fn build(sim: &mut Sim, spec: DeploySpec) -> Deployment {
    // A partitioned active must fence itself before the coordinator can
    // expire its session and let a successor serve.
    let lease = spec.timing.coord_lease();
    assert!(
        lease < spec.coord.session_timeout,
        "self-fencing lease {lease:?} (2 × heartbeat) must be below the session timeout {:?}",
        spec.coord.session_timeout
    );
    let shared_pool = new_shared_pool();
    let coord = sim.add_node("coord", Box::new(CoordServer::new(spec.coord)));
    let mut pool = Vec::new();
    for i in 0..spec.pool_nodes {
        let p = shared_pool.clone();
        let mut node = PoolNode::new(p);
        if let Some((journal, image)) = spec.pool_disks {
            node = node.with_disks(journal, image);
        }
        pool.push(sim.add_node(format!("pool-{i}"), Box::new(node)));
    }
    let partitioner = Partitioner::new(spec.groups);

    let mut groups = Vec::new();
    for g in 0..spec.groups {
        let n_members = 1 + spec.standbys_per_group + spec.juniors_per_group;
        let base = sim.num_nodes() as NodeId;
        let members: Vec<NodeId> = (0..n_members as NodeId).map(|i| base + i).collect();
        for (i, &id) in members.iter().enumerate() {
            let initial_role = if i == 0 {
                InitialRole::Active
            } else if i <= spec.standbys_per_group {
                InitialRole::Standby
            } else {
                InitialRole::Junior
            };
            let cfg = MdsConfig {
                group: g,
                members: members.clone(),
                coord,
                pool: pool.clone(),
                partitioner,
                initial_role,
                timing: spec.timing,
            };
            let got = sim.add_restartable(format!("mds-g{g}-{i}"), move || {
                Box::new(MdsServer::new(cfg.clone()))
            });
            assert_eq!(got, id, "node id plan must match registration order");
        }
        groups.push(GroupHandle { members });
    }

    let all_mds: Vec<NodeId> = groups.iter().flat_map(|g| g.members.iter().copied()).collect();
    let mut data_servers = Vec::new();
    for i in 0..spec.data_servers {
        let ds = DataServer::new(i as u32, all_mds.clone(), spec.report_interval)
            .with_blocks((i as u64 * 1000)..(i as u64 * 1000 + 16));
        data_servers.push(sim.add_node(format!("ds-{i}"), Box::new(ds)));
    }

    Deployment {
        coord,
        pool,
        groups,
        data_servers,
        partitioner,
        shared_pool,
        spec,
        client_count: 0,
    }
}

impl Deployment {
    /// All metadata-server node ids.
    pub fn mds_nodes(&self) -> Vec<NodeId> {
        self.groups.iter().flat_map(|g| g.members.iter().copied()).collect()
    }

    /// The boot-time designated active of a group.
    pub fn initial_active(&self, group: u32) -> NodeId {
        self.groups[group as usize].members[0]
    }

    /// Spec used to build this deployment.
    pub fn spec(&self) -> &DeploySpec {
        &self.spec
    }

    /// Add a closed-loop client running `workload`, reporting into
    /// `metrics`. Returns the client's node id.
    pub fn add_client(
        &mut self,
        sim: &mut Sim,
        workload: Workload,
        metrics: Arc<Metrics>,
    ) -> NodeId {
        self.add_client_with(sim, workload, metrics, |c| c)
    }

    /// Like [`Deployment::add_client`] with a config hook.
    pub fn add_client_with(
        &mut self,
        sim: &mut Sim,
        workload: Workload,
        metrics: Arc<Metrics>,
        tune: impl FnOnce(ClientConfig) -> ClientConfig,
    ) -> NodeId {
        let cfg = tune(ClientConfig::new(self.coord, self.partitioner));
        let rng = DetRng::seed_from_u64(0xC11E47 + self.client_count as u64);
        self.client_count += 1;
        let client = FsClient::new(cfg, workload, metrics, rng);
        sim.add_node(format!("client-{}", self.client_count - 1), Box::new(client))
    }

    /// A fresh per-client workload id (clients get private directories).
    pub fn next_client_id(&self) -> u32 {
        self.client_count
    }

    /// Dynamically add a backup node to a running replica group (the
    /// paper's "supports dynamically adding backup nodes at runtime"): the
    /// node boots as a junior, registers with the active, and is upgraded
    /// to a hot standby by the renewing protocol.
    pub fn add_backup(&mut self, sim: &mut Sim, group: u32) -> NodeId {
        let g = &mut self.groups[group as usize];
        let cfg = MdsConfig {
            group,
            members: g.members.clone(),
            coord: self.coord,
            pool: self.pool.clone(),
            partitioner: self.partitioner,
            initial_role: InitialRole::Junior,
            timing: self.spec.timing,
        };
        let idx = g.members.len();
        let id = sim.add_restartable(format!("mds-g{group}-{idx} (added)"), move || {
            Box::new(MdsServer::new(cfg.clone()))
        });
        g.members.push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_sim::SimConfig;

    #[test]
    #[should_panic(expected = "must be below the session timeout")]
    fn build_refuses_a_session_timeout_the_lease_would_outlive() {
        let mut sim = Sim::new(SimConfig::default());
        let coord =
            CoordConfig { session_timeout: Duration::from_secs(1), ..CoordConfig::default() };
        build(&mut sim, DeploySpec { coord, ..DeploySpec::default() });
    }
}
