//! Deployment builder: assemble a full CFS-style cluster on the simulator.
//!
//! The paper's MAMS-xAyS counts totals: x actives, one per replica group,
//! and y hot standbys spread evenly over the groups. [`DeploySpec::mams`]
//! takes those totals; [`DeploySpec`] itself counts per group.

use std::sync::Arc;

use mams_coord::{CoordConfig, CoordServer};
use mams_core::{InitialRole, MdsConfig, MdsServer, MdsTiming};
use mams_namespace::Partitioner;
use mams_sim::{DetRng, NodeId, Sim};
use mams_storage::pool::{new_shared_pool, SharedPool};
use mams_storage::{DiskModel, PoolNode};

use crate::client::{ClientConfig, FsClient};
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
    pub timing: MdsTiming,
    pub coord: CoordConfig,
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
            timing: MdsTiming::default(),
            coord: CoordConfig::default(),
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

/// A built deployment, MAMS or a baseline, its nodes named by role. Every
/// node a builder registers is restartable; the clients added later are not.
#[derive(Clone)]
pub struct Deployment {
    /// The coordination server, registered first.
    pub coord: NodeId,
    /// The storage nodes: MAMS's shared storage pool, Avatar's NFS filer or
    /// Hadoop HA's journal nodes; empty for the others.
    pub pool: Vec<NodeId>,
    /// The replica groups; a baseline has one. Its `members[0]` is the
    /// boot-time active (Boom-FS: the first replica, not yet a leader).
    pub groups: Vec<GroupHandle>,
    pub partitioner: Partitioner,
    /// Direct handle to the pool contents (inspection, pre-population):
    /// MAMS's pool or Avatar's filer; elsewhere a fresh one nothing writes.
    pub shared_pool: SharedPool,
    /// What [`Deployment::add_backup`] gives the member it adds.
    timing: MdsTiming,
    client_count: u32,
}

/// The first client's rng seed; the `n`th draws from `CLIENT_SEED + n`.
pub const CLIENT_SEED: u64 = 0xC11E47;

/// Register the coordination server, the first node of every deployment.
pub fn add_coord(sim: &mut Sim, cfg: CoordConfig) -> NodeId {
    sim.add_restartable("coord", move || Box::new(CoordServer::new(cfg)))
}

/// Build the cluster: coordination server, pool nodes and `groups ×
/// (1 + standbys + juniors)` metadata servers.
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
    let coord = add_coord(sim, spec.coord);
    let disks = spec.pool_disks.unwrap_or((DiskModel::journal_disk(), DiskModel::image_disk()));
    let mut pool = Vec::new();
    for i in 0..spec.pool_nodes {
        let p = shared_pool.clone();
        pool.push(sim.add_restartable(format!("pool-{i}"), move || {
            Box::new(PoolNode::new(p.clone()).with_disks(disks.0, disks.1))
        }));
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

    Deployment {
        coord,
        pool,
        groups,
        partitioner,
        shared_pool,
        timing: spec.timing,
        client_count: 0,
    }
}

impl Deployment {
    /// One replica group of `members` behind `coord`, with storage nodes
    /// `pool`: a baseline's shape.
    pub fn one_group(coord: NodeId, pool: Vec<NodeId>, members: Vec<NodeId>) -> Deployment {
        Deployment {
            coord,
            pool,
            groups: vec![GroupHandle { members }],
            partitioner: Partitioner::new(1),
            shared_pool: new_shared_pool(),
            timing: MdsTiming::default(),
            client_count: 0,
        }
    }

    /// The boot-time designated active of a group.
    pub fn initial_active(&self, group: u32) -> NodeId {
        self.groups[group as usize].members[0]
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
        let rng = DetRng::seed_from_u64(CLIENT_SEED + self.client_count as u64);
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
    /// to a hot standby by the renewing protocol. MAMS only.
    pub fn add_backup(&mut self, sim: &mut Sim, group: u32) -> NodeId {
        let g = &mut self.groups[group as usize];
        let cfg = MdsConfig {
            group,
            members: g.members.clone(),
            coord: self.coord,
            pool: self.pool.clone(),
            partitioner: self.partitioner,
            initial_role: InitialRole::Junior,
            timing: self.timing,
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
    use mams_sim::{Duration, SimConfig};

    #[test]
    #[should_panic(expected = "must be below the session timeout")]
    fn build_refuses_a_session_timeout_the_lease_would_outlive() {
        let mut sim = Sim::new(SimConfig::default());
        let coord =
            CoordConfig { session_timeout: Duration::from_secs(1), ..CoordConfig::default() };
        build(&mut sim, DeploySpec { coord, ..DeploySpec::default() });
    }
}
