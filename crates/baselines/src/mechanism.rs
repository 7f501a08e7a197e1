//! One value per system the evaluation compares, and the one builder every
//! harness and test wires a cluster with. Each arm registers the
//! coordinator first, then its nodes, every one of them restartable, and
//! names them by role in a [`Deployment`].

use std::sync::Arc;

use mams_cluster::deploy::{self, add_coord, DeploySpec, Deployment};
use mams_cluster::{mttr_from_completions, ClientConfig, FsClient, Metrics, Workload};
use mams_coord::CoordConfig;
use mams_sim::{DetRng, Node, NodeId, Sim, SimConfig, SimTime};
use mams_storage::pool::{new_shared_pool, SharedPool};
use mams_storage::{DiskModel, PoolNode};

use crate::avatar::{AvatarNode, NFS_DISK};
use crate::backupnode::BnNode;
use crate::boomfs::{self, BoomFsServer, MEMBERS};
use crate::common::FsScale;
use crate::hadoop_ha::{HaNameNode, JN_DISK, JOURNAL_NODES};
use crate::hdfs::HdfsNameNode;

/// A metadata-service design under comparison.
#[derive(Debug, Clone)]
pub enum Mechanism {
    /// MAMS as the spec describes it.
    Mams(DeploySpec),
    /// One namenode, no standby: the throughput reference.
    Hdfs,
    /// A primary streaming to one backup, which recollects the block
    /// locations of a file system of this scale when it takes over.
    BackupNode(FsScale),
    /// Two avatars over an NFS filer.
    Avatar,
    /// Two namenodes over a quorum of journal nodes.
    HadoopHa,
    /// Replicas of a Paxos log.
    BoomFs,
}

impl Mechanism {
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Mams(_) => "MAMS",
            Mechanism::Hdfs => "HDFS",
            Mechanism::BackupNode(_) => "BackupNode",
            Mechanism::Avatar => "AvatarNode",
            Mechanism::HadoopHa => "Hadoop HA",
            Mechanism::BoomFs => "Boom-FS",
        }
    }

    /// Register the mechanism's nodes on `sim`.
    pub fn build(self, sim: &mut Sim) -> Deployment {
        if let Mechanism::Mams(spec) = self {
            return deploy::build(sim, spec);
        }
        let coord = add_coord(sim, CoordConfig::default());
        let (pool, members) = match self {
            Mechanism::Mams(_) => unreachable!("built above"),
            Mechanism::Hdfs => {
                (vec![], vec![add(sim, "hdfs-nn", move || HdfsNameNode::new(coord))])
            }
            Mechanism::BackupNode(scale) => {
                let primary = sim.num_nodes() as NodeId;
                let backup = primary + 1;
                add(sim, "bn-primary", move || BnNode::new(coord, scale, true, backup));
                add(sim, "bn-backup", move || BnNode::new(coord, scale, false, primary));
                (vec![], vec![primary, backup])
            }
            Mechanism::Avatar => {
                let filer = new_shared_pool();
                let nfs = add_pool_node(sim, "avatar-nfs", filer.clone(), NFS_DISK);
                let active = add(sim, "avatar-active", move || AvatarNode::new(coord, nfs, true));
                let standby =
                    add(sim, "avatar-standby", move || AvatarNode::new(coord, nfs, false));
                let mut d = Deployment::one_group(coord, vec![nfs], vec![active, standby]);
                d.shared_pool = filer;
                return d;
            }
            Mechanism::HadoopHa => {
                // Each journal node has its *own* storage (quorum semantics).
                let jn = |i| add_pool_node(sim, &format!("jn-{i}"), new_shared_pool(), JN_DISK);
                let journals: Vec<NodeId> = (0..JOURNAL_NODES).map(jn).collect();
                let ha = |active: bool| {
                    let jns = journals.clone();
                    move || HaNameNode::new(coord, jns.clone(), active)
                };
                let members =
                    vec![add(sim, "ha-active", ha(true)), add(sim, "ha-standby", ha(false))];
                (journals, members)
            }
            Mechanism::BoomFs => {
                let base = sim.num_nodes() as NodeId;
                let members: Vec<NodeId> = (base..base + MEMBERS as NodeId).collect();
                for (i, &planned) in members.iter().enumerate() {
                    let all = members.clone();
                    let got = add(sim, &format!("boomfs-{i}"), move || {
                        BoomFsServer::new(coord, all.clone(), i as u32)
                    });
                    assert_eq!(got, planned);
                }
                (vec![], members)
            }
        };
        Deployment::one_group(coord, pool, members)
    }
}

fn add<N: Node>(sim: &mut Sim, name: &str, make: impl Fn() -> N + Send + 'static) -> NodeId {
    sim.add_restartable(name, move || Box::new(make()))
}

fn add_pool_node(sim: &mut Sim, name: &str, pool: SharedPool, disk: DiskModel) -> NodeId {
    add(sim, name, move || PoolNode::new(pool.clone()).with_disks(disk, disk))
}

/// The kill-and-measure rig behind every MTTR comparison: a deployment, one
/// closed-loop client creating files against it, the serving node crashed
/// mid-run.
pub struct KillRig {
    sim: Sim,
    deployment: Deployment,
    /// Boom-FS's replicas elect the node that serves.
    elects: bool,
    metrics: Arc<Metrics>,
}

impl KillRig {
    /// `mechanism` built on a fresh simulation; the caller adds the client.
    pub fn new(cfg: SimConfig, mechanism: Mechanism) -> KillRig {
        let mut sim = Sim::new(cfg);
        let elects = matches!(mechanism, Mechanism::BoomFs);
        let deployment = mechanism.build(&mut sim);
        KillRig { sim, deployment, elects, metrics: Metrics::new(true) }
    }

    /// The client, drawing from `rng_seed`; `tune` may adjust its config.
    pub fn add_client(&mut self, rng_seed: u64, tune: impl FnOnce(&mut ClientConfig)) {
        let mut cfg = ClientConfig::new(self.deployment.coord, self.deployment.partitioner);
        tune(&mut cfg);
        let rng = DetRng::seed_from_u64(rng_seed);
        let client = FsClient::new(cfg, Workload::create_only(0), self.metrics.clone(), rng);
        self.sim.add_node("client", Box::new(client));
    }

    /// Crash the serving node at `kill_at` and run until `until`: the span
    /// in seconds from the client's last success before the crash to its
    /// first after it. Panics if service never came back. The serving node
    /// is group 0's boot-time active, or the leader the replicas elected.
    pub fn mttr_after(mut self, kill_at: SimTime, until: SimTime) -> f64 {
        let (active, elects) = (self.deployment.initial_active(0), self.elects);
        let victim = move |s: &Sim| if elects { boomfs::last_leader(s) } else { Some(active) };
        self.sim.at(kill_at, move |s| s.crash(victim(s).expect("a leader was elected")));
        self.sim.run_until(until);
        let outages = mttr_from_completions(&self.metrics.completions(), &[kill_at.micros()]);
        outages.first().expect("service never came back after the crash").mttr_secs()
    }
}
