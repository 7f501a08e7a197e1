//! Assemble a cluster from the crates' public constructors — the wiring of
//! `mams_cluster::deploy::build`, done again here so that each node can be
//! registered behind a [`Probe`].

use std::sync::{Arc, Mutex};

use mams_cluster::{ClientConfig, DataServer, FsClient, History, Metrics, Recorder, Workload};
use mams_coord::{CoordConfig, CoordServer};
use mams_core::{FsOp, InitialRole, MdsConfig, MdsServer, MdsTiming, Role};
use mams_namespace::Partitioner;
use mams_sim::{DetRng, Duration, LatencyModel, Node, NodeId, NodeStatus, Sim, SimConfig};
use mams_storage::pool::{new_shared_pool, SharedPool};
use mams_storage::PoolNode;

use crate::probe::{lock, Handle, Probe, SharedTrace, TraceLog, Traced};
use crate::workload::{Spec, DATA_SERVERS, POOL_NODES};

/// One metadata server: its node id and the bench's handle to its state.
pub type Member = (NodeId, Handle<MdsServer>);

pub struct Cluster {
    pub sim: Sim,
    pub shared_pool: SharedPool,
    /// Members by replica group; the first is the boot-time active.
    pub groups: Vec<Vec<Member>>,
    /// `Some` in a traced run: every node is then timed.
    pub trace: Option<SharedTrace>,
    coord: NodeId,
    partitioner: Partitioner,
    clients: u32,
}

/// Register `node`, timed when the run is traced and bare otherwise.
fn add<N: Traced>(sim: &mut Sim, trace: &Option<SharedTrace>, name: String, node: N) -> NodeId {
    let boxed: Box<dyn Node> = match trace {
        Some(t) => Probe::timed(node, t),
        None => Box::new(node),
    };
    sim.add_node(name, boxed)
}

/// The injected models, as the output states them.
fn timing(spec: &Spec) -> MdsTiming {
    MdsTiming {
        checkpoint_interval: spec.checkpoint_s.map(Duration::from_secs),
        delta_interval: spec.delta_s.map(Duration::from_secs),
        ..MdsTiming::default()
    }
}

pub fn build(spec: &Spec, seed: u64, traced: bool) -> Cluster {
    let mut sim = Sim::new(SimConfig { seed, trace: false, latency: LatencyModel::lan() });
    let trace = traced.then(|| Arc::new(Mutex::new(TraceLog::default())));
    let shared_pool = new_shared_pool();
    let coord = add(&mut sim, &trace, "coord".into(), CoordServer::new(CoordConfig::default()));
    let pool: Vec<NodeId> = (0..POOL_NODES)
        .map(|i| add(&mut sim, &trace, format!("pool-{i}"), PoolNode::new(shared_pool.clone())))
        .collect();
    let partitioner = Partitioner::new(spec.groups);

    let mut groups = Vec::new();
    for g in 0..spec.groups {
        let base = sim.num_nodes() as NodeId;
        let ids: Vec<NodeId> = (0..=spec.standbys as NodeId).map(|i| base + i).collect();
        let mut members = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let cfg = MdsConfig {
                group: g,
                members: ids.clone(),
                coord,
                pool: pool.clone(),
                partitioner,
                initial_role: if i == 0 { InitialRole::Active } else { InitialRole::Standby },
                timing: timing(spec),
            };
            let handle = Arc::new(Mutex::new(MdsServer::new(cfg.clone())));
            let (h, t) = (handle.clone(), trace.clone());
            // A restart builds the server afresh, as a new process would,
            // and the handle follows it.
            let got = sim.add_restartable(format!("mds-g{g}-{i}"), move || {
                *lock(&h) = MdsServer::new(cfg.clone());
                Probe::boxed(&h, t.clone())
            });
            assert_eq!(got, id, "node ids are planned before registration");
            members.push((id, handle));
        }
        groups.push(members);
    }

    let all_mds: Vec<NodeId> = groups.iter().flatten().map(|m| m.0).collect();
    for i in 0..DATA_SERVERS {
        let ds = DataServer::new(i as u32, all_mds.clone(), Duration::from_secs(3))
            .with_blocks((i as u64 * 1000)..(i as u64 * 1000 + 16));
        add(&mut sim, &trace, format!("ds-{i}"), ds);
    }
    Cluster { sim, shared_pool, groups, trace, coord, partitioner, clients: 0 }
}

/// How a client is told to behave, beyond its script.
#[derive(Default)]
pub struct ClientOpts {
    pub think: Duration,
    pub history: Option<Arc<History>>,
}

impl Cluster {
    /// Add a closed-loop client that plays `script` once and then stops.
    pub fn add_client(
        &mut self,
        script: Vec<FsOp>,
        opts: ClientOpts,
        metrics: Arc<Metrics>,
    ) -> NodeId {
        let n = self.clients;
        self.clients += 1;
        let mut cfg = ClientConfig::new(self.coord, self.partitioner);
        cfg.think = opts.think;
        cfg.history = opts.history.map(|log| Recorder { client: n, log });
        let rng = DetRng::seed_from_u64(0xC11E47 + u64::from(n));
        let client = FsClient::new(cfg, Workload::script(script), metrics, rng);
        add(&mut self.sim, &self.trace, format!("client-{n}"), client)
    }

    /// `(active, standby)` applied-sn pairs, one per up standby.
    pub fn standby_lags(&self) -> Vec<u64> {
        let mut lags = Vec::new();
        for members in &self.groups {
            let is_up = |m: &&Member| self.sim.node_status(m.0) == NodeStatus::Up;
            let up = || members.iter().filter(is_up).map(|m| lock(&m.1));
            let Some(tip) = up().find(|m| m.role() == Role::Active).map(|m| m.applied_sn()) else {
                continue;
            };
            lags.extend(
                up().filter(|m| m.role() == Role::Standby)
                    .map(|m| tip.saturating_sub(m.applied_sn())),
            );
        }
        lags
    }
}

/// The member that is up and reports itself active.
pub fn active_of(sim: &Sim, members: &[Member]) -> Option<NodeId> {
    members
        .iter()
        .find(|(id, h)| sim.node_status(*id) == NodeStatus::Up && lock(h).role() == Role::Active)
        .map(|m| m.0)
}
