//! One replica group on one pool node; a test reads a member's state back
//! with `sim.node::<MdsServer>(id)`.

#![allow(dead_code)] // each test file uses its own part

use std::sync::Arc;

use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::{ClientConfig, Metrics, Workload};
use mams::core::{MdsServer, MdsTiming, MdsTrace};
use mams::sim::{LatencyModel, NodeId, Sim, SimConfig, SimTime};
use mams::storage::pool::SharedPool;

pub struct Group {
    pub sim: Sim,
    pub pool: NodeId,
    /// What the pool holds, whichever node serves it.
    pub pool_state: SharedPool,
    /// Member node ids, the designated active first.
    pub members: Vec<NodeId>,
    pub clients: Vec<NodeId>,
    pub metrics: Arc<Metrics>,
}

/// One group — an active and `standbys` standbys, restartable — on one
/// pool node, with `clients` closed-loop clients creating files.
pub fn group(seed: u64, standbys: usize, timing: MdsTiming, clients: u32) -> Group {
    group_with(seed, standbys, timing, clients, |c, cfg| (Workload::create_only(c), cfg))
}

/// The same group with each client's workload and configuration chosen by
/// `client` from its index and the default configuration.
pub fn group_with(
    seed: u64,
    standbys: usize,
    timing: MdsTiming,
    clients: u32,
    client: impl Fn(u32, ClientConfig) -> (Workload, ClientConfig),
) -> Group {
    let mut sim = Sim::new(SimConfig { seed, trace: true, latency: LatencyModel::lan() });
    let spec = DeploySpec {
        standbys_per_group: standbys,
        pool_nodes: 1,
        data_servers: 0,
        timing,
        ..DeploySpec::default()
    };
    let mut d = build(&mut sim, spec);
    let metrics = Metrics::new(false);
    let clients = (0..clients)
        .map(|c| {
            let (workload, cfg) = client(c, ClientConfig::new(d.coord, d.partitioner));
            d.add_client_with(&mut sim, workload, metrics.clone(), |_| cfg)
        })
        .collect();
    Group {
        sim,
        pool: d.pool[0],
        pool_state: d.shared_pool.clone(),
        members: d.groups[0].members.clone(),
        clients,
        metrics,
    }
}

/// A live member's state.
pub fn mds(sim: &Sim, id: NodeId) -> &MdsServer {
    sim.node(id).expect("the member is up")
}

/// When a member first recorded an event `pick` accepts, at or after `from`.
pub fn first(
    sim: &Sim,
    from: SimTime,
    pick: impl Fn(NodeId, &MdsTrace) -> bool,
) -> Option<SimTime> {
    let mut events = sim.trace().of::<MdsTrace>();
    events.find(|&(t, node, e)| t >= from && pick(node, e)).map(|(t, _, _)| t)
}

pub fn secs(s: f64) -> SimTime {
    SimTime((s * 1e6) as u64)
}
