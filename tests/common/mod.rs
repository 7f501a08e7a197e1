//! One replica group whose members can be read from outside the simulator.

#![allow(dead_code)] // each test file uses its own part

use std::sync::{Arc, Mutex};

use mams::cluster::{ClientConfig, FsClient, Metrics, Workload};
use mams::coord::{CoordConfig, CoordServer};
use mams::core::{InitialRole, MdsConfig, MdsServer, MdsTiming};
use mams::namespace::Partitioner;
use mams::sim::{Ctx, DetRng, LatencyModel, Message, Node, NodeId, Sim, SimConfig, SimTime};
use mams::storage::pool::new_shared_pool;
use mams::storage::PoolNode;

/// The simulator owns its nodes; a server registered behind this keeps a
/// second handle outside for reading its state back.
struct Shared(Arc<Mutex<MdsServer>>);

impl Node for Shared {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.lock().unwrap().on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        self.0.lock().unwrap().on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.0.lock().unwrap().on_timer(ctx, token);
    }
}

pub struct Group {
    pub sim: Sim,
    pub pool: NodeId,
    /// Member node ids, the designated active first.
    pub members: Vec<NodeId>,
    /// The members' states, in the same order. A restart replaces the
    /// state behind the handle, as it replaces the process.
    pub servers: Vec<Arc<Mutex<MdsServer>>>,
    pub clients: Vec<NodeId>,
    pub metrics: Arc<Metrics>,
}

/// One group — an active and `standbys` standbys, restartable — on one
/// pool node, with `clients` closed-loop clients creating files.
pub fn group(seed: u64, standbys: usize, timing: MdsTiming, clients: u32) -> Group {
    let mut sim = Sim::new(SimConfig { seed, trace: true, latency: LatencyModel::lan() });
    let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
    let pool = sim.add_node("pool-0", Box::new(PoolNode::new(new_shared_pool())));
    let partitioner = Partitioner::new(1);
    let first = sim.num_nodes() as NodeId;
    let members: Vec<NodeId> = (first..=first + standbys as NodeId).collect();
    let mut servers = Vec::new();
    for (i, &id) in members.iter().enumerate() {
        let cfg = MdsConfig {
            group: 0,
            members: members.clone(),
            coord,
            pool: vec![pool],
            partitioner,
            initial_role: if i == 0 { InitialRole::Active } else { InitialRole::Standby },
            timing,
        };
        let server = Arc::new(Mutex::new(MdsServer::new(cfg.clone())));
        let handle = server.clone();
        let got = sim.add_restartable(format!("mds-{i}"), move || {
            *handle.lock().unwrap() = MdsServer::new(cfg.clone());
            Box::new(Shared(handle.clone()))
        });
        assert_eq!(got, id);
        servers.push(server);
    }
    let metrics = Metrics::new(false);
    let clients = (0..clients)
        .map(|c| {
            let client = FsClient::new(
                ClientConfig::new(coord, partitioner),
                Workload::create_only(c),
                metrics.clone(),
                DetRng::seed_from_u64(0xC11E47 + u64::from(c)),
            );
            sim.add_node(format!("client-{c}"), Box::new(client))
        })
        .collect();
    Group { sim, pool, members, servers, clients, metrics }
}

pub fn secs(s: f64) -> SimTime {
    SimTime((s * 1e6) as u64)
}
