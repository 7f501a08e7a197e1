//! A client's reply to a structural op waits for every leg to be durable.
//!
//! A `mkdir` coordinated by one group runs as a leg on every other group,
//! and the coordinator resends unacknowledged legs on a 500 ms timer
//! whatever their age. The participant used to note a leg's xid on arrival
//! and answer any later delivery of it `ok` at once — so a resend that
//! overtook the original (still queued, pending, or waiting on the pool)
//! released the client's reply early, and a resend of a leg the full ingress
//! queue had refused was acknowledged for work that never ran.

use std::sync::{Arc, Mutex};

use mams::cluster::{ClientConfig, FsClient, Metrics, Workload};
use mams::coord::{CoordConfig, CoordServer};
use mams::core::{FsOp, GroupMsg, InitialRole, MdsConfig, MdsReq, MdsServer, MdsTiming, Role};
use mams::namespace::Partitioner;
use mams::sim::node::EXTERNAL;
use mams::sim::{Ctx, DetRng, Duration, Message, Node, NodeId, Sim, SimConfig};
use mams::storage::pool::new_shared_pool;
use mams::storage::{DiskModel, PoolNode};

/// `Ingress::default()`'s bound.
const INGRESS_BOUND: u64 = 10_000;

/// A server the test can read back, which can fill its own ingress queue
/// the instant before the first leg is delivered.
struct Probe {
    server: Arc<Mutex<MdsServer>>,
    flood_before_first_leg: bool,
}

impl Node for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.server.lock().unwrap().on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let mut server = self.server.lock().unwrap();
        let is_leg = matches!(msg.downcast_ref(), Some(GroupMsg::XGroupApply { .. }));
        if self.flood_before_first_leg && is_leg {
            self.flood_before_first_leg = false;
            for seq in 0..INGRESS_BOUND {
                let op = FsOp::GetFileInfo { path: "/".into() };
                server.on_message(ctx, EXTERNAL, Message::new(MdsReq::Op { op, seq, acked: 0 }));
            }
        }
        server.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.server.lock().unwrap().on_timer(ctx, token);
    }
}

struct Cluster {
    sim: Sim,
    /// Group 1's only member: the participant of every leg.
    participant: Arc<Mutex<MdsServer>>,
    metrics: Arc<Metrics>,
}

/// Two single-member groups; group 1 appends to a pool node of its own with
/// `participant_disk`. One client sends `mkdirs` directories owned by group 0.
fn build(participant_disk: DiskModel, flood: bool, mkdirs: usize) -> Cluster {
    let mut sim = Sim::new(SimConfig { seed: 0x1e9, ..SimConfig::default() });
    let shared_pool = new_shared_pool();
    let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
    let fast = sim.add_node("pool-0", Box::new(PoolNode::new(shared_pool.clone())));
    let slow = PoolNode::new(shared_pool).with_disks(participant_disk, DiskModel::image_disk());
    let slow = sim.add_node("pool-1", Box::new(slow));
    let partitioner = Partitioner::new(2);
    let mut servers = Vec::new();
    for (group, pool) in [(0, fast), (1, slow)] {
        let id = sim.num_nodes() as NodeId;
        let cfg = MdsConfig {
            group,
            members: vec![id],
            coord,
            pool: vec![pool],
            partitioner,
            initial_role: InitialRole::Active,
            timing: MdsTiming::default(),
        };
        let server = Arc::new(Mutex::new(MdsServer::new(cfg)));
        let probe = Probe { server: server.clone(), flood_before_first_leg: flood && group == 1 };
        assert_eq!(sim.add_node(format!("mds-g{group}"), Box::new(probe)), id);
        servers.push(server);
    }
    let ops = (0..)
        .map(|i| format!("/d{i}"))
        .filter(|p| partitioner.owner(p) == 0)
        .take(mkdirs)
        .map(|path| FsOp::Mkdir { path })
        .collect();
    let metrics = Metrics::new(true);
    // Start after both groups have an active (the slow pool delays one).
    let cfg = ClientConfig {
        start_delay: Duration::from_secs(8),
        ..ClientConfig::new(coord, partitioner)
    };
    let client =
        FsClient::new(cfg, Workload::script(ops), metrics.clone(), DetRng::seed_from_u64(7));
    sim.add_node("client", Box::new(client));
    Cluster { sim, participant: servers.pop().expect("two groups"), metrics }
}

#[test]
fn no_mkdir_reply_before_its_leg_is_durable_in_the_other_group() {
    // Slower than the leg-retry period, so every leg is resent in flight.
    let disk = DiskModel { op_overhead: Duration::from_millis(800), ..DiskModel::journal_disk() };
    let mut c = build(disk, false, 12);
    c.sim.run_for(Duration::from_secs(30));
    assert_eq!(c.participant.lock().unwrap().role(), Role::Active);
    let done = c.metrics.completions();
    assert_eq!(done.len(), 12, "every mkdir completes");
    for (i, d) in done.iter().enumerate() {
        assert!(d.ok);
        // The leg's append cannot be acknowledged by the pool sooner than
        // the disk takes, so neither can the client.
        assert!(
            d.latency_us() >= disk.op_overhead.micros(),
            "mkdir {i} was answered after {} us, before its leg could be durable",
            d.latency_us()
        );
    }
    assert_eq!(c.participant.lock().unwrap().applied_sn(), 12, "one leg, one batch, each");
}

#[test]
fn a_leg_refused_by_a_full_ingress_is_applied_on_retry() {
    let mut c = build(DiskModel::journal_disk(), true, 1);
    c.sim.run_for(Duration::from_secs(20));
    assert_eq!(c.metrics.ok_count(), 1, "the mkdir completes");
    assert_eq!(
        c.participant.lock().unwrap().applied_sn(),
        1,
        "its leg ran in the other group, not just its acknowledgement"
    );
}
