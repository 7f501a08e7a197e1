//! Lost pool replies must neither stop delta images nor pile up.
//!
//! The active remembers every pool request until its reply arrives. Two
//! things used to go wrong when a reply never did. An unanswered image or
//! delta write counted as "an artifact write in flight" for the rest of the
//! active's tenure, and no delta folds while one is in flight — so one
//! dropped `ImageWritten` ended delta images for good. And every resend of
//! an unacknowledged journal append was a new request beside the old one,
//! so under steady loss the table of awaited replies only grew.

use std::sync::{Arc, Mutex};

use mams::cluster::{ClientConfig, FsClient, Metrics, Workload};
use mams::coord::{CoordConfig, CoordServer};
use mams::core::{InitialRole, MdsConfig, MdsServer, MdsTiming, Role};
use mams::namespace::Partitioner;
use mams::sim::{
    Ctx, DetRng, Duration, LatencyModel, Message, Node, NodeId, Sim, SimConfig, SimTime,
};
use mams::storage::pool::new_shared_pool;
use mams::storage::PoolNode;

const CHECKPOINT_SECS: u64 = 4;

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

struct Cluster {
    sim: Sim,
    pool: NodeId,
    active: NodeId,
    /// The designated active's state.
    server: Arc<Mutex<MdsServer>>,
    metrics: Arc<Metrics>,
}

/// One group — an active and a standby — on one pool node, a full image
/// every [`CHECKPOINT_SECS`] and a delta every second, three closed-loop
/// clients creating files.
fn cluster(seed: u64) -> Cluster {
    let mut sim = Sim::new(SimConfig { seed, trace: true, latency: LatencyModel::lan() });
    let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
    let pool = sim.add_node("pool-0", Box::new(PoolNode::new(new_shared_pool())));
    let partitioner = Partitioner::new(1);
    let active = sim.num_nodes() as NodeId;
    let cfg = |initial_role| MdsConfig {
        group: 0,
        members: vec![active, active + 1],
        coord,
        pool: vec![pool],
        partitioner,
        initial_role,
        timing: MdsTiming {
            checkpoint_interval: Some(Duration::from_secs(CHECKPOINT_SECS)),
            delta_interval: Some(Duration::from_secs(1)),
            ..MdsTiming::default()
        },
    };
    let server = Arc::new(Mutex::new(MdsServer::new(cfg(InitialRole::Active))));
    assert_eq!(sim.add_node("mds-0", Box::new(Shared(server.clone()))), active);
    sim.add_node("mds-1", Box::new(MdsServer::new(cfg(InitialRole::Standby))));
    let metrics = Metrics::new(false);
    for c in 0..3u32 {
        let client = FsClient::new(
            ClientConfig::new(coord, partitioner),
            Workload::create_only(c),
            metrics.clone(),
            DetRng::seed_from_u64(0xC11E47 + u64::from(c)),
        );
        sim.add_node(format!("client-{c}"), Box::new(client));
    }
    Cluster { sim, pool, active, server, metrics }
}

fn secs(s: f64) -> SimTime {
    SimTime((s * 1e6) as u64)
}

#[test]
fn a_lost_image_reply_does_not_stop_deltas() {
    let Cluster { mut sim, pool, active, .. } = cluster(0xA571);
    // The second checkpoint's `ImageWritten` never arrives: the pool's
    // replies to the active are cut from just before it is requested until
    // well after it was sent.
    let lost = CHECKPOINT_SECS as f64 * 2.0;
    sim.at(secs(lost - 0.05), move |s| s.net_mut().cut_one_way(pool, active));
    sim.at(secs(lost + 0.3), move |s| s.net_mut().heal_one_way(pool, active));
    sim.run_until(secs(lost + 2.0 * CHECKPOINT_SECS as f64 + 0.5));

    let trace = sim.trace();
    let first = |tag, from| trace.first_at_or_after(tag, secs(from)).map(|e| e.time);
    assert!(first("delta.done", 0.0).is_some_and(|at| at < secs(lost)), "deltas ran before");
    let superseding = first("checkpoint.start", lost + 1.0).expect("the next checkpoint");
    assert!(
        first("checkpoint.done", lost - 0.05).is_some_and(|at| at > superseding),
        "the reply to the checkpoint at {lost} s was meant to be lost"
    );
    // The next full image supersedes the unanswered one, and deltas chain
    // onto it within that checkpoint's interval.
    let resumed = first("delta.done", lost).expect("no delta image after the lost reply");
    assert!(
        resumed.since(superseding) < Duration::from_secs(CHECKPOINT_SECS),
        "deltas resumed only at {resumed:?}, superseding checkpoint at {superseding:?}"
    );
}

#[test]
fn lost_pool_replies_do_not_accumulate() {
    let Cluster { mut sim, server, metrics, .. } = cluster(0xA572);
    sim.run_for(Duration::from_secs(3));
    sim.net_mut().set_loss_probability(0.05);
    let mut most = 0;
    for _ in 0..20 {
        sim.run_for(Duration::from_secs(1));
        most = most.max(server.lock().unwrap().pool_requests_pending());
    }
    assert_eq!(server.lock().unwrap().role(), Role::Active, "the loss was meant to be survivable");
    assert!(metrics.ok_count() > 1_000, "the workload barely ran ({} ok)", metrics.ok_count());
    // One awaited reply per batch still unacknowledged plus the one
    // artifact write: a handful. Before, every lost `AppendOk` and every
    // resend left an entry behind, hundreds over these twenty seconds.
    assert!(most <= 32, "{most} pool requests awaited at once");
}
