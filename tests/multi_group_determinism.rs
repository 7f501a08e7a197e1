//! One seed, one run — also with several replica groups.
//!
//! A structural op in a multi-group deployment fans out to every other
//! group's active, and legs a group has not acknowledged are resent on a
//! timer in the iteration order of the coordinator-side maps. Those maps were
//! `RandomState` hash maps, so two runs of one seed sent the retries — and
//! drew their link latencies — in different orders. This pins the fix: two
//! same-seed MAMS-3A3S clusters, one group's active crashed mid-run so that
//! legs do go unacknowledged, acknowledge the same ops at the same virtual
//! microseconds, client by client, and finish with identical `applied_sn` /
//! `fingerprint` on every member.

use std::sync::{Arc, Mutex};

use mams::cluster::{ClientConfig, Completion, DataServer, FsClient, Metrics, Workload};
use mams::coord::{CoordConfig, CoordServer};
use mams::core::{InitialRole, MdsConfig, MdsServer, MdsTiming};
use mams::namespace::Partitioner;
use mams::sim::{
    Ctx, DetRng, Duration, LatencyModel, Message, Node, NodeId, Sim, SimConfig, SimTime,
};
use mams::storage::pool::new_shared_pool;
use mams::storage::PoolNode;

const GROUPS: u32 = 3;
const CLIENTS: u32 = 24;

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

/// What a run leaves behind: every op's issue and completion time per
/// client, and `(applied_sn, fingerprint)` per member, group by group.
type Outcome = (Vec<Vec<Completion>>, Vec<Vec<(u64, u64)>>);

/// `deploy::build(DeploySpec::mams(3, 3))` with handles on the servers.
fn run(seed: u64) -> Outcome {
    let mut sim = Sim::new(SimConfig { seed, trace: false, latency: LatencyModel::lan() });
    let shared_pool = new_shared_pool();
    let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
    let pool: Vec<NodeId> = (0..3)
        .map(|i| sim.add_node(format!("pool-{i}"), Box::new(PoolNode::new(shared_pool.clone()))))
        .collect();
    let partitioner = Partitioner::new(GROUPS);
    let mut groups: Vec<Vec<(NodeId, Arc<Mutex<MdsServer>>)>> = Vec::new();
    for g in 0..GROUPS {
        let base = sim.num_nodes() as NodeId;
        let ids = vec![base, base + 1];
        let mut members = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let cfg = MdsConfig {
                group: g,
                members: ids.clone(),
                coord,
                pool: pool.clone(),
                partitioner,
                initial_role: if i == 0 { InitialRole::Active } else { InitialRole::Standby },
                timing: MdsTiming::default(),
            };
            let handle = Arc::new(Mutex::new(MdsServer::new(cfg.clone())));
            let h = handle.clone();
            let got = sim.add_restartable(format!("mds-g{g}-{i}"), move || {
                *h.lock().unwrap() = MdsServer::new(cfg.clone());
                Box::new(Shared(h.clone()))
            });
            assert_eq!(got, id);
            members.push((id, handle));
        }
        groups.push(members);
    }
    let all_mds: Vec<NodeId> = groups.iter().flatten().map(|m| m.0).collect();
    for i in 0..4u32 {
        let ds = DataServer::new(i, all_mds.clone(), Duration::from_secs(3));
        sim.add_node(format!("ds-{i}"), Box::new(ds));
    }
    let metrics: Vec<Arc<Metrics>> = (0..CLIENTS).map(|_| Metrics::new(true)).collect();
    for (c, m) in (0..CLIENTS).zip(&metrics) {
        let client = FsClient::new(
            ClientConfig::new(coord, partitioner),
            Workload::mkdir_only(c),
            m.clone(),
            DetRng::seed_from_u64(0xC11E47 + u64::from(c)),
        );
        sim.add_node(format!("client-{c}"), Box::new(client));
    }
    // Group 1 loses its active: until its standby is promoted, every mkdir
    // coordinated elsewhere has a leg that only the retry timer delivers.
    let victim = groups[1][0].0;
    sim.at(SimTime(4_000_000), move |s| s.crash(victim));
    sim.at(SimTime(9_000_000), move |s| s.restart(victim));
    sim.run_for(Duration::from_secs(16));

    let acked = metrics.iter().map(|m| m.completions()).collect();
    let state = groups
        .iter()
        .map(|members| {
            members
                .iter()
                .map(|(_, h)| {
                    let s = h.lock().unwrap();
                    (s.applied_sn(), s.fingerprint())
                })
                .collect()
        })
        .collect();
    (acked, state)
}

#[test]
fn same_seed_3a3s_clusters_end_identically() {
    let first = run(0x5eed);
    assert!(first.0.iter().all(|c| c.len() > 100), "every client made progress");
    for again in 0..2 {
        // Not `assert_eq!`: a failure would print every completion twice.
        assert!(run(0x5eed) == first, "repeat {again} of one seed diverged");
    }
    assert!(run(0x5eee).0 != first.0, "another seed is another run");
}
