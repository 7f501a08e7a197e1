//! One builder for every mechanism: the `Deployment` it returns names every
//! node it registered (the coordinator, the storage nodes and the group
//! members; no mechanism runs a data server), each of them can crash and
//! come back, and `initial_active(0)` is the node the global view names.

use mams::baselines::{boomfs, FsScale, Mechanism};
use mams::cluster::deploy::{DeploySpec, Deployment};
use mams::cluster::faults::active_of;
use mams::sim::{Duration, NodeStatus, Sim, SimConfig};

/// Every mechanism, each built on a simulation of its own.
fn built() -> Vec<(&'static str, Sim, Deployment)> {
    let mechanisms = [
        Mechanism::Mams(DeploySpec::default()),
        Mechanism::Hdfs,
        Mechanism::BackupNode(FsScale::from_image_mb(16)),
        Mechanism::Avatar,
        Mechanism::HadoopHa,
        Mechanism::BoomFs,
    ];
    let build = |m: Mechanism| {
        let (name, mut sim) = (m.name(), Sim::new(SimConfig::default()));
        let d = m.build(&mut sim);
        (name, sim, d)
    };
    mechanisms.into_iter().map(build).collect()
}

/// Service after a coordinator restart is not asserted: the coordinator
/// comes back empty.
#[test]
fn every_node_a_deployment_names_restarts() {
    for (name, mut sim, d) in built() {
        let mut named = vec![d.coord];
        named.extend(d.pool.iter().chain(d.groups.iter().flat_map(|g| &g.members)));
        assert_eq!(named.len(), sim.num_nodes(), "{name}: a node without a role");
        sim.run_for(Duration::from_secs(1));
        for n in named {
            sim.crash(n);
            sim.run_for(Duration::from_millis(100));
            sim.restart(n);
            sim.run_for(Duration::from_millis(100));
            assert_eq!(sim.node_status(n), NodeStatus::Up, "{name}: n{n}");
        }
    }
}

/// The victim of every MTTR comparison: group 0's boot-time active, or the
/// leader Boom-FS's replicas elect (none is published at 3 s).
#[test]
fn the_boot_time_active_is_the_node_the_view_names() {
    for (name, mut sim, d) in built() {
        if name == Mechanism::BoomFs.name() {
            sim.run_for(Duration::from_secs(20));
            let leader = boomfs::last_leader(&sim);
            assert!(leader.is_some(), "{name}: no leader after 20 s");
            assert_eq!(active_of(&sim, d.coord, 0), leader, "{name}");
        } else {
            sim.run_for(Duration::from_secs(3));
            assert_eq!(active_of(&sim, d.coord, 0), Some(d.initial_active(0)), "{name}");
        }
    }
}
