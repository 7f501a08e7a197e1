//! Cross-system integration tests: the Table I / Figure 6 orderings must
//! hold structurally, not just in the tuned harness.

use mams::baselines::{avatar, backupnode, hadoop_ha, FsScale};
use mams::cluster::deploy::DeploySpec;
use mams::cluster::metrics::Metrics;
use mams::cluster::workload::Workload;
use mams::cluster::{ClientConfig, FsClient, KillRig};
use mams::coord::{CoordConfig, CoordServer};
use mams::namespace::Partitioner;
use mams::sim::{DetRng, Sim, SimConfig, SimTime};

const KILL_AT: SimTime = SimTime(12_000_000);

fn mttr_of(system: &str, image_mb: u64, seed: u64) -> f64 {
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let (rig, victim) = if system == "mams" {
        let spec = DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() };
        let (rig, d) = KillRig::deployed(cfg, spec);
        (rig, d.initial_active(0))
    } else {
        let mut rig = KillRig::new(cfg);
        let (sim, coord) = (&mut rig.sim, rig.coord);
        let victim = match system {
            "backupnode" => backupnode::build(sim, coord, FsScale::from_image_mb(image_mb)).0,
            "avatar" => avatar::build(sim, coord).0,
            "hadoop_ha" => hadoop_ha::build(sim, coord).0,
            other => panic!("unknown {other}"),
        };
        rig.add_client(seed, |_| {});
        (rig, victim)
    };
    rig.mttr_after(KILL_AT, move |s| s.crash(victim), SimTime(220_000_000)).unwrap_or(f64::INFINITY)
}

#[test]
fn table1_ordering_holds_at_moderate_scale() {
    // At 128 MB the paper's ordering is MAMS < HA < BackupNode ≈ Avatar;
    // structurally we require MAMS < HA < Avatar and MAMS < BackupNode.
    let mams = mttr_of("mams", 128, 41);
    let ha = mttr_of("hadoop_ha", 128, 42);
    let av = mttr_of("avatar", 128, 43);
    let bn = mttr_of("backupnode", 128, 44);
    assert!(mams < ha, "MAMS {mams:.1}s !< HA {ha:.1}s");
    assert!(ha < av, "HA {ha:.1}s !< Avatar {av:.1}s");
    assert!(mams < bn, "MAMS {mams:.1}s !< BackupNode {bn:.1}s");
    assert!(mams < 10.0, "MAMS MTTR should be session-timeout dominated, got {mams:.1}s");
}

#[test]
fn backupnode_mttr_scales_with_image_but_mams_does_not() {
    let bn_small = mttr_of("backupnode", 16, 51);
    let bn_large = mttr_of("backupnode", 512, 52);
    assert!(
        bn_large > bn_small * 3.0,
        "BackupNode must grow with scale: {bn_small:.1}s -> {bn_large:.1}s"
    );
    // MAMS is flat in image size (hot standbys + block reports to all).
    let m1 = mttr_of("mams", 16, 53);
    let m2 = mttr_of("mams", 512, 54);
    assert!((m1 - m2).abs() < 2.0, "MAMS must be flat in image size: {m1:.1}s vs {m2:.1}s");
}

#[test]
fn every_reliable_mechanism_costs_some_throughput() {
    use mams::baselines::hdfs;
    fn tput(build_sys: impl FnOnce(&mut Sim, u32)) -> f64 {
        let mut sim = Sim::new(SimConfig { seed: 61, trace: false, ..SimConfig::default() });
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        build_sys(&mut sim, coord);
        let metrics = Metrics::new(false);
        for c in 0..32 {
            sim.add_node(
                format!("client-{c}"),
                Box::new(FsClient::new(
                    ClientConfig::new(coord, Partitioner::new(1)),
                    Workload::create_only(c),
                    metrics.clone(),
                    DetRng::seed_from_u64(61 + c as u64),
                )),
            );
        }
        sim.run_for(mams::sim::Duration::from_secs(5));
        sim.run_for(mams::sim::Duration::from_secs(8));
        metrics.mean_throughput(5, 13)
    }
    let hdfs_t = tput(|sim, coord| {
        hdfs::build(sim, coord);
    });
    let ha_t = tput(|sim, coord| {
        hadoop_ha::build(sim, coord);
    });
    let av_t = tput(|sim, coord| {
        avatar::build(sim, coord);
    });
    assert!(hdfs_t > av_t, "HDFS {hdfs_t:.0} !> Avatar {av_t:.0}");
    assert!(av_t > ha_t, "Avatar {av_t:.0} !> HA {ha_t:.0}");
}
