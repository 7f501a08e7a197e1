//! Cross-system integration tests: the Table I / Figure 6 orderings must
//! hold structurally, not just in the tuned harness.

use mams::baselines::{FsScale, KillRig, Mechanism};
use mams::cluster::deploy::{DeploySpec, CLIENT_SEED};
use mams::cluster::metrics::Metrics;
use mams::cluster::workload::Workload;
use mams::cluster::{ClientConfig, FsClient};
use mams::sim::{DetRng, Sim, SimConfig, SimTime};

const KILL_AT: SimTime = SimTime(12_000_000);

/// MAMS-1A3S.
fn mams() -> Mechanism {
    Mechanism::Mams(DeploySpec::default())
}

/// Panics if service never comes back.
fn mttr_of(mechanism: Mechanism, seed: u64) -> f64 {
    // MAMS's client draws from its deployment's first client seed.
    let client_seed = if matches!(mechanism, Mechanism::Mams(_)) { CLIENT_SEED } else { seed };
    let mut rig = KillRig::new(SimConfig { seed, ..SimConfig::default() }, mechanism);
    rig.add_client(client_seed, |_| {});
    rig.mttr_after(KILL_AT, SimTime(220_000_000))
}

#[test]
fn table1_ordering_holds_at_moderate_scale() {
    // At 128 MB the paper's ordering is MAMS < HA < BackupNode ≈ Avatar;
    // structurally we require MAMS < HA < Avatar and MAMS < BackupNode.
    let mams = mttr_of(mams(), 41);
    let ha = mttr_of(Mechanism::HadoopHa, 42);
    let av = mttr_of(Mechanism::Avatar, 43);
    let bn = mttr_of(Mechanism::BackupNode(FsScale::from_image_mb(128)), 44);
    assert!(mams < ha, "MAMS {mams:.1}s !< HA {ha:.1}s");
    assert!(ha < av, "HA {ha:.1}s !< Avatar {av:.1}s");
    assert!(mams < bn, "MAMS {mams:.1}s !< BackupNode {bn:.1}s");
    assert!(mams < 10.0, "MAMS MTTR should be session-timeout dominated, got {mams:.1}s");
}

#[test]
fn backupnode_mttr_scales_with_image_but_mams_does_not() {
    let bn_small = mttr_of(Mechanism::BackupNode(FsScale::from_image_mb(16)), 51);
    let bn_large = mttr_of(Mechanism::BackupNode(FsScale::from_image_mb(512)), 52);
    assert!(
        bn_large > bn_small * 3.0,
        "BackupNode must grow with scale: {bn_small:.1}s -> {bn_large:.1}s"
    );
    // MAMS is flat in image size (hot standbys + block reports to all).
    let m1 = mttr_of(mams(), 53);
    let m2 = mttr_of(mams(), 54);
    assert!((m1 - m2).abs() < 2.0, "MAMS must be flat in image size: {m1:.1}s vs {m2:.1}s");
}

#[test]
fn every_reliable_mechanism_costs_some_throughput() {
    fn tput(mechanism: Mechanism) -> f64 {
        let mut sim = Sim::new(SimConfig { seed: 61, trace: false, ..SimConfig::default() });
        let d = mechanism.build(&mut sim);
        let metrics = Metrics::new(false);
        for c in 0..32 {
            let (cfg, rng) =
                (ClientConfig::new(d.coord, d.partitioner), DetRng::seed_from_u64(61 + c));
            let client = FsClient::new(cfg, Workload::create_only(c as u32), metrics.clone(), rng);
            sim.add_node(format!("client-{c}"), Box::new(client));
        }
        sim.run_for(mams::sim::Duration::from_secs(5));
        sim.run_for(mams::sim::Duration::from_secs(8));
        metrics.mean_throughput(5, 13)
    }
    let hdfs_t = tput(Mechanism::Hdfs);
    let ha_t = tput(Mechanism::HadoopHa);
    let av_t = tput(Mechanism::Avatar);
    assert!(hdfs_t > av_t, "HDFS {hdfs_t:.0} !> Avatar {av_t:.0}");
    assert!(av_t > ha_t, "Avatar {av_t:.0} !> HA {ha_t:.0}");
}
