//! Figure 6: mixed-operation throughput (create / getfileinfo / mkdir)
//! across reliability mechanisms: vanilla HDFS, BackupNode, Hadoop
//! AvatarNode, Hadoop HA (QJM), and CFS with MAMS-1A3S.
//!
//! Expected shape (paper): every reliable mechanism costs throughput
//! relative to HDFS; BackupNode (asynchronous, no consistency guarantee)
//! costs least; CFS with three standbys still beats AvatarNode and
//! Hadoop HA thanks to the SSP's cheap journal synchronization.

use std::collections::BTreeMap;

use mams_baselines::{FsScale, Mechanism};
use mams_bench::{print_table, save_json, Value};
use mams_cluster::deploy::{DeploySpec, CLIENT_SEED};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_cluster::{ClientConfig, FsClient};
use mams_sim::{DetRng, Duration, Sim, SimConfig};

const CLIENTS: u32 = 48;
const WARMUP: Duration = Duration::from_secs(5);
const MEASURE: Duration = Duration::from_secs(10);

fn measure(sim: &mut Sim, metrics: &Metrics) -> f64 {
    sim.run_for(WARMUP);
    let from = (sim.now().micros() / 1_000_000) as usize;
    sim.run_for(MEASURE);
    let to = (sim.now().micros() / 1_000_000) as usize;
    metrics.mean_throughput(from, to)
}

fn run_system(mechanism: Mechanism) -> f64 {
    let mut sim = Sim::new(SimConfig { seed: 0xF166, trace: false, ..SimConfig::default() });
    // MAMS's clients draw from its deployment's client seeds; Boom-FS's wait
    // for the RSM to elect.
    let seed = if matches!(mechanism, Mechanism::Mams(_)) { CLIENT_SEED } else { 0xF166 };
    let boomfs = matches!(mechanism, Mechanism::BoomFs);
    let start_delay = Duration::from_millis(if boomfs { 10_000 } else { 500 });
    let d = mechanism.build(&mut sim);
    let metrics = Metrics::new(false);
    for c in 0..CLIENTS {
        let cfg = ClientConfig { start_delay, ..ClientConfig::new(d.coord, d.partitioner) };
        let rng = DetRng::seed_from_u64(seed + c as u64);
        let client = FsClient::new(cfg, Workload::mixed(c), metrics.clone(), rng);
        sim.add_node(format!("client-{c}"), Box::new(client));
    }
    if boomfs {
        sim.run_for(Duration::from_secs(10));
    }
    measure(&mut sim, &metrics)
}

fn main() {
    let mams = DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() };
    let systems = [
        ("HDFS", Mechanism::Hdfs),
        // Nothing fails here, so the recollection scale is never read.
        ("BackupNode", Mechanism::BackupNode(FsScale::from_image_mb(64))),
        ("CFS (MAMS-1A3S)", Mechanism::Mams(mams)),
        ("AvatarNode", Mechanism::Avatar),
        ("Hadoop HA", Mechanism::HadoopHa),
        ("Boom-FS", Mechanism::BoomFs),
    ];
    let mut rows = Vec::new();
    let mut json = BTreeMap::new();
    let mut hdfs_tput = 0.0;
    for (sys, mechanism) in systems {
        let tput = run_system(mechanism);
        if sys == "HDFS" {
            hdfs_tput = tput;
        }
        let rel = if hdfs_tput > 0.0 { tput / hdfs_tput * 100.0 } else { 100.0 };
        rows.push(vec![sys.to_string(), format!("{tput:.0}"), format!("{rel:.1}%")]);
        json.insert(sys.to_string(), tput.into());
    }
    print_table(
        "Figure 6: mixed create/getfileinfo/mkdir throughput by mechanism",
        &["system", "ops/sec", "vs HDFS"],
        &rows,
    );
    println!("\nShape checks (paper): HDFS > BackupNode > CFS-1A3S > AvatarNode > Hadoop HA;");
    println!("Boom-FS pays a consensus round per mutation (extra column, Section II).");
    save_json("fig6_mechanism_compare", &Value::Object(json));
}
