//! Figure 6: mixed-operation throughput (create / getfileinfo / mkdir)
//! across reliability mechanisms: vanilla HDFS, BackupNode, Hadoop
//! AvatarNode, Hadoop HA (QJM), and CFS with MAMS-1A3S.
//!
//! Expected shape (paper): every reliable mechanism costs throughput
//! relative to HDFS; BackupNode (asynchronous, no consistency guarantee)
//! costs least; CFS with three standbys still beats AvatarNode and
//! Hadoop HA thanks to the SSP's cheap journal synchronization.

use std::collections::BTreeMap;

use mams_baselines::{avatar, backupnode, boomfs, hadoop_ha, hdfs, FsScale};
use mams_bench::{print_table, save_json, Value};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_cluster::{ClientConfig, FsClient};
use mams_coord::{CoordConfig, CoordServer};
use mams_namespace::Partitioner;
use mams_sim::{DetRng, Duration, NodeId, Sim, SimConfig};

const CLIENTS: u32 = 48;
const WARMUP: Duration = Duration::from_secs(5);
const MEASURE: Duration = Duration::from_secs(10);

fn add_clients(sim: &mut Sim, coord: NodeId, start_delay: Duration) -> std::sync::Arc<Metrics> {
    let metrics = Metrics::new(false);
    for c in 0..CLIENTS {
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.start_delay = start_delay;
        sim.add_node(
            format!("client-{c}"),
            Box::new(FsClient::new(
                cfg,
                Workload::mixed(c),
                metrics.clone(),
                DetRng::seed_from_u64(0xF166 + c as u64),
            )),
        );
    }
    metrics
}

fn measure(sim: &mut Sim, metrics: &Metrics) -> f64 {
    sim.run_for(WARMUP);
    let from = (sim.now().micros() / 1_000_000) as usize;
    sim.run_for(MEASURE);
    let to = (sim.now().micros() / 1_000_000) as usize;
    metrics.mean_throughput(from, to)
}

fn run_system(name: &str) -> f64 {
    let mut sim = Sim::new(SimConfig { seed: 0xF166, trace: false, ..SimConfig::default() });
    if name == "CFS (MAMS-1A3S)" {
        let mut d = build(
            &mut sim,
            DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() },
        );
        let metrics = Metrics::new(false);
        for c in 0..CLIENTS {
            d.add_client(&mut sim, Workload::mixed(c), metrics.clone());
        }
        return measure(&mut sim, &metrics);
    }
    let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
    let start_delay = match name {
        "HDFS" => {
            hdfs::build(&mut sim, coord);
            Duration::from_millis(500)
        }
        "BackupNode" => {
            // Nothing fails here, so the recollection scale is never read.
            backupnode::build(&mut sim, coord, FsScale::from_image_mb(64));
            Duration::from_millis(500)
        }
        "AvatarNode" => {
            avatar::build(&mut sim, coord);
            Duration::from_millis(500)
        }
        "Hadoop HA" => {
            hadoop_ha::build(&mut sim, coord);
            Duration::from_millis(500)
        }
        "Boom-FS" => {
            boomfs::build(&mut sim, coord);
            Duration::from_secs(10) // let the RSM elect first
        }
        other => panic!("unknown system {other}"),
    };
    let metrics = add_clients(&mut sim, coord, start_delay);
    if name == "Boom-FS" {
        sim.run_for(Duration::from_secs(10));
    }
    measure(&mut sim, &metrics)
}

fn main() {
    let systems = ["HDFS", "BackupNode", "CFS (MAMS-1A3S)", "AvatarNode", "Hadoop HA", "Boom-FS"];
    let mut rows = Vec::new();
    let mut json = BTreeMap::new();
    let mut hdfs_tput = 0.0;
    for sys in systems {
        let tput = run_system(sys);
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
