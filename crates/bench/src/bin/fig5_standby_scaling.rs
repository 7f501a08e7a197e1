//! Figure 5: metadata-operation throughput of single-namenode HDFS vs CFS
//! with the MAMS policy at 3 actives × 1–4 standbys, for the five paper
//! operations (create, getfileinfo, delete, mkdir, rename).
//!
//! Expected shape (paper): CFS beats HDFS on the partitionable operations
//! (create, getfileinfo); the structural operations (delete, mkdir,
//! rename) are distributed transactions and do not scale with actives;
//! adding standbys costs only a few percent per standby.

use std::collections::BTreeMap;

use mams_bench::{arr, measure_throughput, obj, populate, print_table, save_json, Value};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::workload::Workload;
use mams_coord::CoordConfig;
use mams_sim::{Duration, Sim, SimConfig};

const CLIENTS: u32 = 96;
const PRECREATED: u64 = 4_000;
const WARMUP: Duration = Duration::from_secs(3);
const MEASURE: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    Create,
    GetInfo,
    Delete,
    Mkdir,
    Rename,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::GetInfo => "getfileinfo",
            OpKind::Delete => "delete",
            OpKind::Mkdir => "mkdir",
            OpKind::Rename => "rename",
        }
    }

    fn needs_population(self) -> bool {
        matches!(self, OpKind::GetInfo | OpKind::Delete | OpKind::Rename)
    }

    fn workload(self, client: u32) -> Workload {
        match self {
            OpKind::Create => Workload::create_only(client),
            OpKind::GetInfo => Workload::get_info(client, PRECREATED),
            OpKind::Delete => Workload::delete_only(client, PRECREATED),
            OpKind::Mkdir => Workload::mkdir_only(client),
            OpKind::Rename => Workload::rename_only(client, PRECREATED),
        }
    }
}

fn spec_for(system: &str) -> DeploySpec {
    let mut spec = match system {
        "HDFS" => DeploySpec { groups: 1, standbys_per_group: 0, ..DeploySpec::default() },
        "MAMS-3A3S" => DeploySpec::mams(3, 3),
        "MAMS-3A6S" => DeploySpec::mams(3, 6),
        "MAMS-3A9S" => DeploySpec::mams(3, 9),
        "MAMS-3A12S" => DeploySpec::mams(3, 12),
        other => panic!("unknown system {other}"),
    };
    spec.coord = CoordConfig::default();
    spec
}

fn run_cell(system: &str, op: OpKind, seed: u64) -> f64 {
    let mut sim = Sim::new(SimConfig { seed, trace: false, ..SimConfig::default() });
    let mut d = build(&mut sim, spec_for(system));
    if op.needs_population() {
        // Phase 1: create the files the measured phase consumes/reads.
        populate(&mut sim, &mut d, CLIENTS, PRECREATED, Duration::from_secs(300));
    }
    measure_throughput(&mut sim, &mut d, |c| op.workload(c), CLIENTS, WARMUP, MEASURE)
}

fn main() {
    let systems = ["HDFS", "MAMS-3A3S", "MAMS-3A6S", "MAMS-3A9S", "MAMS-3A12S"];
    let ops = [OpKind::Create, OpKind::GetInfo, OpKind::Delete, OpKind::Mkdir, OpKind::Rename];

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for op in ops {
        let mut row = vec![op.name().to_string()];
        let mut jrow = BTreeMap::new();
        for (i, sys) in systems.iter().enumerate() {
            let tput = run_cell(sys, op, 0x5EED + i as u64);
            row.push(format!("{tput:.0}"));
            jrow.insert(sys.to_string(), tput.into());
        }
        jrow.insert("op".into(), op.name().into());
        json_rows.push(Value::Object(jrow));
        rows.push(row);
    }
    let mut headers = vec!["op"];
    headers.extend(systems.iter().copied());
    print_table("Figure 5: ops/sec by system (3 actives, 1-4 standbys each)", &headers, &rows);

    println!("\nShape checks (paper):");
    println!("  * create/getfileinfo: CFS (3 actives) > HDFS (1 namenode)");
    println!("  * delete/mkdir/rename: distributed transactions, no active scaling");
    println!("  * throughput declines only slightly as standbys are added");
    save_json("fig5_standby_scaling", &obj([("rows", arr(json_rows))]));
}
