//! Table I: MTTR vs image size for MAMS-1A3S, BackupNode, Hadoop Avatar,
//! and Hadoop HA.
//!
//! Expected shape (paper): BackupNode grows from ~3 s to ~140 s with image
//! size (block-location recollection); Avatar stays flat around 30 s;
//! Hadoop HA flat around 16–19 s; MAMS flat around 6 s (session timeout +
//! millisecond-scale election and switch + client reconnection), i.e.
//! 14–35 % of the baselines' average MTTR.

use std::collections::BTreeMap;

use mams_baselines::{avatar, backupnode, hadoop_ha, FsScale};
use mams_bench::{arr, obj, print_table, save_json, Value};
use mams_cluster::deploy::DeploySpec;
use mams_cluster::KillRig;
use mams_sim::{SimConfig, SimTime};

const IMAGE_MB: [u64; 7] = [16, 32, 64, 128, 256, 512, 1024];
const REPS: u64 = 5;
const KILL_AT: SimTime = SimTime(15_000_000);

fn run_one(system: &str, image_mb: u64, seed: u64) -> Option<f64> {
    let cfg = SimConfig { seed, trace: true, ..SimConfig::default() };
    let (rig, victim) = if system == "MAMS-1A3S" {
        // Image size does not enter MAMS failover: the standbys are hot
        // and the data servers already report blocks to them.
        let spec = DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() };
        let (rig, d) = KillRig::deployed(cfg, spec);
        (rig, d.initial_active(0))
    } else {
        let mut rig = KillRig::new(cfg);
        let (sim, coord) = (&mut rig.sim, rig.coord);
        let victim = match system {
            "BackupNode" => backupnode::build(sim, coord, FsScale::from_image_mb(image_mb)).0,
            "Hadoop Avatar" => avatar::build(sim, coord).0,
            "Hadoop HA" => hadoop_ha::build(sim, coord).0,
            other => panic!("unknown system {other}"),
        };
        rig.add_client(seed ^ 0xC11E, |_| {});
        (rig, victim)
    };
    // Generous horizon: BackupNode at 1 GB needs ~2.5 virtual minutes.
    let horizon = SimTime(KILL_AT.micros() + 200_000_000);
    rig.mttr_after(KILL_AT, move |s| s.crash(victim), horizon)
}

fn mean_mttr(system: &str, image_mb: u64) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for rep in 0..REPS {
        if let Some(m) = run_one(system, image_mb, 0x7AB1E + rep * 7919 + image_mb) {
            sum += m;
            n += 1;
        }
    }
    assert!(n > 0, "{system} at {image_mb} MB never recovered");
    sum / n as f64
}

fn main() {
    let systems = ["MAMS-1A3S", "BackupNode", "Hadoop Avatar", "Hadoop HA"];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut sums = [0.0f64; 4];
    for &mb in &IMAGE_MB {
        let mut row = vec![mb.to_string()];
        let mut jrow = BTreeMap::new();
        jrow.insert("image_mb".into(), mb.into());
        for (i, sys) in systems.iter().enumerate() {
            let m = mean_mttr(sys, mb);
            sums[i] += m;
            row.push(format!("{m:.3}"));
            jrow.insert(sys.to_string(), m.into());
        }
        rows.push(row);
        json_rows.push(Value::Object(jrow));
        eprintln!("  done {mb} MB");
    }
    let mut headers = vec!["Image (MB)"];
    headers.extend(systems.iter().copied());
    print_table("Table I: MTTR (s) of reliable metadata management systems", &headers, &rows);

    let n = IMAGE_MB.len() as f64;
    let avg: Vec<f64> = sums.iter().map(|s| s / n).collect();
    println!(
        "\nAverage MTTR: MAMS {:.2}s, BackupNode {:.2}s, Avatar {:.2}s, HA {:.2}s",
        avg[0], avg[1], avg[2], avg[3]
    );
    println!(
        "MAMS average failover time is {:.2}% of BackupNode, {:.2}% of Avatar, {:.2}% of HA",
        avg[0] / avg[1] * 100.0,
        avg[0] / avg[2] * 100.0,
        avg[0] / avg[3] * 100.0
    );
    println!("(paper: 14.35% of BackupNode, 19.77% of Avatar, 34.54% of HA)");
    save_json("table1_mttr", &obj([("rows", arr(json_rows)), ("averages", arr(avg))]));
}
