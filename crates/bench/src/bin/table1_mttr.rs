//! Table I: MTTR vs image size for MAMS-1A3S, BackupNode, Hadoop Avatar,
//! and Hadoop HA.
//!
//! Expected shape (paper): BackupNode grows from ~3 s to ~140 s with image
//! size (block-location recollection); Avatar stays flat around 30 s;
//! Hadoop HA flat around 16–19 s; MAMS flat around 6 s (session timeout +
//! millisecond-scale election and switch + client reconnection), i.e.
//! 14–35 % of the baselines' average MTTR.

use std::collections::BTreeMap;

use mams_baselines::{FsScale, KillRig, Mechanism};
use mams_bench::{arr, obj, print_table, save_json, Value};
use mams_cluster::deploy::{DeploySpec, CLIENT_SEED};
use mams_sim::{SimConfig, SimTime};

const IMAGE_MB: [u64; 7] = [16, 32, 64, 128, 256, 512, 1024];
const REPS: u64 = 5;
const KILL_AT: SimTime = SimTime(15_000_000);

/// The table's columns at one image size.
fn systems(image_mb: u64) -> [(&'static str, Mechanism); 4] {
    // Image size does not enter MAMS failover: the standbys are hot and the
    // data servers already report blocks to them.
    let mams = DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() };
    [
        ("MAMS-1A3S", Mechanism::Mams(mams)),
        ("BackupNode", Mechanism::BackupNode(FsScale::from_image_mb(image_mb))),
        ("Hadoop Avatar", Mechanism::Avatar),
        ("Hadoop HA", Mechanism::HadoopHa),
    ]
}

fn run_one(mechanism: Mechanism, seed: u64) -> f64 {
    // MAMS's client draws from its deployment's first client seed.
    let client_seed =
        if matches!(mechanism, Mechanism::Mams(_)) { CLIENT_SEED } else { seed ^ 0xC11E };
    let mut rig = KillRig::new(SimConfig { seed, trace: true, ..SimConfig::default() }, mechanism);
    rig.add_client(client_seed, |_| {});
    // Generous horizon: BackupNode at 1 GB needs ~2.5 virtual minutes.
    rig.mttr_after(KILL_AT, SimTime(KILL_AT.micros() + 200_000_000))
}

fn mean_mttr(mechanism: &Mechanism, image_mb: u64) -> f64 {
    let reps = (0..REPS).map(|rep| run_one(mechanism.clone(), 0x7AB1E + rep * 7919 + image_mb));
    reps.sum::<f64>() / REPS as f64
}

fn main() {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut sums = [0.0f64; 4];
    for &mb in &IMAGE_MB {
        let mut row = vec![mb.to_string()];
        let mut jrow = BTreeMap::new();
        jrow.insert("image_mb".into(), mb.into());
        for (i, (label, mechanism)) in systems(mb).iter().enumerate() {
            let m = mean_mttr(mechanism, mb);
            sums[i] += m;
            row.push(format!("{m:.3}"));
            jrow.insert(label.to_string(), m.into());
        }
        rows.push(row);
        json_rows.push(Value::Object(jrow));
        eprintln!("  done {mb} MB");
    }
    let mut headers = vec!["Image (MB)"];
    headers.extend(systems(0).map(|(label, _)| label));
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
