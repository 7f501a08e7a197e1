//! Figure 8: metadata-operation throughput over time under the three fault
//! schedules (a: lock loss, b: network unplug, c: process restart), with a
//! MAMS-1A3S group serving continuous create + regular mkdir operations.
//!
//! Expected shape (paper): throughput dips to zero for the failover window
//! at each injection (60 s, 120 s, 180 s), shows a slight bump right after
//! recovery (retried requests draining), and returns to the pre-fault
//! level.

use mams_bench::{arr, obj, print_table, save_json};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::faults::{self, FaultKind, NodeRef};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_sim::{Sim, SimConfig, SimTime};

const CLIENTS: u32 = 8;
const RUN_SECS: u64 = 240;
const INJECT_SECS: [u64; 3] = [60, 120, 180];

/// Run the group with `fault` injected at each of [`INJECT_SECS`].
fn run(label: &str, fault: FaultKind) -> Vec<u64> {
    let mut sim = Sim::new(SimConfig { seed: 0xF168, trace: true, ..SimConfig::default() });
    let mut d =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() });
    let metrics = Metrics::new(false);
    for c in 0..CLIENTS {
        d.add_client(&mut sim, Workload::create_mkdir(c), metrics.clone());
    }
    for &t in &INJECT_SECS {
        faults::inject(&mut sim, &d, SimTime(t * 1_000_000), fault.clone());
    }
    sim.run_until(SimTime(RUN_SECS * 1_000_000));
    let mut ps = metrics.per_second();
    ps.resize(RUN_SECS as usize, 0);
    println!("\n--- {label}: requests/second (5s buckets) ---");
    let rows: Vec<Vec<String>> = (0..RUN_SECS as usize / 5)
        .map(|b| {
            let t = b * 5;
            let avg: u64 = ps[t..t + 5].iter().sum::<u64>() / 5;
            vec![format!("{t}-{}s", t + 5), format!("{avg}")]
        })
        .collect();
    print_table(label, &["window", "req/s"], &rows);
    // Shape checks: a dip at each injection, recovery afterwards.
    let steady: u64 = ps[30..55].iter().sum::<u64>() / 25;
    for &inj in &INJECT_SECS {
        let i = inj as usize;
        let dip = *ps[i..i + 8].iter().min().expect("window");
        let recovered: u64 = ps[i + 15..(i + 35).min(ps.len())].iter().sum::<u64>()
            / (35 - 15).min(ps.len() - i - 15) as u64;
        assert!(dip < steady / 4, "{label}: no visible dip at {inj}s (dip {dip}, steady {steady})");
        assert!(
            recovered > steady * 7 / 10,
            "{label}: no recovery after {inj}s (rec {recovered}, steady {steady})"
        );
    }
    println!("steady ~{steady} req/s; dips and recoveries verified at 60/120/180s");
    ps
}

fn main() {
    let active = NodeRef::Active { group: 0 };
    let a = run("(a) Test A: active loses the lock", FaultKind::LockLoss(active));
    let b = run(
        "(b) Test B: network wires pulled",
        FaultKind::Unplug { node: active, heal_ms: 12_000 },
    );
    let c = run(
        "(c) Test C: process shutdown/restart",
        FaultKind::Crash { node: active, restart_ms: Some(12_000) },
    );
    save_json(
        "fig8_failover_throughput",
        &obj([("test_a", arr(a)), ("test_b", arr(b)), ("test_c", arr(c))]),
    );
}
