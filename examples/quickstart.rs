//! Quickstart: stand up a MAMS replica group (one active, three hot
//! standbys), run a workload, kill the active, and watch the failover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::metrics::Metrics;
use mams::cluster::mttr::mttr_from_completions;
use mams::cluster::workload::Workload;
use mams::sim::{Duration, Sim, SimConfig, SimTime};

fn main() {
    // A deterministic simulated cluster: coordination service, shared
    // storage pool, one replica group with three standbys, data servers.
    let mut sim = Sim::new(SimConfig::default());
    let mut cluster =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() });

    // A closed-loop client creating files as fast as the cluster answers.
    let metrics = Metrics::new(true);
    cluster.add_client(&mut sim, Workload::create_only(0), metrics.clone());

    // Kill the active metadata server at t = 20 s of virtual time.
    let active = cluster.initial_active(0);
    let kill_at = SimTime(20_000_000);
    sim.at(kill_at, move |s| {
        println!("[t=20.0s] >>> crashing the active metadata server (node {active})");
        s.crash(active);
    });

    sim.run_for(Duration::from_secs(45));

    println!(
        "\noperations completed: {} ok, {} failed",
        metrics.ok_count(),
        metrics.failed_count()
    );

    // The failover, step by step, from the protocol trace.
    println!("\nfailover timeline:");
    for e in sim.trace().events().iter().filter(|e| e.time >= kill_at) {
        println!("  {e}");
    }

    let outages = mttr_from_completions(&metrics.completions(), &[kill_at.micros()]);
    if let Some(o) = outages.first() {
        println!(
            "\nMTTR: {:.3} s (last success {:.3}s, first success after recovery {:.3}s)",
            o.mttr_secs(),
            o.last_success_us as f64 / 1e6,
            o.recovered_us as f64 / 1e6
        );
        println!("The 5 s ZooKeeper-style session timeout dominates; election and the");
        println!("active-standby switch themselves take milliseconds (see Figure 7).");
    } else {
        println!("\nservice did not recover — this should never happen");
    }
}
