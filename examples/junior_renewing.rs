//! The renewing protocol in action: a crashed member restarts with empty
//! state, registers as a junior, loads the namespace image from the shared
//! storage pool, replays the journal tail, and is promoted back to a hot
//! standby.
//!
//! ```sh
//! cargo run --release --example junior_renewing
//! ```

use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::metrics::Metrics;
use mams::cluster::workload::Workload;
use mams::core::MdsReq;
use mams::sim::{Duration, Sim, SimConfig, SimTime};

fn main() {
    let mut sim = Sim::new(SimConfig::default());
    let mut cluster =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 2, ..DeploySpec::default() });
    let metrics = Metrics::new(false);
    cluster.add_client(&mut sim, Workload::create_only(0), metrics.clone());

    // Let the namespace grow, then checkpoint an image into the SSP (the
    // active compacts the shared journal through the checkpoint).
    let active = cluster.initial_active(0);
    let checkpoint_at = SimTime(10_000_000);
    sim.at(checkpoint_at, move |s| {
        println!("[t=10s] requesting a namespace image checkpoint");
        s.send_external(active, MdsReq::Checkpoint);
    });

    // Crash a standby; restart it 5 s later with empty state. Because the
    // journal before the checkpoint is compacted, the junior must load the
    // image and then replay only the tail — resumably, in chunks.
    let standby = cluster.groups[0].members[1];
    sim.at(SimTime(15_000_000), move |s| {
        println!("[t=15s] >>> crashing standby node {standby}");
        s.crash(standby);
    });
    sim.at(SimTime(20_000_000), move |s| {
        println!("[t=20s] >>> restarting node {standby} (fresh, empty state)");
        s.restart(standby);
    });

    sim.run_for(Duration::from_secs(45));

    println!("\nrenewing timeline, from the protocol trace:");
    for e in sim.trace().events().iter().filter(|e| e.time >= checkpoint_at) {
        println!("  {e}");
    }
    println!(
        "\nclient saw {} successful operations and {} failures — the renewal ran",
        metrics.ok_count(),
        metrics.failed_count()
    );
    println!("entirely in the background, exactly as Section III-D describes.");
}
