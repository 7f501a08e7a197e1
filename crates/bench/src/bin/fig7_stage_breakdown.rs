//! Figure 7: proportion of MAMS failover time spent in each stage,
//! excluding the session timeout — active election, active-standby
//! switching, and client reconnection.
//!
//! Expected shape (paper): election is the smallest share (<100 ms —
//! event-triggered bids + the lock grant), switching is bounded and stable,
//! and client reconnection grows to dominate as total failover time grows.

use mams_bench::{arr, obj, print_table, save_json};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_core::MdsTrace;
use mams_sim::{Sim, SimConfig, SimTime};

const KILL_AT: SimTime = SimTime(15_000_000);
const RUNS: u64 = 10;

struct Stages {
    election_ms: f64,
    switching_ms: f64,
    reconnection_ms: f64,
}

fn run_once(seed: u64) -> Option<Stages> {
    let mut sim = Sim::new(SimConfig { seed, trace: true, ..SimConfig::default() });
    let mut d =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() });
    let metrics = Metrics::new(true);
    d.add_client(&mut sim, Workload::create_only(0), metrics.clone());
    let victim = d.initial_active(0);
    sim.at(KILL_AT, move |s| s.crash(victim));
    sim.run_until(SimTime(45_000_000));

    // When each stage was first reached after the kill.
    let first = |stage: fn(&MdsTrace) -> bool| {
        sim.trace().of().find(|&(t, _, e)| t >= KILL_AT && stage(e)).map(|(t, _, _)| t)
    };
    let detected = first(|e| matches!(e, MdsTrace::FailureDetected))?;
    let lock = first(|e| matches!(e, MdsTrace::LockAcquired { .. }))?;
    let switch_done = first(|e| matches!(e, MdsTrace::SwitchDone { .. }))?;
    let first_success = metrics
        .completions()
        .iter()
        .filter(|c| c.ok && c.at_us > switch_done.micros())
        .map(|c| c.at_us)
        .next()?;
    Some(Stages {
        election_ms: (lock - detected).micros() as f64 / 1e3,
        switching_ms: (switch_done - lock).micros() as f64 / 1e3,
        reconnection_ms: (first_success - switch_done.micros()) as f64 / 1e3,
    })
}

fn main() {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut ok_elect = true;
    for run in 0..RUNS {
        let s = match run_once(0xF167 + run * 104_729) {
            Some(s) => s,
            None => continue,
        };
        let total = s.election_ms + s.switching_ms + s.reconnection_ms;
        rows.push(vec![
            format!("{run}"),
            format!("{:.1}", s.election_ms),
            format!("{:.1}", s.switching_ms),
            format!("{:.1}", s.reconnection_ms),
            format!("{:.1}", total),
            format!("{:.0}%", s.election_ms / total * 100.0),
            format!("{:.0}%", s.switching_ms / total * 100.0),
            format!("{:.0}%", s.reconnection_ms / total * 100.0),
        ]);
        json_rows.push(obj([
            ("election_ms", s.election_ms.into()),
            ("switching_ms", s.switching_ms.into()),
            ("reconnection_ms", s.reconnection_ms.into()),
        ]));
        ok_elect &= s.election_ms < 100.0;
    }
    print_table(
        "Figure 7: MAMS failover stages (excluding the 5 s session timeout)",
        &[
            "run",
            "election ms",
            "switch ms",
            "reconnect ms",
            "total ms",
            "elec %",
            "switch %",
            "reconn %",
        ],
        &rows,
    );
    println!("\nShape checks (paper):");
    println!("  * election under 100 ms in every run: {}", if ok_elect { "yes" } else { "NO" });
    println!("  * client reconnection dominates as total failover time grows");
    save_json("fig7_stage_breakdown", &obj([("runs", arr(json_rows))]));
}
