//! Table II: server state transitions under the three error classes, with a
//! 1A3S replica group (MDS + three backup nodes).
//!
//! * Test A — "modifying the global view to make the active lose the lock":
//!   the deposed active's state is intact, so it re-registers with a
//!   matching sn and returns directly as a standby.
//! * Test B — "taking out / plugging back network wires": unplugged members
//!   expire, show as `-`, and rejoin as juniors that renew back to standby.
//! * Test C — "shutting down and restarting processes": a restarted process
//!   has empty state, registers as junior, and is renewed to standby.

use mams_bench::{
    arr, crash_current_active_at, expire_current_active_at, obj, print_table, reconstruct_states,
    save_json,
};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_sim::{Duration, Sim, SimConfig, SimTime};

fn run_test(
    label: &str,
    schedule: impl FnOnce(&mut Sim, &mams_cluster::deploy::Deployment),
) -> Vec<(f64, Vec<String>)> {
    let mut sim = Sim::new(SimConfig { seed: 0x7AB2, trace: true, ..SimConfig::default() });
    let mut d =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() });
    let metrics = Metrics::new(false);
    for c in 0..2 {
        d.add_client(&mut sim, Workload::create_mkdir(c), metrics.clone());
    }
    schedule(&mut sim, &d);
    sim.run_until(SimTime(200_000_000));
    let rows = reconstruct_states(&sim, &d.groups[0].members);
    println!("\n--- {label} ---");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(t, s)| {
            let mut row = vec![format!("{t:.1}s")];
            row.extend(s.iter().cloned());
            row
        })
        .collect();
    print_table(label, &["time", "MDS", "BN1", "BN2", "BN3"], &table);
    assert!(metrics.ok_count() > 0);
    rows
}

fn main() {
    let a = run_test("Test A: active loses the lock (x3)", |sim, d| {
        let coord = d.coord;
        for t in [20u64, 80, 140] {
            expire_current_active_at(sim, coord, SimTime(t * 1_000_000));
        }
    });
    let b = run_test("Test B: network wires out/in", |sim, d| {
        let m = d.groups[0].members.clone();
        let rest_of = |sim: &Sim, side: &[mams_sim::NodeId]| -> Vec<mams_sim::NodeId> {
            (0..sim.num_nodes() as mams_sim::NodeId).filter(|n| !side.contains(n)).collect()
        };
        // First: two backup nodes unplugged, then replugged.
        let side = vec![m[2], m[3]];
        let rest = rest_of(sim, &side);
        mams_cluster::faults::schedule_partition(
            sim,
            side,
            rest,
            SimTime(20_000_000),
            Some(Duration::from_secs(20)),
        );
        // Then: the active and one standby.
        let side = vec![m[0], m[1]];
        let rest = rest_of(sim, &side);
        mams_cluster::faults::schedule_partition(
            sim,
            side,
            rest,
            SimTime(90_000_000),
            Some(Duration::from_secs(20)),
        );
    });
    let c = run_test("Test C: processes shut down and restarted", |sim, d| {
        crash_current_active_at(sim, d.coord, SimTime(20_000_000), Duration::from_secs(15));
        let m = d.groups[0].members.clone();
        // Later: two of the (by then) standbys go down and come back.
        sim.at(SimTime(90_000_000), {
            let m = m.clone();
            move |s| {
                s.crash(m[1]);
                s.crash(m[2]);
            }
        });
        sim.at(SimTime(110_000_000), move |s| {
            s.restart(m[1]);
            s.restart(m[2]);
        });
    });

    println!("\nShape checks (paper Table II):");
    println!("  * A: deposed active returns directly as S (state intact)");
    println!("  * B: unplugged members show '-' then rejoin as J and renew to S");
    println!("  * C: restarted processes register as J and renew to S");
    let to_json = |rows: &[(f64, Vec<String>)]| {
        arr(rows.iter().map(|(t, s)| obj([("t", (*t).into()), ("states", arr(s.iter().cloned()))])))
    };
    save_json(
        "table2_state_transitions",
        &obj([("test_a", to_json(&a)), ("test_b", to_json(&b)), ("test_c", to_json(&c))]),
    );
}
