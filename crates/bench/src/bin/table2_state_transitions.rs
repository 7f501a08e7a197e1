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

use mams_bench::{arr, obj, print_table, reconstruct_states, save_json};
use mams_cluster::deploy::{build, DeploySpec, Deployment};
use mams_cluster::faults::{self, FaultKind, NodeRef};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_sim::{Sim, SimConfig, SimTime};

fn member(idx: usize) -> NodeRef {
    NodeRef::Member { group: 0, idx }
}

/// Cut the members `side` names away from every other node for 20 s.
fn unplug_members(side: &[usize], d: &Deployment) -> FaultKind {
    let mut rest = vec![NodeRef::Coord, NodeRef::Clients];
    rest.extend((0..d.pool.len()).map(NodeRef::Pool));
    rest.extend((0..d.groups[0].members.len()).filter(|i| !side.contains(i)).map(member));
    let side = side.iter().copied().map(member).collect();
    FaultKind::Partition { a: side, b: rest, heal_ms: Some(20_000) }
}

fn run_test(label: &str, schedule: impl FnOnce(&mut Sim, &Deployment)) -> Vec<(f64, Vec<String>)> {
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
    let at = |secs: u64| SimTime(secs * 1_000_000);
    let active = NodeRef::Active { group: 0 };
    let a = run_test("Test A: active loses the lock (x3)", |sim, d| {
        for t in [20, 80, 140] {
            faults::inject(sim, d, at(t), FaultKind::LockLoss(active));
        }
    });
    let b = run_test("Test B: network wires out/in", |sim, d| {
        // First: two backup nodes unplugged, then replugged.
        faults::inject(sim, d, at(20), unplug_members(&[2, 3], d));
        // Then: the active and one standby.
        faults::inject(sim, d, at(90), unplug_members(&[0, 1], d));
    });
    let c = run_test("Test C: processes shut down and restarted", |sim, d| {
        faults::inject(sim, d, at(20), FaultKind::Crash { node: active, restart_ms: Some(15_000) });
        // Later: two of the (by then) standbys go down and come back.
        for idx in [1, 2] {
            let kind = FaultKind::Crash { node: member(idx), restart_ms: Some(20_000) };
            faults::inject(sim, d, at(90), kind);
        }
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
