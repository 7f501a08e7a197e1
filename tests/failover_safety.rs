//! Randomized fault-schedule tests for the whole-system safety invariants
//! (DESIGN.md §4): single active per group, no acked-op loss, fencing-epoch
//! monotonicity, divergence-freedom, eventual recovery.

use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::faults::{self, FaultKind, NodeRef};
use mams::cluster::metrics::Metrics;
use mams::cluster::workload::Workload;
use mams::coord::CoordTrace;
use mams::core::{MdsTrace, ViewKey};
use mams::journal::Txn;
use mams::sim::{DetRng, Duration, Sim, SimConfig, SimTime};

/// The fencing epoch of every lock grant, in grant order.
fn grant_epochs(sim: &Sim) -> Vec<u64> {
    let grants = sim.trace().of::<CoordTrace>().filter_map(|(_, _, e)| match e {
        CoordTrace::LockGranted { epoch, .. } => Some(*epoch),
        _ => None,
    });
    grants.collect()
}

/// Some replica failed to replay an acknowledged record: the campaign's own
/// predicate. (`MdsTrace::ResetDivergent`, the discard of a suffix no client
/// was acknowledged for, is legitimate.)
fn diverged(sim: &Sim) -> bool {
    sim.trace().of::<MdsTrace>().any(|(_, _, e)| matches!(e, MdsTrace::Diverged { .. }))
}

/// Build a 1A3S cluster with a client, inject a random fault schedule, and
/// return (sim, metrics) after the run.
fn random_fault_run(seed: u64) -> (Sim, std::sync::Arc<mams::cluster::metrics::Metrics>) {
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    let mut d =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() });
    let metrics = Metrics::new(true);
    d.add_client(&mut sim, Workload::create_mkdir(0), metrics.clone());

    let mut rng = DetRng::seed_from_u64(seed ^ 0xFA17);
    // 4 random faults between t=15s and t=75s, at least 12s apart so the
    // cluster can breathe (the paper's tests also space failures out).
    for k in 0..4u64 {
        let at = SimTime((15 + 15 * k) * 1_000_000 + rng.below(3_000_000));
        let node = NodeRef::Member { group: 0, idx: rng.index(d.groups[0].members.len()) };
        let kind = match rng.below(3) {
            0 => FaultKind::Crash { node, restart_ms: Some(6_000) },
            1 => FaultKind::Unplug { node, heal_ms: 6_000 },
            _ => FaultKind::LockLoss(node),
        };
        faults::inject(&mut sim, &d, at, kind);
    }
    // Long quiet tail so every renewal finishes.
    sim.run_until(SimTime(120_000_000));
    (sim, metrics)
}

#[test]
fn randomized_faults_never_lose_acked_creates() {
    for seed in [11u64, 22, 33, 44, 55] {
        let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
        let mut d = build(
            &mut sim,
            DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() },
        );
        let metrics = Metrics::new(true);
        d.add_client(&mut sim, Workload::create_only(0), metrics.clone());
        let mut rng = DetRng::seed_from_u64(seed);
        for k in 0..3u64 {
            let at = SimTime((15 + 20 * k) * 1_000_000 + rng.below(2_000_000));
            let node = NodeRef::Member { group: 0, idx: rng.index(d.groups[0].members.len()) };
            faults::inject(&mut sim, &d, at, FaultKind::Crash { node, restart_ms: Some(8_000) });
        }
        sim.run_until(SimTime(100_000_000));

        let acked = metrics.ok_count();
        assert!(acked > 1_000, "seed {seed}: too few ops ({acked})");

        // Every acknowledged create must be durable in the shared pool
        // journal (invariant 2: no acked-op loss).
        let pool = d.shared_pool.lock();
        let g = pool.group(0).expect("group journal");
        let mut journaled_creates = 0u64;
        if let Some(batches) = g.read_journal(0, usize::MAX) {
            for b in batches {
                journaled_creates +=
                    b.records.iter().filter(|r| matches!(r, Txn::Create { .. })).count() as u64;
            }
        }
        // acked = setup mkdir + creates; allow the journal to hold *more*
        // (unacked tail), never less.
        assert!(
            journaled_creates + 1 >= acked,
            "seed {seed}: acked {acked} but only {journaled_creates} creates journaled"
        );
    }
}

#[test]
fn randomized_faults_recover_and_stay_consistent() {
    for seed in [7u64, 77, 777] {
        let (sim, metrics) = random_fault_run(seed);

        // Service recovered: successes in the final 20 virtual seconds.
        let late_ok =
            metrics.completions().iter().filter(|c| c.ok && c.at_us > 100_000_000).count();
        assert!(late_ok > 100, "seed {seed}: no traffic after the fault storm ({late_ok})");

        // Fencing epochs only ever increase.
        let epochs = grant_epochs(&sim);
        assert!(!epochs.is_empty(), "seed {seed}: no grants recorded");
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "seed {seed}: epochs {epochs:?}");

        assert!(!diverged(&sim), "seed {seed}: divergence traced");
    }
}

#[test]
fn lock_grants_are_serialized_per_group() {
    // The single-active invariant at the coordination layer: between two
    // grants of a group's lock there must be a release (freed) event.
    let (sim, _metrics) = random_fault_run(0xAB);
    let lock = ViewKey::Lock(0).to_string();
    let mut held = false;
    for (t, _, e) in sim.trace().of::<CoordTrace>() {
        match e {
            CoordTrace::LockGranted { path, .. } if *path == lock => {
                assert!(!held, "double grant without release at {t}: {e:?}");
                held = true;
            }
            CoordTrace::LockFreed { path, .. } if *path == lock => held = false,
            _ => {}
        }
    }
}

#[test]
fn multi_group_cluster_survives_fault_storm() {
    let mut sim = Sim::new(SimConfig { seed: 99, ..SimConfig::default() });
    let spec = DeploySpec::mams(3, 6);
    let mut d = build(&mut sim, spec);
    let metrics = Metrics::new(true);
    for c in 0..4 {
        d.add_client(&mut sim, Workload::mixed(c), metrics.clone());
    }
    // Kill every group's active in quick succession.
    for group in 0..3 {
        let at = SimTime((20 + group as u64 * 3) * 1_000_000);
        let node = NodeRef::Member { group, idx: 0 };
        faults::inject(&mut sim, &d, at, FaultKind::Crash { node, restart_ms: Some(10_000) });
    }
    sim.run_until(SimTime(120_000_000));
    let late_ok = metrics.completions().iter().filter(|c| c.ok && c.at_us > 100_000_000).count();
    assert!(late_ok > 200, "multi-group cluster did not recover ({late_ok})");
    assert!(!diverged(&sim));
}

#[test]
fn coordination_service_restart_heals_without_split_brain() {
    // The coordination service crashes and comes back EMPTY (no sessions,
    // no view, lock epochs reset). The cluster must re-converge to exactly
    // one serving active with no acked-op loss: sessions re-register via
    // NoSession, the view is re-published, and the SSP's monotone fencing
    // epoch blocks any stale-epoch writer a fresh lock grant might create.
    let mut sim = Sim::new(SimConfig { seed: 0xC0DE, ..SimConfig::default() });
    // Rebuild the coord as restartable by building a deployment, then
    // crash-restarting node 0 (the coord is always node 0).
    let mut d =
        build(&mut sim, DeploySpec { groups: 1, standbys_per_group: 2, ..DeploySpec::default() });
    let metrics = Metrics::new(true);
    d.add_client(&mut sim, Workload::create_only(0), metrics.clone());
    sim.run_until(SimTime(100_000_000));
    assert!(metrics.ok_count() > 1_000);

    // Emulate a total coordination outage: unplug the coord long enough
    // for every session (including the active's) to expire, then plug it
    // back. On heal, every member re-registers through NoSession and the
    // view is rebuilt from scratch.
    let unplug = FaultKind::Unplug { node: NodeRef::Coord, heal_ms: 12_000 };
    let now = sim.now();
    faults::inject(&mut sim, &d, now, unplug);
    sim.run_for(Duration::from_secs(42));

    // Converged: traffic flows again...
    let late = metrics
        .completions()
        .iter()
        .filter(|c| c.ok && c.at_us > sim.now().micros() - 10_000_000)
        .count();
    assert!(late > 500, "cluster did not heal after coord outage ({late})");
    // ...no acked create was lost...
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("journal");
    let mut creates = 0u64;
    if let Some(batches) = g.read_journal(0, usize::MAX) {
        for b in batches {
            creates +=
                b.records.iter().filter(|r| matches!(r, mams::journal::Txn::Create { .. })).count()
                    as u64;
        }
    }
    assert!(creates + 1 >= metrics.ok_count(), "acked {} journaled {creates}", metrics.ok_count());
    drop(pool);
    // ...and the epoch history stayed monotone per grant.
    let epochs = grant_epochs(&sim);
    assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epoch regression: {epochs:?}");
}
