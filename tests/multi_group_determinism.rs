//! One seed, one run — also with several replica groups.
//!
//! A structural op in a multi-group deployment fans out to every other
//! group's active, and legs a group has not acknowledged are resent on a
//! timer in the iteration order of the coordinator-side maps. Those maps were
//! `RandomState` hash maps, so two runs of one seed sent the retries — and
//! drew their link latencies — in different orders. This pins the fix: two
//! same-seed MAMS-3A3S clusters, one group's active crashed mid-run so that
//! legs do go unacknowledged, acknowledge the same ops at the same virtual
//! microseconds, client by client, and finish with identical `applied_sn` /
//! `fingerprint` on every member.
//!
//! The same crash with bounded clients is also the smallest cross-group
//! check there is: once the run is quiet, every group's active holds the
//! same directory skeleton (`a_successor_mints_xids_its_predecessor_never_used`).

use std::sync::Arc;

use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::{Completion, Metrics, Workload};
use mams::coord::CoordTrace;
use mams::core::{MdsServer, Role};
use mams::sim::{Duration, LatencyModel, NodeId, Sim, SimConfig, SimTime};

const CLIENTS: u32 = 24;

/// What a run leaves behind: every op's issue and completion time per
/// client, `(applied_sn, fingerprint)` per member, group by group, the
/// rendered trace, and each group's directory skeleton as its active holds
/// it.
type Outcome = (Vec<Vec<Completion>>, Vec<Vec<(u64, u64)>>, String, Vec<u64>);

/// MAMS-3A3S under 24 clients making directories (`max_ops` each, or as
/// many as 16 s allow), with `faults` scheduled against the three boot-time
/// actives. A bounded run goes on until it is quiet.
fn run(
    seed: u64,
    max_ops: Option<u64>,
    faults: impl FnOnce(&mut Sim, NodeId, [NodeId; 3]),
) -> (Outcome, Sim) {
    let mut sim = Sim::new(SimConfig { seed, trace: true, latency: LatencyModel::lan() });
    let mut d = build(&mut sim, DeploySpec::mams(3, 3));
    let metrics: Vec<Arc<Metrics>> = (0..CLIENTS).map(|_| Metrics::new(true)).collect();
    for (c, m) in (0..CLIENTS).zip(&metrics) {
        d.add_client_with(&mut sim, Workload::mkdir_only(c), m.clone(), |cfg| {
            mams::cluster::ClientConfig { max_ops, ..cfg }
        });
    }
    faults(&mut sim, d.coord, [0, 1, 2].map(|g| d.initial_active(g)));
    sim.run_for(Duration::from_secs(16));
    if let Some(n) = max_ops {
        let done = |ms: &[Arc<Metrics>]| ms.iter().all(|m| m.ok_count() + m.failed_count() >= n);
        while !done(&metrics) && sim.now() < SimTime(120_000_000) {
            sim.run_for(Duration::from_secs(1));
        }
        sim.run_for(Duration::from_secs(3)); // legs, acks and standbys settle
    }

    let acked = metrics.iter().map(|m| m.completions()).collect();
    let member = |&id| {
        let s: &MdsServer = sim.node(id).expect("every member is up at the end");
        (s.applied_sn(), s.fingerprint())
    };
    let state = d.groups.iter().map(|g| g.members.iter().map(member).collect()).collect();
    let skeleton = |g: &mams::cluster::deploy::GroupHandle| {
        let mut actives = g.members.iter().filter_map(|&id| sim.node::<MdsServer>(id));
        let active = actives.find(|s| s.role() == Role::Active).expect("the group has an active");
        active.skeleton_fingerprint()
    };
    let skeletons = d.groups.iter().map(skeleton).collect();
    let timeline = sim.trace().to_string();
    ((acked, state, timeline, skeletons), sim)
}

/// Group 1 loses its active: until its standby is promoted, every mkdir
/// coordinated elsewhere has a leg that only the retry timer delivers.
fn crash_one_active(seed: u64, max_ops: Option<u64>) -> Outcome {
    let (outcome, _) = run(seed, max_ops, |sim, _, actives| {
        let victim = actives[1];
        sim.at(SimTime(4_000_000), move |s| s.crash(victim));
        sim.at(SimTime(9_000_000), move |s| s.restart(victim));
    });
    outcome
}

#[test]
fn same_seed_3a3s_clusters_end_identically() {
    let first = crash_one_active(0x5eed, None);
    assert!(first.0.iter().all(|c| c.len() > 100), "every client made progress");
    for again in 0..2 {
        // Not `assert_eq!`: a failure would print every completion twice.
        assert!(crash_one_active(0x5eed, None) == first, "repeat {again} of one seed diverged");
    }
    assert!(crash_one_active(0x5eee, None).0 != first.0, "another seed is another run");
}

/// A transaction id names the tenure that minted it. Group 1's successor
/// coordinates its first mkdirs while groups 0 and 2 still remember, by xid,
/// every leg its predecessor sent them: were the successor to count from the
/// predecessor's start again, they would answer "already done" for work they
/// never did, the clients would be acknowledged all the same, and the
/// skeletons would differ for good.
#[test]
fn a_successor_mints_xids_its_predecessor_never_used() {
    const OPS: u64 = 600;
    let (acked, _, _, skeletons) = crash_one_active(0x5eed, Some(OPS));
    for (c, done) in acked.iter().enumerate() {
        assert_eq!(done.len() as u64, OPS, "client {c} finished its script");
        assert!(done.iter().all(|d| d.ok), "client {c} had every mkdir acknowledged");
    }
    assert!(
        skeletons.iter().all(|&s| s == skeletons[0]),
        "every mkdir was acknowledged, yet the groups' directory skeletons differ: {skeletons:x?}"
    );
}

/// All three actives are cut from the coordinator for longer than the
/// session timeout, so their sessions lapse in one expiry scan. The
/// coordinator kept sessions and locks in `RandomState` hash maps and
/// expired the dead in iteration order: the `KeyChanged` / `LockFreed` /
/// `SessionExpired` sends, each a latency draw from the one rng, came in a
/// different order on each run of one seed.
#[test]
fn sessions_lapsing_in_one_scan_expire_in_one_order() {
    let cut_from_coordinator = |seed| {
        run(seed, None, |sim, coord, actives| {
            sim.at(SimTime(3_000_000), move |s| {
                actives.iter().for_each(|&a| s.net_mut().cut(a, coord))
            });
            sim.at(SimTime(10_000_000), move |s| {
                actives.iter().for_each(|&a| s.net_mut().heal(a, coord))
            });
        })
    };
    let (first, sim) = cut_from_coordinator(0x5eed);
    let expiries: Vec<SimTime> = sim
        .trace()
        .of::<CoordTrace>()
        .filter(|(_, _, e)| matches!(e, CoordTrace::SessionExpired { .. }))
        .map(|(t, _, _)| t)
        .collect();
    assert_eq!(expiries.len(), 3, "the three cut sessions were meant to lapse");
    assert!(
        expiries.iter().all(|&t| t == expiries[0]),
        "the three sessions were meant to lapse in one scan"
    );
    // Three sessions agree by luck one time in six: four repeats let a
    // hash-ordered coordinator through once in 1 296 runs.
    for again in 0..4 {
        assert!(cut_from_coordinator(0x5eed).0 == first, "repeat {again} of one seed diverged");
    }
}
