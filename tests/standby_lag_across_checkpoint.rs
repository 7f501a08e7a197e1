//! A standby that misses batches across a checkpoint must be repaired by
//! the active, not stranded behind the compaction.
//!
//! A 60 ms one-way cut active → standby loses a few `SyncJournal`s. The
//! checkpoint that fires inside the cut used to compact the active's log
//! and the pool's journal past the standby's hole: the active's re-push
//! found nothing to read, the standby's own pool read was answered
//! `compacted` and dropped, and every later batch waited on that standby
//! for ever — a total outage with every node up and the network healed.
//! The active now keeps its log back to what every standby has
//! acknowledged and re-pushes the whole missing range.
//!
//! The second test is the same outage by another road: a standby that
//! crashes and is back before its session lapses registers again at sn 0
//! while the active still counts it in the sync set. Every sealed batch
//! used to keep its copy of that vote; with the log compacted there was
//! nothing to re-push, the renewing promoted the member without a single
//! `SyncAck`, and no reply left the active again. A member that registers
//! behind the tail now leaves the sync set, and nothing waits for it.

mod common;

use common::{first, group, mds, secs, Group};
use mams::core::{MdsReq, MdsTiming, MdsTrace, Role};
use mams::sim::Duration;

#[test]
fn a_cut_spanning_a_checkpoint_does_not_stop_the_group() {
    let timing =
        MdsTiming { checkpoint_interval: Some(Duration::from_secs(4)), ..MdsTiming::default() };
    let Group { mut sim, members, clients, metrics, .. } = group(5, 1, timing, 3);
    let (active, standby) = (members[0], members[1]);
    // The second checkpoint tick (8 s) falls inside the cut.
    sim.at(secs(7.96), move |s| s.net_mut().cut_one_way(active, standby));
    sim.at(secs(8.02), move |s| s.net_mut().heal_one_way(active, standby));
    sim.run_until(secs(8.02));
    let at_heal = metrics.ok_count();
    assert!(at_heal > 1_000, "the workload barely ran ({at_heal} ok)");
    assert!(
        first(&sim, secs(7.96), |_, e| matches!(e, MdsTrace::CheckpointDone { .. })).is_some(),
        "the checkpoint was meant to land inside the cut"
    );

    sim.run_until(secs(9.02));
    let resumed = metrics.ok_count() - at_heal;
    assert!(resumed > 100, "{resumed} ops acknowledged in the second after the heal");

    sim.run_until(secs(20.0));
    for c in clients {
        sim.crash(c);
    }
    sim.run_for(Duration::from_secs(1));
    let (a, s) = (mds(&sim, active), mds(&sim, standby));
    assert_eq!((a.role(), s.role()), (Role::Active, Role::Standby));
    assert_eq!(s.applied_sn(), a.applied_sn());
    assert_eq!(s.fingerprint(), a.fingerprint());
    assert_eq!(a.divergences() + s.divergences(), 0);
    assert_eq!(metrics.failed_count(), 0);
}

#[test]
fn a_standby_back_before_its_session_lapsed_does_not_stop_the_group() {
    let Group { mut sim, members, clients, metrics, .. } = group(0x51, 1, MdsTiming::default(), 4);
    let (active, standby) = (members[0], members[1]);
    // Compact the active's log first: what the standby lost cannot be
    // re-pushed, it has to come from the pool.
    sim.at(secs(3.0), move |s| s.send_external(active, MdsReq::Checkpoint));
    sim.at(secs(6.0), move |s| s.crash(standby));
    sim.at(secs(7.0), move |s| s.restart(standby));
    sim.run_until(secs(7.0));
    assert!(first(&sim, secs(3.0), |_, e| matches!(e, MdsTrace::CheckpointDone { .. })).is_some());
    let at_restart = metrics.ok_count();
    assert!(at_restart > 1_000, "the workload barely ran ({at_restart} ok)");

    // One second for the renewing scan to find the junior, and it is back.
    sim.run_until(secs(9.0));
    assert!(
        first(&sim, secs(7.0), |_, e| matches!(e, MdsTrace::JuniorPromoted { .. })).is_some(),
        "the restarted member was meant to be renewed"
    );
    let resumed = metrics.ok_count() - at_restart;
    assert!(resumed > 1_000, "{resumed} ops acknowledged in the two seconds after the restart");

    sim.run_until(secs(12.0));
    for c in clients {
        sim.crash(c);
    }
    sim.run_for(Duration::from_secs(1));
    let (a, s) = (mds(&sim, active), mds(&sim, standby));
    assert_eq!((a.role(), s.role()), (Role::Active, Role::Standby));
    assert_eq!(s.applied_sn(), a.applied_sn());
    assert_eq!(s.fingerprint(), a.fingerprint());
    assert_eq!(a.divergences() + s.divergences(), 0);
    assert_eq!(metrics.failed_count(), 0);
}
