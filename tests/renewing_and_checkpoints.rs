//! Integration tests for the renewing protocol: image-based recovery,
//! checkpoint compaction, interruption-and-resume, and junior takeover when
//! no standby is left.

use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::metrics::Metrics;
use mams::cluster::workload::Workload;
use mams::core::{MdsReq, MdsTrace};
use mams::sim::{NodeId, Sim, SimConfig, SimTime};

/// Whether a member recorded an event `pick` accepts at or after `from`.
fn traced(sim: &Sim, from: SimTime, pick: impl Fn(NodeId, &MdsTrace) -> bool) -> bool {
    sim.trace().of::<MdsTrace>().any(|(t, node, e)| t >= from && pick(node, e))
}

/// The active promoted `junior` to standby.
fn promoted(junior: NodeId) -> impl Fn(NodeId, &MdsTrace) -> bool {
    move |_, e| matches!(e, MdsTrace::JuniorPromoted { junior: j } if *j == junior)
}

fn checkpointing_cluster(
    seed: u64,
    standbys: usize,
) -> (Sim, mams::cluster::deploy::Deployment, std::sync::Arc<Metrics>) {
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    let mut d = build(
        &mut sim,
        DeploySpec { groups: 1, standbys_per_group: standbys, ..DeploySpec::default() },
    );
    let metrics = Metrics::new(true);
    d.add_client(&mut sim, Workload::create_only(0), metrics.clone());
    let active = d.initial_active(0);
    sim.at(SimTime(10_000_000), move |s| s.send_external(active, MdsReq::Checkpoint));
    (sim, d, metrics)
}

#[test]
fn restarted_member_recovers_through_the_image() {
    let (mut sim, d, metrics) = checkpointing_cluster(1, 2);
    let standby = d.groups[0].members[1];
    sim.at(SimTime(15_000_000), move |s| s.crash(standby));
    sim.at(SimTime(20_000_000), move |s| s.restart(standby));
    sim.run_until(SimTime(60_000_000));

    assert!(
        traced(&sim, SimTime::ZERO, |_, e| matches!(e, MdsTrace::CheckpointDone { .. })),
        "checkpoint must land in the pool"
    );
    // The journal before the checkpoint is compacted, so the junior MUST
    // have gone through the image path.
    let image_loaded = |n, e: &_| n == standby && matches!(e, MdsTrace::ImageLoaded { .. });
    assert!(
        traced(&sim, SimTime::ZERO, image_loaded),
        "junior recovered without loading the image"
    );
    assert!(
        traced(&sim, SimTime(20_000_000), |_, e| matches!(e, MdsTrace::JuniorPromoted { .. })),
        "junior never promoted"
    );
    assert_eq!(metrics.failed_count(), 0);
}

#[test]
fn renewal_survives_active_failure_midway() {
    // The active dies while the junior is catching up; a new active takes
    // over and the renewal completes against it.
    let (mut sim, d, metrics) = checkpointing_cluster(2, 3);
    let active = d.initial_active(0);
    let standby = d.groups[0].members[1];
    sim.at(SimTime(15_000_000), move |s| s.crash(standby));
    sim.at(SimTime(20_000_000), move |s| s.restart(standby));
    // Kill the active shortly after the renew session starts.
    sim.at(SimTime(21_500_000), move |s| s.crash(active));
    sim.run_until(SimTime(90_000_000));

    assert!(
        traced(&sim, SimTime::ZERO, promoted(standby)),
        "junior must eventually be renewed by the new active"
    );
    // Service recovered from the active failure too.
    let late_ok = metrics.completions().iter().filter(|c| c.ok && c.at_us > 80_000_000).count();
    assert!(late_ok > 100, "no late traffic ({late_ok})");
}

#[test]
fn junior_with_max_sn_takes_over_when_no_standby_left() {
    // Algorithm 1's second branch: kill ALL standbys, then the active.
    // The only survivors are juniors (restarted empties); the one with the
    // maximum journal sn must win the lock and serve after catching up
    // from the pool. Second input: a checkpoint has compacted the shared
    // journal and the active dies before either junior renewed anything, so
    // the winner is elected *behind the journal's base* and its switch must
    // go through the image.
    for (checkpointed, active_dies_at) in [(false, 18_500_000), (true, 17_200_000)] {
        let mut sim = Sim::new(SimConfig { seed: 3, ..SimConfig::default() });
        let spec = DeploySpec { groups: 1, standbys_per_group: 2, ..DeploySpec::default() };
        let mut d = build(&mut sim, spec);
        let metrics = Metrics::new(true);
        d.add_client(&mut sim, Workload::create_only(0), metrics.clone());
        let m = d.groups[0].members.clone();
        if checkpointed {
            let active = m[0];
            sim.at(SimTime(10_000_000), move |s| s.send_external(active, MdsReq::Checkpoint));
        }
        // Kill both standbys and bring them back (they rejoin as juniors
        // and begin renewing)...
        sim.at(SimTime(15_000_000), {
            let m = m.clone();
            move |s| {
                s.crash(m[1]);
                s.crash(m[2]);
            }
        });
        sim.at(SimTime(17_000_000), {
            let m = m.clone();
            move |s| {
                s.restart(m[1]);
                s.restart(m[2]);
            }
        });
        // ...then kill the active while they are still juniors (renew_scan
        // only starts a session at most once a second, and a junior needs
        // the gap replay; 1.5s in they are typically still J, 0.2s in they
        // have not begun).
        sim.at(SimTime(active_dies_at), {
            let m = m.clone();
            move |s| s.crash(m[0])
        });
        sim.run_until(SimTime(90_000_000));

        // Someone took over and service resumed.
        let late_ok = metrics.completions().iter().filter(|c| c.ok && c.at_us > 70_000_000).count();
        assert!(late_ok > 100, "no takeover by surviving members ({late_ok})");
        // And the winner was one of the two juniors.
        let events: Vec<_> = sim.trace().of::<MdsTrace>().collect();
        let switch = events
            .iter()
            .rposition(|(_, _, e)| matches!(e, MdsTrace::SwitchDone { .. }))
            .expect("a switch completed");
        let winner = events[switch].1;
        assert!(m[1..].contains(&winner), "winner {winner} was not a junior");
        if checkpointed {
            let upgrade = events[..switch]
                .iter()
                .rposition(|&(_, n, e)| n == winner && matches!(e, MdsTrace::LockAcquired { .. }))
                .expect("the winner took the lock");
            assert!(
                events[upgrade..switch]
                    .iter()
                    .any(|&(_, n, e)| n == winner && matches!(e, MdsTrace::ImageLoaded { .. })),
                "the winner switched without loading the image"
            );
        }
        // No acked op was lost (the journal check).
        let pool = d.shared_pool.lock();
        let g = pool.group(0).expect("journal");
        assert!(g.tail_sn() > 0);
    }
}

#[test]
fn checkpoint_compacts_the_shared_journal() {
    let (mut sim, d, _metrics) = checkpointing_cluster(4, 2);
    sim.run_until(SimTime(20_000_000));
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("journal");
    let checkpoint_sn = g.manifest().base().expect("image stored").end_sn;
    assert!(checkpoint_sn > 0);
    // Reads from before the checkpoint fall back to the image.
    assert!(g.read_journal(0, 10).is_none(), "pre-checkpoint journal must be compacted");
    assert!(g.read_journal(checkpoint_sn, 10).is_some());
}

#[test]
fn interrupted_image_transfer_resumes_from_its_checkpoint() {
    // "the junior records the checkpoint that has been committed. It can
    // continue to recover from other replicas in the last position and
    // avoid retransmitting the whole files if there are any interrupts"
    // (Section III-D). Force a many-chunk transfer (tiny chunks + slow
    // image disk), kill the active mid-transfer, and verify the junior
    // resumes from its offset under the next active instead of starting
    // over.
    use mams::cluster::deploy::{build, DeploySpec};
    use mams::cluster::metrics::Metrics;
    use mams::cluster::workload::Workload;
    use mams::sim::Duration;
    use mams::storage::DiskModel;

    let mut sim = Sim::new(SimConfig { seed: 21, ..SimConfig::default() });
    let mut spec = DeploySpec { groups: 1, standbys_per_group: 3, ..DeploySpec::default() };
    spec.timing.image_chunk = 2 * 1024; // many chunks
    spec.pool_disks = Some((
        DiskModel::journal_disk(),
        DiskModel { op_overhead: Duration::from_millis(150), bytes_per_sec: 10 * 1024 * 1024 },
    ));
    let mut d = build(&mut sim, spec);
    let m = Metrics::new(false);
    for c in 0..4 {
        d.add_client(&mut sim, Workload::create_only(c), m.clone());
    }
    let active = d.initial_active(0);
    sim.at(SimTime(10_000_000), move |s| s.send_external(active, mams::core::MdsReq::Checkpoint));
    // Crash + restart a standby so it must renew through the (slow) image.
    let standby = d.groups[0].members[1];
    sim.at(SimTime(12_000_000), move |s| s.crash(standby));
    sim.at(SimTime(14_000_000), move |s| s.restart(standby));
    // Kill the active while the junior is mid-transfer (renew sessions
    // start within ~1.25s of registration; the transfer takes ~20s at
    // 150ms per 2KB chunk, so the new active's renewing session opens
    // while the image is still streaming and must resume, not restart).
    sim.at(SimTime(17_000_000), move |s| s.crash(active));
    sim.run_until(SimTime(90_000_000));

    let resumed = |n, e: &_| n == standby && matches!(e, MdsTrace::RenewResumed { .. });
    assert!(
        traced(&sim, SimTime::ZERO, resumed),
        "junior must resume the image transfer, not restart it"
    );
    let past_zero = |_, e: &_| matches!(e, MdsTrace::RenewResumed { offset, .. } if *offset > 0);
    assert!(traced(&sim, SimTime::ZERO, past_zero), "resume offset should be past zero");
    assert!(
        traced(&sim, SimTime::ZERO, promoted(standby)),
        "junior must finish renewing after the interruption"
    );
}
