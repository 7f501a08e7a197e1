//! End-to-end tests: full deployments under load and failures.

// clippy.toml's hash map is banned from `FsIo` alone (client.rs).
#![allow(clippy::disallowed_types)]

use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::faults::{self, FaultKind, NodeRef};
use mams_cluster::metrics::Metrics;
use mams_cluster::mttr::{mean_mttr_secs, mttr_from_completions};
use mams_cluster::workload::Workload;
use mams_cluster::DataServer;
use mams_coord::CoordTrace;
use mams_core::{MdsServer, MdsTrace};
use mams_sim::{Duration, NodeStatus, Sim, SimConfig, SimTime, SimTrace};

fn sim(seed: u64) -> Sim {
    Sim::new(SimConfig { seed, ..SimConfig::default() })
}

fn member(idx: usize) -> NodeRef {
    NodeRef::Member { group: 0, idx }
}

/// Crash group 0's member `idx`, restarting it `restart_ms` later if given.
fn crash(idx: usize, restart_ms: Option<u64>) -> FaultKind {
    FaultKind::Crash { node: member(idx), restart_ms }
}

#[test]
fn single_group_serves_creates() {
    let mut s = sim(1);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    let m = Metrics::new(false);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    s.run_for(Duration::from_secs(30));
    assert!(m.ok_count() > 500, "only {} ops completed", m.ok_count());
    assert_eq!(m.failed_count(), 0, "no op should fail in a healthy cluster");
}

#[test]
fn multi_group_serves_mixed_ops() {
    let mut s = sim(2);
    let spec = DeploySpec::mams(3, 3);
    let mut d = build(&mut s, spec);
    let m = Metrics::new(false);
    for c in 0..4 {
        d.add_client(&mut s, Workload::mixed(c), m.clone());
    }
    s.run_for(Duration::from_secs(30));
    assert!(m.ok_count() > 1_000, "only {} ops completed", m.ok_count());
    assert_eq!(m.failed_count(), 0);
}

#[test]
fn active_crash_fails_over_and_service_resumes() {
    let mut s = sim(3);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    let m = Metrics::new(true);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    let kill_at = SimTime(20_000_000);
    faults::inject(&mut s, &d, kill_at, crash(0, None));
    s.run_for(Duration::from_secs(60));

    let before = m.completions().iter().filter(|c| c.ok && c.at_us < kill_at.micros()).count();
    let after =
        m.completions().iter().filter(|c| c.ok && c.at_us > kill_at.micros() + 15_000_000).count();
    assert!(before > 100, "pre-failure traffic too thin: {before}");
    assert!(after > 100, "service did not resume: {after} ops after failover");

    // MTTR should be dominated by the 5 s session timeout: expect ~5-9 s.
    let outages = mttr_from_completions(&m.completions(), &[kill_at.micros()]);
    assert_eq!(outages.len(), 1, "exactly one outage");
    let mttr = mean_mttr_secs(&outages).unwrap();
    assert!(
        (4.0..12.0).contains(&mttr),
        "MTTR {mttr:.2}s out of the expected session-timeout-dominated band"
    );

    // A new active exists and the election stages were traced.
    let after_kill =
        |pick: fn(&MdsTrace) -> bool| s.trace().of().any(|(t, _, e)| t >= kill_at && pick(e));
    assert!(after_kill(|e| matches!(e, MdsTrace::LockAcquired { .. })));
    assert!(after_kill(|e| matches!(e, MdsTrace::SwitchDone { .. })));
}

#[test]
fn no_acknowledged_operation_is_lost_across_failover() {
    let mut s = sim(4);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
    let m = Metrics::new(true);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    faults::inject(&mut s, &d, SimTime(15_000_000), crash(0, None));
    s.run_for(Duration::from_secs(40));
    let acked_creates = m.ok_count();
    assert!(acked_creates > 100);

    // Every acknowledged create (f0..fN-1 in order, issued by one
    // sequential client, minus the setup mkdir) must exist in the shared
    // pool's journal — i.e., be durable and recoverable.
    let pool = d.shared_pool.lock();
    let group = pool.group(0).expect("group 0 journal exists");
    let mut journaled_creates = 0u64;
    if let Some(batches) = group.read_journal(0, usize::MAX) {
        for b in batches {
            for r in &b.records {
                if matches!(r, mams_journal::Txn::Create { .. }) {
                    journaled_creates += 1;
                }
            }
        }
    }
    // acked ops = 1 setup mkdir + creates; every acked create journaled.
    assert!(
        journaled_creates + 1 >= acked_creates,
        "acked {acked_creates} (incl. setup), journaled creates {journaled_creates}"
    );
}

#[test]
fn crashed_member_rejoins_as_junior_then_standby() {
    let mut s = sim(5);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    let m = Metrics::new(false);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    faults::inject(&mut s, &d, SimTime(15_000_000), crash(0, Some(10_000)));
    s.run_for(Duration::from_secs(80));

    // The restarted node must have been renewed back to standby.
    let mut events = s.trace().of::<MdsTrace>();
    assert!(
        events.any(|(t, _, e)| {
            t >= SimTime(25_000_000) && matches!(e, MdsTrace::JuniorPromoted { .. })
        }),
        "restarted member was never promoted back to standby"
    );
    assert!(m.ok_count() > 1_000);
}

#[test]
fn test_a_lock_loss_returns_old_active_as_standby() {
    // Test A: the active loses the lock but its process and state are
    // intact, so after the switch it re-registers with a matching sn and
    // becomes a standby directly (paper Table II, Test A state 4).
    let mut s = sim(6);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    let m = Metrics::new(true);
    d.add_client(&mut s, Workload::create_mkdir(0), m.clone());
    let active = d.initial_active(0);
    faults::inject(&mut s, &d, SimTime(20_000_000), FaultKind::LockLoss(member(0)));
    s.run_for(Duration::from_secs(50));

    let since_loss = || s.trace().of::<MdsTrace>().filter(|&(t, _, _)| t >= SimTime(20_000_000));
    let degraded = since_loss().find(|(_, _, e)| matches!(e, MdsTrace::Degraded { .. }));
    assert_eq!(degraded.expect("old active degrades").1, active);
    // The deposed active must come back as a hot member: either directly
    // standby at registration or via a (short) renewal.
    let back =
        since_loss().any(|(_, n, e)| n == active && matches!(e, MdsTrace::Registered { .. }));
    assert!(back, "deposed active never re-registered");
    // Service resumed.
    let outages = mttr_from_completions(&m.completions(), &[20_000_000]);
    assert_eq!(outages.len(), 1);
    assert!(outages[0].mttr_secs() < 12.0);
}

#[test]
fn a_fault_resolves_its_target_when_it_fires() {
    // Every fault is injected at boot, when the view names no successor
    // yet: `Active` must mean whoever holds the lock when the fault fires,
    // and a crash's restart or a pause's resume must act on the node its
    // start hit, not on whoever is active by then.
    let mut s = sim(21);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    d.add_client(&mut s, Workload::create_only(0), Metrics::new(false));
    let active = NodeRef::Active { group: 0 };
    let secs = |t: u64| SimTime(t * 1_000_000);
    faults::inject(&mut s, &d, secs(5), crash(0, None));
    faults::inject(&mut s, &d, secs(20), FaultKind::LockLoss(active));
    faults::inject(
        &mut s,
        &d,
        secs(40),
        FaultKind::Crash { node: active, restart_ms: Some(15_000) },
    );
    faults::inject(&mut s, &d, secs(70), FaultKind::Pause { node: active, resume_ms: 15_000 });
    let view = |s: &Sim| faults::active_of(s, d.coord, 0).expect("the view names an active");

    s.run_until(secs(19));
    let successor = view(&s);
    assert_ne!(successor, d.initial_active(0), "a successor serves after the first crash");
    assert!(d.groups[0].members.contains(&successor), "the view names a member");
    s.run_until(secs(39));
    let expired = s
        .trace()
        .of::<CoordTrace>()
        .any(|(t, _, e)| t >= secs(20) && *e == CoordTrace::SessionExpired { session: successor });
    assert!(expired, "the lock loss must hit the successor n{successor}");

    let victim = view(&s);
    s.run_until(secs(54));
    assert_eq!(s.node_status(victim), NodeStatus::Down, "the crash hit n{victim}");
    assert_ne!(view(&s), victim, "the view has moved on by the restart");
    s.run_until(secs(60));
    assert_eq!(s.node_status(victim), NodeStatus::Up, "the restart brings back n{victim}");

    s.run_until(secs(69));
    let paused = view(&s);
    s.run_until(secs(84));
    assert!(s.is_paused(paused), "the pause froze n{paused}");
    let successor = view(&s);
    assert_ne!(successor, paused, "the view has moved on by the resume");
    s.run_until(secs(86));
    assert!(!s.is_paused(paused), "the resume wakes n{paused}");
    let mut pauses =
        s.trace().of::<SimTrace>().filter(|(_, _, e)| matches!(e, SimTrace::Paused(_)));
    assert!(pauses.all(|(_, n, _)| n == paused), "only n{paused} was ever paused");
}

#[test]
fn test_b_unplug_expires_members_and_they_rejoin() {
    let mut s = sim(7);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    let m = Metrics::new(false);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    let standby = d.groups[0].members[2];
    let unplug = FaultKind::Unplug { node: member(2), heal_ms: 8_000 };
    faults::inject(&mut s, &d, SimTime(15_000_000), unplug);
    s.run_for(Duration::from_secs(60));

    // The unplugged standby's session must have expired...
    let mut events = s.trace().of::<CoordTrace>();
    let expired = events.any(|(_, _, e)| *e == CoordTrace::SessionExpired { session: standby });
    assert!(expired, "unplugged standby's session should expire");
    // ...and service continues throughout (it was only a standby).
    assert!(m.ok_count() > 1_500, "got {}", m.ok_count());
    // After replug it must become hot again.
    let mut events = s.trace().of::<MdsTrace>();
    let rejoined = events.any(|(t, n, e)| {
        n == standby && t > SimTime(23_000_000) && matches!(e, MdsTrace::Registered { .. })
    });
    assert!(rejoined, "unplugged standby never rejoined");
}

#[test]
fn replicas_converge_after_quiet_period() {
    // After traffic stops, every standby must hold the same namespace as
    // the active (same fingerprint via sn convergence in the pool journal).
    let mut s = sim(8);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
    let m = Metrics::new(false);
    d.add_client_with(&mut s, Workload::create_only(0), m.clone(), |mut c| {
        c.max_ops = Some(200);
        c
    });
    s.run_for(Duration::from_secs(30));
    assert!(m.ok_count() >= 200);
    // All member acks settled: check via trace that syncs completed by
    // verifying the pool journal tail equals the number of flushed batches
    // and no divergence was ever traced.
    let mut events = s.trace().of::<MdsTrace>();
    assert!(!events.any(|(_, _, e)| matches!(e, MdsTrace::Diverged { .. })));
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("journal");
    assert!(g.tail_sn() > 0);
}

#[test]
fn backup_nodes_can_be_added_at_runtime() {
    // "By renewing, more new backup nodes can also be added in the replica
    // group at runtime." (Section III-D.)
    let mut s = sim(9);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 1, ..DeploySpec::default() });
    let m = Metrics::new(true);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    s.run_for(Duration::from_secs(10));

    // Add two fresh backups while the cluster is serving.
    let b1 = d.add_backup(&mut s, 0);
    s.run_for(Duration::from_secs(8));
    let b2 = d.add_backup(&mut s, 0);
    s.run_for(Duration::from_secs(15));

    // Both must have been renewed to standby.
    for b in [b1, b2] {
        let mut events = s.trace().of::<MdsTrace>();
        let promoted = events
            .any(|(_, _, e)| matches!(e, MdsTrace::JuniorPromoted { junior } if *junior == b));
        assert!(promoted, "added backup n{b} never became a standby");
    }

    // And they are real standbys: kill the original active AND the original
    // standby; one of the added nodes must take over.
    let orig = d.groups[0].members[0];
    let orig_standby = d.groups[0].members[1];
    s.after(Duration::ZERO, move |sim| {
        sim.crash(orig);
        sim.crash(orig_standby);
    });
    s.run_for(Duration::from_secs(20));
    let late =
        m.completions().iter().filter(|c| c.ok && c.at_us > s.now().micros() - 5_000_000).count();
    assert!(late > 100, "added backups failed to take over ({late})");
    let switches =
        s.trace().of::<MdsTrace>().filter(|(_, _, e)| matches!(e, MdsTrace::SwitchDone { .. }));
    let (_, winner, _) = switches.last().expect("switch completed");
    assert!([b1, b2].contains(&winner), "winner {winner} was not an added backup");
}

#[test]
fn cluster_tolerates_message_loss() {
    // With 2% independent message loss, lost SyncJournal batches are
    // repaired from the pool, lost acks are refreshed, and lost client
    // replies are retried — service keeps flowing and nothing acked is
    // lost.
    let mut s = sim(10);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
    s.net_mut().set_loss_probability(0.02);
    let m = Metrics::new(true);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    s.run_for(Duration::from_secs(60));
    assert!(m.ok_count() > 1_000, "too few ops under loss: {}", m.ok_count());

    // Stop losses, let everything settle, then check durability.
    s.net_mut().set_loss_probability(0.0);
    s.run_for(Duration::from_secs(5));
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("journal");
    let mut journaled_creates = 0u64;
    if let Some(batches) = g.read_journal(0, usize::MAX) {
        for b in batches {
            journaled_creates +=
                b.records.iter().filter(|r| matches!(r, mams_journal::Txn::Create { .. })).count()
                    as u64;
        }
    }
    assert!(journaled_creates + 1 >= m.ok_count());
}

#[test]
fn failover_works_even_under_message_loss() {
    let mut s = sim(12);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 3, ..DeploySpec::default() });
    s.net_mut().set_loss_probability(0.01);
    let m = Metrics::new(true);
    d.add_client(&mut s, Workload::create_only(0), m.clone());
    faults::inject(&mut s, &d, SimTime(20_000_000), crash(0, None));
    s.run_for(Duration::from_secs(70));
    let late = m.completions().iter().filter(|c| c.ok && c.at_us > 50_000_000).count();
    assert!(late > 500, "no recovery under loss ({late})");
}

#[test]
fn block_write_path_survives_failover() {
    // The HDFS-style write path: create, allocate blocks, seal — with a
    // failover in the middle. Block metadata must survive on the new
    // active.
    use mams_core::{FsOp, OpOutput};
    let mut s = sim(13);
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
    let m = Metrics::new(true);
    let ops = vec![
        FsOp::Mkdir { path: "/w".into() },
        FsOp::Create { path: "/w/f".into(), replication: 3 },
        FsOp::AddBlock { path: "/w/f".into(), len: 4096 },
        FsOp::AddBlock { path: "/w/f".into(), len: 4096 },
        FsOp::CloseFile { path: "/w/f".into() },
        FsOp::SetPerm { path: "/w/f".into(), perm: 0o640 },
        FsOp::GetFileInfo { path: "/w/f".into() },
        FsOp::List { path: "/w".into() },
    ];
    d.add_client(&mut s, Workload::script(ops.clone()), m.clone());
    s.run_for(Duration::from_secs(5));
    assert_eq!(m.ok_count(), ops.len() as u64, "write path ops all succeed");

    // Failover, then read the file back through a second client.
    faults::inject(&mut s, &d, SimTime(6_000_000), crash(0, None));
    s.run_for(Duration::from_secs(10));
    let m2 = Metrics::new(true);
    d.add_client(
        &mut s,
        Workload::script(vec![FsOp::GetFileInfo { path: "/w/f".into() }]),
        m2.clone(),
    );
    s.run_for(Duration::from_secs(10));
    assert_eq!(m2.ok_count(), 1, "file metadata must survive the failover");
    // Blocks and the seal are part of the journaled state.
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("journal");
    let mut add_blocks = 0;
    let mut closes = 0;
    if let Some(batches) = g.read_journal(0, usize::MAX) {
        for b in batches {
            for r in &b.records {
                match r {
                    mams_journal::Txn::AddBlock { .. } => add_blocks += 1,
                    mams_journal::Txn::CloseFile { .. } => closes += 1,
                    _ => {}
                }
            }
        }
    }
    assert_eq!(add_blocks, 2);
    assert_eq!(closes, 1);
    let _ = OpOutput::Done;
}

#[test]
fn block_reports_are_dropped_in_every_role_across_a_switch() {
    // No deployment runs a data server; the benchmark's are the one sender
    // left. Reports reach the active, the standbys and the member inside
    // the switch, whose step-3 buffer would release one to the new tenure.
    // The switch lasts a few milliseconds, so the cadence is shorter still.
    let mut s = sim(14);
    let mut d = build(&mut s, DeploySpec::mams(1, 3));
    let members = d.groups[0].members.clone();
    let period = Duration::from_millis(1);
    let reporter = DataServer::new(0, members.clone(), period).with_blocks(0..16);
    s.add_node("ds-0", Box::new(reporter));
    let m = Metrics::new(true);
    d.add_client_with(&mut s, Workload::create_only(0), m.clone(), |mut c| {
        c.max_ops = Some(2_000);
        c
    });
    let kill_at = SimTime(5_000_000);
    faults::inject(&mut s, &d, kill_at, crash(0, None));
    s.run_for(Duration::from_secs(20));

    let at = |pick: fn(&MdsTrace) -> bool| {
        s.trace().of().find(|(t, _, e)| *t >= kill_at && pick(e)).map(|(t, n, _)| (t, n))
    };
    let (locked, winner) = at(|e| matches!(e, MdsTrace::LockAcquired { .. })).expect("elected");
    let (done, _) = at(|e| matches!(e, MdsTrace::SwitchDone { .. })).expect("switched");
    assert!(
        done.micros() - locked.micros() > 2 * period.micros(),
        "the switch ({locked:?} .. {done:?}) spans no report, so none was buffered"
    );
    let resumed = m.completions().iter().filter(|c| c.ok && c.at_us > done.micros()).count();
    assert!(resumed > 100, "service did not resume on n{winner}: {resumed} ops");
    assert_eq!(m.failed_count(), 0);

    let live: Vec<&MdsServer> = members.iter().filter_map(|&n| s.node::<MdsServer>(n)).collect();
    assert_eq!(live.len(), 3, "the three standbys outlive the crash");
    assert!(live.iter().all(|mds| mds.divergences() == 0));
    assert!(live.iter().all(|mds| mds.fingerprint() == live[0].fingerprint()));
}

#[test]
fn automatic_checkpoints_bound_the_shared_journal() {
    let mut s = sim(14);
    let mut spec = DeploySpec { standbys_per_group: 2, ..DeploySpec::default() };
    spec.timing.checkpoint_interval = Some(Duration::from_secs(10));
    let mut d = build(&mut s, spec);
    let m = Metrics::new(false);
    for c in 0..4 {
        d.add_client(&mut s, Workload::create_only(c), m.clone());
    }
    s.run_for(Duration::from_secs(45));

    // Several checkpoints happened and the journal stayed compacted.
    let events = s.trace().of::<MdsTrace>();
    let checkpoints =
        events.filter(|(_, _, e)| matches!(e, MdsTrace::CheckpointDone { .. })).count();
    assert!(checkpoints >= 3, "only {checkpoints} checkpoints");
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("journal");
    let checkpoint_sn = g.manifest().base().expect("image present").end_sn;
    assert!(checkpoint_sn > 0);
    // The retained journal tail is short relative to total history.
    let tail_len = g.read_journal(checkpoint_sn, usize::MAX).unwrap().len();
    let total_sn = g.tail_sn();
    assert!(
        (tail_len as u64) < total_sn / 2,
        "journal not compacted: tail {tail_len} of {total_sn}"
    );
    // A failover after checkpointing still works (the new active reads the
    // tail, never the compacted range).
    drop(pool);
    faults::inject(&mut s, &d, SimTime(46_000_000), crash(0, None));
    let m2 = Metrics::new(true);
    d.add_client(&mut s, Workload::create_only(9), m2.clone());
    s.run_for(Duration::from_secs(20));
    assert!(
        m2.completions().iter().filter(|c| c.ok && c.at_us > 55_000_000).count() > 100,
        "no recovery after checkpointed failover"
    );
}
