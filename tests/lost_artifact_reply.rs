//! Lost pool replies must neither stop delta images nor pile up.
//!
//! The active remembers every pool request until its reply arrives. Two
//! things used to go wrong when a reply never did. An unanswered image or
//! delta write counted as "an artifact write in flight" for the rest of the
//! active's tenure, and no delta folds while one is in flight — so one
//! dropped `ImageWritten` ended delta images for good. And every resend of
//! an unacknowledged journal append was a new request beside the old one,
//! so under steady loss the table of awaited replies only grew.
//!
//! The other roles leaked too: a renewing junior kept an entry for every
//! page or chunk reply it lost (two were left on a settled standby), and an
//! elected member one per rerun of the switch. An entry now lives no longer
//! than the session that awaits it. The election test found a third outage
//! on the way: a checkpoint compacted the active's log past a batch whose
//! pool append had been lost, so the append could never be resent and the
//! journal gap behind it stopped every later commit.

mod common;

use common::{group, mds, secs, Group};
use mams::core::{MdsTiming, MdsTrace, Role};
use mams::sim::{Duration, LinkShape};

const CHECKPOINT_SECS: u64 = 4;
/// `renewing::CATCHUP_WINDOW` + 2: the most replies a member that is not
/// the active may await — a window of journal pages, or one fence, manifest
/// or chunk read.
const SESSION_BOUND: usize = 4 + 2;

/// One group — an active and a standby — on one pool node, a full image
/// every [`CHECKPOINT_SECS`] and a delta every second, three closed-loop
/// clients creating files. A restarted member renews over the manifest
/// chain, not the journal alone.
fn cluster(seed: u64) -> Group {
    let timing = MdsTiming {
        checkpoint_interval: Some(Duration::from_secs(CHECKPOINT_SECS)),
        delta_interval: Some(Duration::from_secs(1)),
        renew_image_gap: 64,
        ..MdsTiming::default()
    };
    group(seed, 1, timing, 3)
}

#[test]
fn a_lost_image_reply_does_not_stop_deltas() {
    let Group { mut sim, pool, members, .. } = cluster(0xA571);
    let active = members[0];
    // The second checkpoint's `ImageWritten` never arrives: the pool's
    // replies to the active are cut from just before it is requested until
    // well after it was sent.
    let lost = CHECKPOINT_SECS as f64 * 2.0;
    sim.at(secs(lost - 0.05), move |s| s.net_mut().cut_one_way(pool, active));
    sim.at(secs(lost + 0.3), move |s| s.net_mut().heal_one_way(pool, active));
    sim.run_until(secs(lost + 2.0 * CHECKPOINT_SECS as f64 + 0.5));

    let first = |pick: fn(&MdsTrace) -> bool, from| common::first(&sim, secs(from), |_, e| pick(e));
    let delta_done = |e: &MdsTrace| matches!(e, MdsTrace::DeltaDone { .. });
    assert!(first(delta_done, 0.0).is_some_and(|at| at < secs(lost)), "deltas ran before");
    let superseding = first(|e| matches!(e, MdsTrace::CheckpointStarted { .. }), lost + 1.0)
        .expect("the next checkpoint");
    assert!(
        first(|e| matches!(e, MdsTrace::CheckpointDone { .. }), lost - 0.05)
            .is_some_and(|at| at > superseding),
        "the reply to the checkpoint at {lost} s was meant to be lost"
    );
    // The next full image supersedes the unanswered one, and deltas chain
    // onto it within that checkpoint's interval.
    let resumed = first(delta_done, lost).expect("no delta image after the lost reply");
    assert!(
        resumed.since(superseding) < Duration::from_secs(CHECKPOINT_SECS),
        "deltas resumed only at {resumed:?}, superseding checkpoint at {superseding:?}"
    );
}

#[test]
fn lost_pool_replies_do_not_accumulate() {
    let Group { mut sim, members, metrics, .. } = cluster(0xA572);
    let active = members[0];
    sim.run_for(Duration::from_secs(3));
    sim.net_mut().set_loss_probability(0.05);
    let mut most = 0;
    for _ in 0..20 {
        sim.run_for(Duration::from_secs(1));
        most = most.max(mds(&sim, active).pool_requests_pending());
    }
    assert_eq!(mds(&sim, active).role(), Role::Active, "the loss was meant to be survivable");
    assert!(metrics.ok_count() > 1_000, "the workload barely ran ({} ok)", metrics.ok_count());
    // One awaited reply per batch still unacknowledged plus the one
    // artifact write: a handful. Before, every lost `AppendOk` and every
    // resend left an entry behind, hundreds over these twenty seconds.
    assert!(most <= 32, "{most} pool requests awaited at once");
}

#[test]
fn a_renewing_junior_awaits_a_bounded_number_of_pool_replies() {
    let Group { mut sim, pool, members, .. } = cluster(0xA573);
    let junior = members[1];
    // Restarted empty, the standby renews through the base image, the
    // deltas chained onto it and journal pages, losing 5 % of what it
    // exchanges with the pool all the while.
    sim.at(secs(6.0), move |s| s.crash(junior));
    sim.at(secs(12.5), move |s| {
        s.net_mut().shape_link(junior, pool, LinkShape::lossy(0.05));
        s.restart(junior);
    });
    sim.run_until(secs(12.5));
    let mut most = 0;
    for _ in 0..40 {
        sim.run_for(Duration::from_secs(1));
        most = most.max(mds(&sim, junior).pool_requests_pending());
    }
    let went_through = |pick: fn(&MdsTrace) -> bool| {
        common::first(&sim, secs(0.0), |n, e| n == junior && pick(e)).is_some()
    };
    let image = went_through(|e| matches!(e, MdsTrace::ImageLoaded { .. }));
    let delta = went_through(|e| matches!(e, MdsTrace::DeltaApplied { .. }));
    assert!(image && delta, "renewing was meant to go through the image and a delta");
    assert!(most <= SESSION_BOUND, "{most} pool requests awaited at once");
    let s = mds(&sim, junior);
    assert_eq!(s.role(), Role::Standby, "the loss was meant to be survivable");
    assert_eq!(s.pool_requests_pending(), 0, "a settled standby awaits nothing");
}

#[test]
fn an_elected_member_awaits_a_bounded_number_of_pool_replies() {
    let Group { mut sim, pool, members, metrics, .. } = cluster(0xA574);
    let (active, standby) = (members[0], members[1]);
    sim.at(secs(6.0), move |s| {
        s.net_mut().shape_link(standby, pool, LinkShape::lossy(0.05));
        s.crash(active);
    });
    sim.run_until(secs(6.0));
    let before = metrics.ok_count();
    let (mut most_waiting, mut most_serving) = (0, 0);
    for _ in 0..30 {
        sim.run_for(Duration::from_secs(1));
        let s = mds(&sim, standby);
        let most = if s.role() == Role::Active { &mut most_serving } else { &mut most_waiting };
        *most = (*most).max(s.pool_requests_pending());
    }
    assert_eq!(mds(&sim, standby).role(), Role::Active, "the standby was meant to win");
    assert!(metrics.ok_count() > before + 1_000, "the successor barely served");
    assert!(most_waiting <= SESSION_BOUND, "{most_waiting} pool requests awaited before serving");
    // As in `lost_pool_replies_do_not_accumulate`: a handful.
    assert!(most_serving <= 32, "{most_serving} pool requests awaited at once while serving");
}
