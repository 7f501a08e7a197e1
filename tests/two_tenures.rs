//! One member, two tenures.
//!
//! What only an active holds — the batches it has in flight, the replies
//! it holds back, the pool replies it awaits, its response cache — is one
//! value that promotion builds and degradation drops. This runs a member
//! through active → junior → standby → active and checks that the second
//! tenure holds nothing of the first: a reset list with a line missing used
//! to show up here, as a pool reply still awaited for a tenure that was
//! over, or as a reply sealed in one tenure and released in the next.

mod common;

use common::{group_with, mds, secs};
use mams::chaos::{check_history, CheckOutcome};
use mams::cluster::{ClientConfig, History, Recorder, Workload};
use mams::core::{MdsTiming, MdsTrace, Role};
use mams::sim::Duration;

#[test]
fn a_second_tenure_holds_nothing_of_the_first() {
    let timing = MdsTiming {
        checkpoint_interval: Some(Duration::from_secs(4)),
        delta_interval: Some(Duration::from_secs(1)),
        ..MdsTiming::default()
    };
    // Four clients over eight shared keys: creates, deletes and reads that
    // contradict one another if a discarded mutation is ever acknowledged.
    let history = History::new();
    let client = |c: u32, cfg: ClientConfig| {
        let history = Some(Recorder { client: c, log: history.clone() });
        (Workload::shared_hot(8), ClientConfig { think: Duration::from_millis(5), history, ..cfg })
    };
    let mut g = group_with(0x7e2, 1, timing, 4, client);
    let (first, second) = (g.members[0], g.members[1]);
    let switches = |sim: &mams::sim::Sim, node| {
        let events = sim.trace().of::<MdsTrace>();
        events.filter(|&(_, n, e)| n == node && matches!(e, MdsTrace::SwitchDone { .. })).count()
    };

    // First tenure, frozen mid-flight for longer than the session timeout:
    // the standby takes over, and the first active finds out on waking.
    g.sim.run_until(secs(3.0));
    assert_eq!(mds(&g.sim, first).role(), Role::Active);
    g.sim.pause(first);
    g.sim.run_until(secs(11.0));
    assert_eq!(mds(&g.sim, second).role(), Role::Active, "the standby was meant to take over");
    g.sim.resume(first);
    g.sim.run_until(secs(20.0));
    assert_eq!(mds(&g.sim, first).role(), Role::Standby, "degraded on waking, then renewed");
    assert_eq!(mds(&g.sim, first).pool_requests_pending(), 0, "a settled standby awaits nothing");

    // The successor dies; the only member left is elected again.
    g.sim.crash(second);
    g.sim.run_until(secs(30.0));
    assert_eq!(mds(&g.sim, first).role(), Role::Active, "elected a second time");
    assert_eq!(switches(&g.sim, first), 2, "its boot-time tenure and this one");
    let served = g.metrics.ok_count();
    g.sim.restart(second);
    g.sim.run_until(secs(38.0));
    assert!(g.metrics.ok_count() > served + 200, "clients make progress in the second tenure");

    // Quiet: nothing arrives any more, so everything sealed gets released.
    for &c in &g.clients {
        g.sim.pause(c);
    }
    g.sim.run_until(secs(39.5));
    let s = mds(&g.sim, first);
    assert_eq!(s.role(), Role::Active);
    assert_eq!(s.pool_requests_pending(), 0, "a quiet active awaits nothing — of either tenure");
    let tail = g.pool_state.lock().group(0).expect("group 0 has a store").tail_sn();
    assert_eq!(s.applied_sn(), tail, "what the active applied is what the pool holds");
    assert_eq!(s.divergences(), 0);
    assert_eq!(mds(&g.sim, second).applied_sn(), tail, "and the restarted member caught up");

    match check_history(&history.records()) {
        CheckOutcome::Ok { .. } => {}
        CheckOutcome::Inconclusive { states } => panic!("checker out of budget: {states} states"),
        CheckOutcome::Violation { witness } => {
            panic!("a reply crossed from one tenure into the next: {witness}")
        }
    }
}
