//! A checkpoint the pool can stand behind.
//!
//! The active encodes an image at the tail it has *sealed*, and a sealed
//! batch may not have reached the pool yet. If the pool took such an image,
//! it would advertise a base past its own journal: a successor elected
//! through that image would hold effects whose batches the pool never got,
//! and its first append would meet a gap nobody can fill. The pool refuses
//! an artifact that runs ahead of its journal; the active's next tick
//! retries, and a successor never sees it.

mod common;

use common::{mds, secs};
use mams::chaos::{check_history, CheckOutcome};
use mams::cluster::deploy::{build, DeploySpec};
use mams::cluster::{ClientConfig, History, Metrics, Recorder, Workload};
use mams::core::{MdsReq, MdsTrace, Role};
use mams::sim::{Duration, LatencyModel, Sim, SimConfig};

#[test]
fn a_successor_never_adopts_an_image_ahead_of_the_pool_journal() {
    let mut sim = Sim::new(SimConfig { seed: 0x2d, trace: true, latency: LatencyModel::lan() });
    let spec = DeploySpec {
        standbys_per_group: 0,
        juniors_per_group: 1,
        pool_nodes: 2,
        ..DeploySpec::default()
    };
    let mut d = build(&mut sim, spec);
    let history = History::new();
    let metrics = Metrics::new(false);
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let history = Some(Recorder { client: c, log: history.clone() });
            d.add_client_with(&mut sim, Workload::shared_hot(4), metrics.clone(), |cfg| {
                ClientConfig { think: Duration::from_millis(2), history, ..cfg }
            })
        })
        .collect();
    let (active, junior) = (d.groups[0].members[0], d.groups[0].members[1]);
    // The junior never hears from the active, so it is never renewed: it
    // holds nothing, and whatever it holds when elected it read from the
    // pool.
    sim.net_mut().cut_one_way(active, junior);

    // The last appends are lost on the way to the pool; the image that
    // follows them is not. The active dies before its 100 ms append retry
    // would resend them.
    sim.run_until(secs(2.01));
    for &p in &d.pool {
        sim.net_mut().cut_one_way(active, p);
    }
    sim.run_until(secs(2.05));
    for &p in &d.pool {
        sim.net_mut().heal_one_way(active, p);
    }
    sim.send_external(active, MdsReq::Checkpoint);
    sim.run_until(secs(2.06));
    sim.crash(active);

    let imaged = sim.trace().of::<MdsTrace>().find_map(|(_, n, e)| match e {
        MdsTrace::CheckpointStarted { sn, .. } if n == active => Some(*sn),
        _ => None,
    });
    let tail = d.shared_pool.lock().group(0).expect("group 0 has a store").tail_sn();
    let imaged = imaged.expect("the active started the checkpoint");
    assert!(imaged > tail, "the image ({imaged}) was meant to run ahead of the journal ({tail})");

    // The junior is elected after the session timeout and serves.
    sim.run_until(secs(12.0));
    assert_eq!(mds(&sim, junior).role(), Role::Active, "the junior was meant to be elected");
    let served = metrics.ok_count();
    sim.run_until(secs(16.0));
    assert!(metrics.ok_count() > served + 100, "service resumes under the successor");

    for &c in &clients {
        sim.pause(c);
    }
    sim.run_until(secs(17.0));
    let tail = d.shared_pool.lock().group(0).expect("group 0 has a store").tail_sn();
    assert_eq!(mds(&sim, junior).applied_sn(), tail, "the successor holds what the pool holds");
    assert_eq!(mds(&sim, junior).divergences(), 0);
    match check_history(&history.records()) {
        CheckOutcome::Ok { .. } => {}
        CheckOutcome::Inconclusive { states } => panic!("checker out of budget: {states} states"),
        CheckOutcome::Violation { witness } => panic!("not linearizable: {witness}"),
    }
}
