//! Block ids stay unique across an election of a member that caught up
//! through the image or a delta.
//!
//! Replay advances a replica's allocation mark past every `AddBlock` it
//! sees. A member restored from a checkpoint artifact never sees the records
//! the artifact stands for, so adopting it must leave the mark no lower than
//! the ids the artifact's files hold — or that member, once elected,
//! allocates them a second time. No workload generator sends `AddBlock`, so
//! this drives it by hand.

mod common;

use common::{first, group_with, mds, secs};
use mams::cluster::{ClientConfig, History, Recorder, Workload};
use mams::core::{FsOp, MdsReq, MdsTiming, MdsTrace, OpOutput, Role};
use mams::sim::Duration;

#[test]
fn a_member_elected_after_an_image_catch_up_allocates_fresh_block_ids() {
    // The blocks are in the base image: written, then checkpointed by hand.
    let image_loaded = |e: &MdsTrace| matches!(e, MdsTrace::ImageLoaded { .. });
    elected_after_adopting(image_loaded, MdsTiming::default(), 0.5, true);
}

#[test]
fn a_member_elected_after_a_delta_catch_up_allocates_fresh_block_ids() {
    // The blocks are in a delta: the first delta tick (1 s) writes the base,
    // the file follows, and the next ticks fold it. The restarted member is
    // more than `renew_image_gap` batches behind, so it asks for the chain.
    let timing = MdsTiming {
        delta_interval: Some(Duration::from_secs(1)),
        renew_image_gap: 9,
        ..MdsTiming::default()
    };
    elected_after_adopting(|e| matches!(e, MdsTrace::DeltaApplied { .. }), timing, 1.5, false);
}

/// Write a file's blocks at `write_at`, checkpoint (by hand, or leave it to
/// `timing`), restart the standby so that it adopts the artifact (`adopted`
/// picks the trace event that proves it), crash the active, and write
/// another file through the restored member.
fn elected_after_adopting(
    adopted: fn(&MdsTrace) -> bool,
    timing: MdsTiming,
    write_at: f64,
    checkpoint: bool,
) {
    // Two scripted clients: the first writes before the checkpoint, the
    // second starts after the restored member's election.
    let file = |path: &str, blocks: usize| {
        let mut ops = vec![FsOp::Create { path: path.into(), replication: 3 }];
        ops.extend((0..blocks).map(|_| FsOp::AddBlock { path: path.into(), len: 64 }));
        ops
    };
    let history = History::new();
    let client = |c: u32, cfg: ClientConfig| {
        let history = Some(Recorder { client: c, log: history.clone() });
        let (ops, start) =
            if c == 0 { (file("/before", 12), write_at) } else { (file("/after", 1), 25.0) };
        let start_delay = Duration::from_micros((start * 1e6) as u64);
        (Workload::script(ops), ClientConfig { start_delay, history, ..cfg })
    };
    let mut g = group_with(0xb10c, 1, timing, 2, client);
    let (active, member) = (g.members[0], g.members[1]);

    // Checkpoint after the last `AddBlock`: nothing the member replays
    // later carries a block id.
    g.sim.run_until(secs(2.0));
    if checkpoint {
        g.sim.send_external(active, MdsReq::Checkpoint);
    }
    g.sim.run_until(secs(3.0));
    // Down for longer than its session: the active sees it go, and it comes
    // back as a junior the renewing protocol catches up from the pool.
    g.sim.crash(member);
    g.sim.run_until(secs(9.0));
    g.sim.restart(member);
    g.sim.run_until(secs(15.0));
    let caught_up = first(&g.sim, secs(9.0), |n, e| n == member && adopted(e));
    assert!(caught_up.is_some(), "the restarted member was meant to adopt the artifact");
    assert_eq!(mds(&g.sim, member).role(), Role::Standby, "and to be renewed");

    g.sim.crash(active);
    g.sim.run_until(secs(30.0));
    assert_eq!(mds(&g.sim, member).role(), Role::Active, "the only member left is elected");

    let blocks: Vec<(String, u64)> = history
        .records()
        .into_iter()
        .filter_map(|r| match (r.op, r.result) {
            (FsOp::AddBlock { path, .. }, Some(Ok(OpOutput::Block(id)))) => Some((path, id)),
            _ => None,
        })
        .collect();
    assert_eq!(blocks.len(), 13, "every AddBlock was answered: {blocks:?}");
    let mut ids: Vec<u64> = blocks.iter().map(|(_, id)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 13, "two files share a block id: {blocks:?}");
}
