//! HDFS BackupNode: one primary streaming its journal asynchronously to one
//! backup.
//!
//! Normal operations are fast — the primary never waits for the backup
//! ("The BackupNode incurred less time but it does not guarantee metadata
//! consistency", Section IV-A) — but on takeover the backup must *recollect
//! block locations from every data server* before it can serve, because
//! data servers only ever reported to the primary. That recollection work
//! is proportional to file-system scale, which is why Table I's BackupNode
//! column climbs from ~3 s to ~140 s while every hot-standby design stays
//! flat.

use std::collections::HashMap;

use mams_journal::SharedBatch;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};
use mams_storage::DiskModel;

use crate::common::{BaselineTrace, FsScale, NameNode, PendingReply, FLUSH_INTERVAL, T_FLUSH};

const T_PING: u64 = 2;
const T_RECOLLECT_DONE: u64 = 3;
const T_DISK_BASE: u64 = 1_000;

/// Calibration constants (documented in DESIGN.md):
/// per-file block-location recollection cost. 1 GB image ≈ 7 M files ≈
/// 140 s of recollection in the paper's Table I → ~19.6 µs/file.
pub const RECOLLECT_PER_FILE: Duration = Duration::from_micros(20);
/// The primary↔backup ping failure-detection budget (the paper's 16 MB
/// MTTR of 2.8 s bounds it well below the 5 s ZooKeeper timeout).
pub const DETECT_BUDGET: Duration = Duration::from_millis(1_000);

const PING_INTERVAL: Duration = Duration::from_millis(250);
const DISK_LATENCY: Duration = Duration::from_micros(1_500);
/// Primary-side journaling CPU per mutation (asynchronous stream serialization per record).
const JOURNAL_CPU: Duration = Duration::from_micros(3);

/// Primary ↔ backup messages.
#[derive(Debug, Clone)]
enum BnMsg {
    /// Asynchronous journal stream (never awaited).
    Stream {
        batch: SharedBatch,
    },
    Ping,
    Pong,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BnRole {
    Primary,
    Backup,
    Recollecting,
}

/// Either half of a BackupNode pair (role decides behaviour; the backup
/// *becomes* a primary after takeover).
pub struct BnNode {
    nn: NameNode,
    /// Scale model driving the recollection time.
    scale: FsScale,
    role: BnRole,
    peer: NodeId,
    flushing: HashMap<u64, Vec<PendingReply>>,
    next_disk_token: u64,
    /// Backup-side failure detector.
    last_pong_us: u64,
}

impl BnNode {
    pub fn new(coord: NodeId, scale: FsScale, role_primary: bool, peer: NodeId) -> Self {
        BnNode {
            nn: NameNode::new(coord, JOURNAL_CPU),
            scale,
            role: if role_primary { BnRole::Primary } else { BnRole::Backup },
            peer,
            flushing: HashMap::new(),
            next_disk_token: T_DISK_BASE,
            last_pong_us: 0,
        }
    }

    /// Durable once the local disk has the edits; the stream to the backup
    /// is fire-and-forget — no ack, no wait.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let Some((batch, replies)) = self.nn.seal() else { return };
        ctx.send(self.peer, BnMsg::Stream { batch });
        let token = self.next_disk_token;
        self.next_disk_token += 1;
        self.flushing.insert(token, replies);
        ctx.set_timer(DISK_LATENCY, token);
    }

    fn begin_takeover(&mut self, ctx: &mut Ctx<'_>) {
        self.role = BnRole::Recollecting;
        // The save + reload disk time rides on the recollection timer.
        let image_io = DiskModel::image_disk().io_time(2 * self.nn.restart_from_checkpoint(ctx));
        let files = self.nn.num_files().max(self.scale.nominal_files);
        let recollect = Duration::from_micros(files * RECOLLECT_PER_FILE.micros()) + image_io;
        ctx.trace(|| BaselineTrace::Recollecting { files, takes: recollect });
        ctx.set_timer(recollect, T_RECOLLECT_DONE);
    }
}

impl Node for BnNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.nn.start(ctx);
        if self.role == BnRole::Backup {
            self.last_pong_us = ctx.now().micros();
            ctx.set_timer(PING_INTERVAL, T_PING);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nn.heartbeat(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                if self.role == BnRole::Primary {
                    self.nn.drain(ctx, NameNode::serve);
                    self.flush(ctx);
                }
                ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
            }
            T_PING if self.role == BnRole::Backup => {
                if ctx.now().micros().saturating_sub(self.last_pong_us) > DETECT_BUDGET.micros() {
                    self.begin_takeover(ctx);
                } else {
                    ctx.send(self.peer, BnMsg::Ping);
                    ctx.set_timer(PING_INTERVAL, T_PING);
                }
            }
            T_RECOLLECT_DONE if self.role == BnRole::Recollecting => {
                self.role = BnRole::Primary;
                self.nn.publish(ctx);
                ctx.trace(|| BaselineTrace::TakeoverDone);
            }
            t => {
                if let Some(replies) = self.flushing.remove(&t) {
                    self.nn.release(ctx, replies);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let primary = self.role == BnRole::Primary;
        let Err(msg) = self.nn.on_coord(ctx, msg, primary) else { return };
        match msg.downcast::<BnMsg>() {
            Ok(BnMsg::Stream { batch }) => {
                if self.role == BnRole::Backup {
                    self.nn.replay([batch]);
                }
            }
            Ok(BnMsg::Ping) => ctx.send(from, BnMsg::Pong),
            Ok(BnMsg::Pong) => self.last_pong_us = ctx.now().micros(),
            Err(msg) => self.nn.admit(ctx, from, msg, primary),
        }
    }
}

/// Build a primary + backup pair. Returns `(primary, backup)`.
pub fn build(sim: &mut Sim, coord: NodeId, scale: FsScale) -> (NodeId, NodeId) {
    let primary_id = sim.num_nodes() as NodeId;
    let backup_id = primary_id + 1;
    let p = sim.add_node("bn-primary", Box::new(BnNode::new(coord, scale, true, backup_id)));
    let b = sim.add_node("bn-backup", Box::new(BnNode::new(coord, scale, false, primary_id)));
    assert_eq!((p, b), (primary_id, backup_id));
    (p, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::KillRig;
    use mams_sim::{SimConfig, SimTime};

    fn run_takeover(image_mb: u64) -> f64 {
        let mut rig = KillRig::new(SimConfig::default());
        let (primary, _backup) = build(&mut rig.sim, rig.coord, FsScale::from_image_mb(image_mb));
        rig.add_client(1, |_| {});
        rig.mttr_after(SimTime(10_000_000), move |s| s.crash(primary), SimTime(300_000_000))
            .expect("service must recover")
    }

    #[test]
    fn mttr_grows_with_image_size() {
        let small = run_takeover(16);
        let large = run_takeover(256);
        assert!(small < large, "small {small:.1}s !< large {large:.1}s");
        // Paper band: ~2.8 s at 16 MB, ~36 s at 256 MB.
        assert!((1.5..6.0).contains(&small), "16 MB MTTR {small:.2}s");
        assert!((25.0..50.0).contains(&large), "256 MB MTTR {large:.2}s");
    }
}
