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

use mams_coord::{CoordClient, Incoming};
use mams_core::{CpuModel, Ingress, MdsReq, MdsResp};
use mams_journal::{JournalBatch, ReplayCursor, Sn};
use mams_namespace::NamespaceTree;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};

use crate::common::{exec_op, reply, FsScale, RetryCache, SavedCheckpoint, StandbyReplayer};
use mams_storage::DiskModel;

const T_FLUSH: u64 = 1;
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

const FLUSH_INTERVAL: Duration = Duration::from_millis(2);
const DISK_LATENCY: Duration = Duration::from_micros(1_500);
/// Primary-side journaling CPU per mutation (asynchronous stream serialization per record).
const JOURNAL_CPU: Duration = Duration::from_micros(3);

/// Primary ↔ backup messages.
#[derive(Debug, Clone)]
enum BnMsg {
    /// Asynchronous journal stream (never awaited).
    Stream {
        batch: JournalBatch,
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
    /// Scale model driving the recollection time.
    scale: FsScale,
    role: BnRole,
    peer: Option<NodeId>,
    coord: CoordClient,
    ns: NamespaceTree,
    next_block: u64,
    retry: RetryCache,
    cursor: ReplayCursor,
    next_sn: Sn,
    pending: Vec<crate::common::PendingReply>,
    pending_txns: Vec<mams_journal::Txn>,
    flushing: std::collections::HashMap<u64, Vec<crate::common::PendingReply>>,
    next_disk_token: u64,
    /// Backup-side failure detector.
    last_pong_us: u64,
    ingress: Ingress,
    cpu: CpuModel,
}

impl BnNode {
    pub fn new(coord: NodeId, scale: FsScale, role_primary: bool) -> Self {
        BnNode {
            scale,
            role: if role_primary { BnRole::Primary } else { BnRole::Backup },
            peer: None,
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            ns: NamespaceTree::new(),
            next_block: 1,
            retry: RetryCache::new(),
            cursor: ReplayCursor::new(),
            next_sn: 1,
            pending: Vec::new(),
            pending_txns: Vec::new(),
            flushing: std::collections::HashMap::new(),
            next_disk_token: T_DISK_BASE,
            last_pong_us: 0,
            ingress: Ingress::default(),
            cpu: CpuModel::default(),
        }
    }

    /// Wire the pair together (called by the builder).
    pub fn set_peer(&mut self, peer: NodeId) {
        self.peer = Some(peer);
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending.is_empty() && self.pending_txns.is_empty() {
            return;
        }
        let replies = std::mem::take(&mut self.pending);
        let txns = std::mem::take(&mut self.pending_txns);
        if !txns.is_empty() {
            let batch = JournalBatch::new(self.next_sn, 1, txns);
            self.next_sn += 1;
            // Fire-and-forget stream to the backup: no ack, no wait.
            if let Some(peer) = self.peer {
                ctx.send(peer, BnMsg::Stream { batch });
            }
        }
        let token = self.next_disk_token;
        self.next_disk_token += 1;
        self.flushing.insert(token, replies);
        ctx.set_timer(DISK_LATENCY, token);
    }

    fn begin_takeover(&mut self, ctx: &mut Ctx<'_>) {
        self.role = BnRole::Recollecting;
        // HDFS `-importCheckpoint` semantics: the backup saves its namespace
        // as a fresh fsimage and restarts from the reload, so the new
        // primary serves exactly the state a cold image load yields. The
        // save + reload disk time rides on the recollection timer.
        let cp = SavedCheckpoint::save(&self.ns, self.next_block, self.cursor.max_sn());
        let image_io = DiskModel::image_disk().io_time(2 * cp.image.size_bytes());
        match cp.restore() {
            Ok((tree, _)) => {
                ctx.trace("bn.image_restart", || {
                    format!(
                        "v{} image, {} B",
                        cp.image.version().unwrap_or(0),
                        cp.image.size_bytes()
                    )
                });
                self.ns = tree;
                self.next_block = cp.next_block;
            }
            Err(e) => ctx.trace("bn.image_corrupt", || e.to_string()),
        }
        let files = self.ns.num_files().max(self.scale.nominal_files);
        let recollect = Duration::from_micros(files * RECOLLECT_PER_FILE.micros()) + image_io;
        ctx.trace("bn.takeover_start", || {
            format!("recollecting {files} files' block locations (~{recollect})")
        });
        ctx.set_timer(recollect, T_RECOLLECT_DONE);
    }

    fn serve(&mut self, ctx: &mut Ctx<'_>, from: NodeId, op: mams_core::FsOp, seq: u64) {
        if let Some(cached) = self.retry.check(from, seq) {
            ctx.send(from, cached);
            return;
        }
        match exec_op(&mut self.ns, &mut self.next_block, &op) {
            Ok((txn, out)) => {
                if let Some(txn) = txn {
                    self.pending_txns.push(txn);
                    self.pending.push((from, seq, Ok(out)));
                } else {
                    reply(&mut self.retry, ctx, from, seq, Ok(out));
                }
            }
            Err(e) => reply(&mut self.retry, ctx, from, seq, Err(e)),
        }
    }
}

impl Node for BnNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.start(ctx);
        ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
        if self.role == BnRole::Backup {
            self.last_pong_us = ctx.now().micros();
            ctx.set_timer(Duration::from_millis(250), T_PING);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.coord.on_timer(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                if self.role == BnRole::Primary {
                    let mut cpu = self.cpu;
                    cpu.mutation += JOURNAL_CPU;
                    for item in self.ingress.drain(FLUSH_INTERVAL, cpu) {
                        if let mams_core::IngressItem::Client { from, op, seq, .. } = item {
                            self.serve(ctx, from, op, seq);
                        }
                    }
                    self.flush(ctx);
                }
                ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
            }
            T_PING => {
                if self.role == BnRole::Backup {
                    if ctx.now().micros().saturating_sub(self.last_pong_us) > DETECT_BUDGET.micros()
                    {
                        self.begin_takeover(ctx);
                    } else {
                        if let Some(peer) = self.peer {
                            ctx.send(peer, BnMsg::Ping);
                        }
                        ctx.set_timer(Duration::from_millis(250), T_PING);
                    }
                }
            }
            T_RECOLLECT_DONE => {
                if self.role == BnRole::Recollecting {
                    self.role = BnRole::Primary;
                    let me = ctx.id();
                    self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                    ctx.trace("bn.takeover_done", String::new);
                }
            }
            t => {
                if let Some(replies) = self.flushing.remove(&t) {
                    for (to, seq, result) in replies {
                        reply(&mut self.retry, ctx, to, seq, result);
                    }
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match CoordClient::classify(msg) {
            Ok(Incoming::Resp(mams_coord::CoordResp::Registered)) => {
                if self.role == BnRole::Primary {
                    let me = ctx.id();
                    self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                }
                return;
            }
            Ok(_) => return,
            Err(m) => m,
        };
        let msg = match msg.downcast::<BnMsg>() {
            Ok(BnMsg::Stream { batch }) => {
                if self.role == BnRole::Backup {
                    StandbyReplayer::offer(
                        &mut self.cursor,
                        &mut self.ns,
                        &mut self.next_block,
                        &batch,
                    );
                    self.next_sn = self.cursor.max_sn() + 1;
                }
                return;
            }
            Ok(BnMsg::Ping) => {
                ctx.send(from, BnMsg::Pong);
                return;
            }
            Ok(BnMsg::Pong) => {
                self.last_pong_us = ctx.now().micros();
                return;
            }
            Err(m) => m,
        };
        if let Ok(MdsReq::Op { op, seq, .. }) = msg.downcast::<MdsReq>() {
            match self.role {
                BnRole::Primary => {
                    self.ingress.push(from, op, seq, None);
                }
                _ => ctx.send(from, MdsResp::NotActive { seq }),
            }
        }
    }
}

/// Build a primary + backup pair. Returns `(primary, backup)`.
pub fn build(sim: &mut Sim, coord: NodeId, scale: FsScale) -> (NodeId, NodeId) {
    let primary_id = sim.num_nodes() as NodeId;
    let backup_id = primary_id + 1;
    let mut primary = BnNode::new(coord, scale, true);
    primary.set_peer(backup_id);
    let mut backup = BnNode::new(coord, scale, false);
    backup.set_peer(primary_id);
    let p = sim.add_node("bn-primary", Box::new(primary));
    let b = sim.add_node("bn-backup", Box::new(backup));
    assert_eq!((p, b), (primary_id, backup_id));
    (p, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::metrics::Metrics;
    use mams_cluster::mttr::mttr_from_completions;
    use mams_cluster::workload::Workload;
    use mams_cluster::{ClientConfig, FsClient};
    use mams_coord::{CoordConfig, CoordServer};
    use mams_namespace::Partitioner;
    use mams_sim::{DetRng, Sim, SimConfig, SimTime};

    fn run_takeover(image_mb: u64) -> f64 {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let (primary, _backup) = build(&mut sim, coord, FsScale::from_image_mb(image_mb));
        let m = Metrics::new(true);
        let cfg = ClientConfig::new(coord, Partitioner::new(1));
        sim.add_node(
            "client",
            Box::new(FsClient::new(
                cfg,
                Workload::create_only(0),
                m.clone(),
                DetRng::seed_from_u64(1),
            )),
        );
        let kill = SimTime(10_000_000);
        sim.at(kill, move |s| s.crash(primary));
        sim.run_for(Duration::from_secs(300));
        let outages = mttr_from_completions(&m.completions(), &[kill.micros()]);
        assert_eq!(outages.len(), 1, "service must recover");
        outages[0].mttr_secs()
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
