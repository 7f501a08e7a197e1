//! Facebook AvatarNode: hot standby over an NFS-shared edit log.
//!
//! The active writes every batch synchronously to the NFS filer before
//! answering; the standby tails the shared log with a small lag and — since
//! data servers talk to both avatars — needs no block recollection. What
//! keeps its MTTR around half a minute (Table I: 27–33 s, flat in image
//! size) is the switchover machinery outside the namenode: clients are
//! redirected through a VIP/configuration flip and the new avatar exits
//! safemode. We execute detection and log tailing for real and charge the
//! redirection as the calibrated [`AVATAR_SWITCH_COST`].

use mams_coord::{CoordClient, CoordEvent, Incoming};
use mams_core::{CpuModel, Ingress, MdsReq, MdsResp};
use mams_journal::{JournalBatch, ReplayCursor, Sn};
use mams_namespace::NamespaceTree;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};
use mams_storage::pool::new_shared_pool;
use mams_storage::proto::{PoolReq, PoolResp};
use mams_storage::{DiskModel, PoolNode};

use crate::common::{exec_op, reply, RetryCache, SavedCheckpoint, StandbyReplayer};

const T_FLUSH: u64 = 1;
const T_TAIL: u64 = 2;
const T_SWITCH_DONE: u64 = 3;

/// Calibrated switchover cost: VIP migration, client reconfiguration, and
/// safemode exit — the part of Avatar failover that is not journal work.
/// Table I shows 27–33 s total with a ~5 s detection timeout and second-
/// scale replay, leaving ~25 s of redirection machinery.
pub const AVATAR_SWITCH_COST: Duration = Duration::from_secs(25);

const FLUSH_INTERVAL: Duration = Duration::from_millis(2);
/// NFS append latency (higher than local disk: network + filer fsync).
const NFS_LATENCY: Duration = Duration::from_micros(3_500);
/// Standby tail-poll cadence.
const TAIL_INTERVAL: Duration = Duration::from_millis(300);
/// Primary-side journaling CPU per mutation (NFS client stack per edit record).
const JOURNAL_CPU: Duration = Duration::from_micros(25);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AvRole {
    Active,
    Standby,
    Switching,
}

/// One avatar (active or standby decided at build time; the standby becomes
/// active after failover).
pub struct AvatarNode {
    role: AvRole,
    nfs: NodeId,
    coord: CoordClient,
    ns: NamespaceTree,
    next_block: u64,
    retry: RetryCache,
    cursor: ReplayCursor,
    next_sn: Sn,
    pending: Vec<crate::common::PendingReply>,
    pending_txns: Vec<mams_journal::Txn>,
    /// Replies gated on the in-flight NFS append, by pool req id.
    awaiting_nfs: std::collections::HashMap<u64, Vec<crate::common::PendingReply>>,
    next_req: u64,
    /// Standby: whether the active's death has been observed.
    detected: bool,
    ingress: Ingress,
    cpu: CpuModel,
}

impl AvatarNode {
    pub fn new(coord: NodeId, nfs: NodeId, active: bool) -> Self {
        AvatarNode {
            role: if active { AvRole::Active } else { AvRole::Standby },
            nfs,
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            ns: NamespaceTree::new(),
            next_block: 1,
            retry: RetryCache::new(),
            cursor: ReplayCursor::new(),
            next_sn: 1,
            pending: Vec::new(),
            pending_txns: Vec::new(),
            awaiting_nfs: std::collections::HashMap::new(),
            next_req: 1,
            detected: false,
            ingress: Ingress::default(),
            cpu: CpuModel::default(),
        }
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
                    self.cursor = ReplayCursor::at(self.next_sn - 1);
                } else {
                    reply(&mut self.retry, ctx, from, seq, Ok(out));
                }
            }
            Err(e) => reply(&mut self.retry, ctx, from, seq, Err(e)),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending.is_empty() && self.pending_txns.is_empty() {
            return;
        }
        let replies = std::mem::take(&mut self.pending);
        let txns = std::mem::take(&mut self.pending_txns);
        let req = self.next_req;
        self.next_req += 1;
        if txns.is_empty() {
            // Read-only flush window: nothing to persist.
            for (to, seq, result) in replies {
                reply(&mut self.retry, ctx, to, seq, result);
            }
            return;
        }
        let batch = JournalBatch::new(self.next_sn, 1, txns);
        self.next_sn += 1;
        self.awaiting_nfs.insert(req, replies);
        ctx.send(self.nfs, PoolReq::AppendJournal { group: 0, epoch: 1, batch: batch.into(), req });
    }

    fn apply_tail(&mut self, batches: Vec<mams_journal::SharedBatch>) {
        for b in batches {
            StandbyReplayer::offer(&mut self.cursor, &mut self.ns, &mut self.next_block, &b);
        }
        self.next_sn = self.cursor.max_sn() + 1;
    }

    fn request_tail(&mut self, ctx: &mut Ctx<'_>) {
        let req = self.next_req;
        self.next_req += 1;
        let after_sn = self.cursor.max_sn();
        ctx.send(self.nfs, PoolReq::ReadJournal { group: 0, after_sn, max: 4_096, req });
    }
}

impl Node for AvatarNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.start(ctx);
        self.coord.watch(ctx, "g/0/".to_string());
        ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
        if self.role == AvRole::Standby {
            ctx.set_timer(TAIL_INTERVAL, T_TAIL);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.coord.on_timer(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                if self.role == AvRole::Active {
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
            T_TAIL => {
                if matches!(self.role, AvRole::Standby | AvRole::Switching) {
                    self.request_tail(ctx);
                    ctx.set_timer(TAIL_INTERVAL, T_TAIL);
                }
            }
            T_SWITCH_DONE if self.role == AvRole::Switching => {
                // Part of safemode exit: the promoted avatar writes a fresh
                // fsimage checkpoint and restarts from the reload, so it
                // serves exactly the state a cold image load yields. The
                // image I/O is covered by the calibrated switch cost.
                let cp = SavedCheckpoint::save(&self.ns, self.next_block, self.cursor.max_sn());
                match cp.restore() {
                    Ok((tree, _)) => {
                        ctx.trace("avatar.image_checkpoint", || {
                            format!(
                                "v{} image, {} B",
                                cp.image.version().unwrap_or(0),
                                cp.image.size_bytes()
                            )
                        });
                        self.ns = tree;
                        self.next_block = cp.next_block;
                    }
                    Err(e) => ctx.trace("avatar.image_corrupt", || e.to_string()),
                }
                self.role = AvRole::Active;
                let me = ctx.id();
                self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                ctx.trace("avatar.switch_done", String::new);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match CoordClient::classify(msg) {
            Ok(Incoming::Resp(mams_coord::CoordResp::Registered)) => {
                if self.role == AvRole::Active {
                    let me = ctx.id();
                    self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                }
                return;
            }
            Ok(Incoming::Event(CoordEvent::KeyChanged { key, value, .. })) => {
                // The active's ephemeral pointer vanished: begin failover.
                if self.role == AvRole::Standby
                    && !self.detected
                    && key == mams_core::keys::active(0)
                    && value.is_none()
                {
                    self.detected = true;
                    self.role = AvRole::Switching;
                    ctx.trace("avatar.failover_detected", String::new);
                    // Drain the shared log once more, then pay the
                    // redirection machinery.
                    self.request_tail(ctx);
                    ctx.set_timer(AVATAR_SWITCH_COST, T_SWITCH_DONE);
                }
                return;
            }
            Ok(_) => return,
            Err(m) => m,
        };
        let msg = match msg.downcast::<PoolResp>() {
            Ok(PoolResp::AppendOk { req, .. }) => {
                if let Some(replies) = self.awaiting_nfs.remove(&req) {
                    for (to, seq, result) in replies {
                        reply(&mut self.retry, ctx, to, seq, result);
                    }
                }
                return;
            }
            Ok(PoolResp::Journal { batches, .. }) => {
                self.apply_tail(batches);
                return;
            }
            Ok(_) => return,
            Err(m) => m,
        };
        if let Ok(MdsReq::Op { op, seq, .. }) = msg.downcast::<MdsReq>() {
            if self.role != AvRole::Active {
                ctx.send(from, MdsResp::NotActive { seq });
                return;
            }
            self.ingress.push(from, op, seq, None);
        }
    }
}

/// Build the avatar pair plus the NFS filer. Returns
/// `(active, standby, nfs)`.
pub fn build(sim: &mut Sim, coord: NodeId) -> (NodeId, NodeId, NodeId) {
    let nfs_pool = new_shared_pool();
    let nfs_disk = DiskModel { op_overhead: NFS_LATENCY, bytes_per_sec: 80 * 1024 * 1024 };
    let nfs = sim
        .add_node("avatar-nfs", Box::new(PoolNode::new(nfs_pool).with_disks(nfs_disk, nfs_disk)));
    let active = sim.add_node("avatar-active", Box::new(AvatarNode::new(coord, nfs, true)));
    let standby = sim.add_node("avatar-standby", Box::new(AvatarNode::new(coord, nfs, false)));
    (active, standby, nfs)
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

    #[test]
    fn failover_is_flat_and_around_thirty_seconds() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let (active, _standby, _nfs) = build(&mut sim, coord);
        let m = Metrics::new(true);
        let cfg = ClientConfig::new(coord, Partitioner::new(1));
        sim.add_node(
            "client",
            Box::new(FsClient::new(
                cfg,
                Workload::create_only(0),
                m.clone(),
                DetRng::seed_from_u64(3),
            )),
        );
        let kill = SimTime(10_000_000);
        sim.at(kill, move |s| s.crash(active));
        sim.run_for(Duration::from_secs(90));
        let outages = mttr_from_completions(&m.completions(), &[kill.micros()]);
        assert_eq!(outages.len(), 1);
        let mttr = outages[0].mttr_secs();
        // Paper band: 27–33 s (5 s detection + ~25 s switchover + replay).
        assert!((26.0..38.0).contains(&mttr), "Avatar MTTR {mttr:.1}s");
    }
}
