//! Hadoop HA with the Quorum Journal Manager (QJM).
//!
//! The active namenode writes every edit batch to N journal nodes and waits
//! for a majority before acknowledging clients; the standby tails the
//! quorum. Failover (driven by a ZKFC-style lock on the coordination
//! service, 5 s session timeout) fences the old writer by bumping the epoch
//! on a quorum of journal nodes, drains the remaining edits, and then pays
//! the namenode state transition + client-side failover-proxy settling,
//! charged as the calibrated [`HA_TRANSITION_COST`]. Flat in image size:
//! the standby is hot and data servers report to both namenodes.

use std::collections::HashMap;

use mams_coord::{CoordClient, CoordEvent, CoordResp, Incoming};
use mams_core::{CpuModel, Ingress, MdsReq, MdsResp};
use mams_journal::{JournalBatch, ReplayCursor, Sn};
use mams_namespace::NamespaceTree;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};
use mams_storage::pool::new_shared_pool;
use mams_storage::proto::{PoolReq, PoolResp};
use mams_storage::{DiskModel, PoolNode};

use crate::common::{exec_op, reply, RetryCache, StandbyReplayer};

const T_FLUSH: u64 = 1;
const T_TAIL: u64 = 2;
const T_TRANSITION_DONE: u64 = 3;

/// Calibrated cost of the namenode state transition plus client
/// failover-proxy settling after fencing and journal drain — Table I shows
/// 15–19 s with a 5 s detection timeout, leaving ~11 s of transition work.
pub const HA_TRANSITION_COST: Duration = Duration::from_secs(11);

const FLUSH_INTERVAL: Duration = Duration::from_millis(2);
/// Number of journal nodes (the paper sets 4).
const JOURNAL_NODES: usize = 4;
/// Per-journal-node append latency (QJM RPC + fsync).
const JN_LATENCY: Duration = Duration::from_micros(2_500);
/// Standby tail-poll cadence.
const TAIL_INTERVAL: Duration = Duration::from_millis(500);
/// Primary-side journaling CPU per mutation (QJM RPC marshalling per edit to 4 journal nodes).
const JOURNAL_CPU: Duration = Duration::from_micros(35);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HaRole {
    Active,
    Standby,
    Fencing,
    Draining,
    Transitioning,
}

/// One HA namenode.
pub struct HaNameNode {
    role: HaRole,
    journals: Vec<NodeId>,
    coord: CoordClient,
    ns: NamespaceTree,
    next_block: u64,
    retry: RetryCache,
    cursor: ReplayCursor,
    next_sn: Sn,
    epoch: u64,
    pending: Vec<crate::common::PendingReply>,
    pending_txns: Vec<mams_journal::Txn>,
    /// req id → (acks outstanding, replies) for quorum appends.
    quorum_waits: HashMap<u64, (usize, Vec<crate::common::PendingReply>)>,
    /// Fencing acks outstanding.
    fence_waits: usize,
    next_req: u64,
    detected: bool,
    ingress: Ingress,
    cpu: CpuModel,
}

impl HaNameNode {
    pub fn new(coord: NodeId, journals: Vec<NodeId>, active: bool) -> Self {
        HaNameNode {
            role: if active { HaRole::Active } else { HaRole::Standby },
            journals,
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            ns: NamespaceTree::new(),
            next_block: 1,
            retry: RetryCache::new(),
            cursor: ReplayCursor::new(),
            next_sn: 1,
            epoch: 1,
            pending: Vec::new(),
            pending_txns: Vec::new(),
            quorum_waits: HashMap::new(),
            fence_waits: 0,
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
                } else {
                    reply(&mut self.retry, ctx, from, seq, Ok(out));
                }
            }
            Err(e) => reply(&mut self.retry, ctx, from, seq, Err(e)),
        }
    }

    fn quorum(&self) -> usize {
        self.journals.len() / 2 + 1
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_txns.is_empty() {
            for (to, seq, result) in std::mem::take(&mut self.pending) {
                reply(&mut self.retry, ctx, to, seq, result);
            }
            return;
        }
        let replies = std::mem::take(&mut self.pending);
        let txns = std::mem::take(&mut self.pending_txns);
        let batch = mams_journal::SharedBatch::new(JournalBatch::new(self.next_sn, 1, txns));
        self.next_sn += 1;
        let req = self.next_req;
        self.next_req += 1;
        self.quorum_waits.insert(req, (self.quorum(), replies));
        for &jn in &self.journals {
            ctx.send(
                jn,
                PoolReq::AppendJournal { group: 0, epoch: self.epoch, batch: batch.share(), req },
            );
        }
    }

    fn apply_tail(&mut self, batches: Vec<mams_journal::SharedBatch>) {
        for b in batches {
            StandbyReplayer::offer(&mut self.cursor, &mut self.ns, &mut self.next_block, &b);
        }
        self.next_sn = self.cursor.max_sn() + 1;
    }

    fn request_tail(&mut self, ctx: &mut Ctx<'_>) {
        // Tail from every journal node; the stash-free cursor simply skips
        // duplicates, and reading all nodes guarantees we see the quorum
        // maximum.
        for &jn in &self.journals {
            let req = self.next_req;
            self.next_req += 1;
            let after_sn = self.cursor.max_sn();
            ctx.send(jn, PoolReq::ReadJournal { group: 0, after_sn, max: 4_096, req });
        }
    }

    fn begin_failover(&mut self, ctx: &mut Ctx<'_>) {
        self.role = HaRole::Fencing;
        self.epoch += 1;
        self.fence_waits = self.quorum();
        ctx.trace("ha.fencing", || format!("epoch {}", self.epoch));
        for &jn in &self.journals {
            let req = self.next_req;
            self.next_req += 1;
            ctx.send(jn, PoolReq::AdvanceEpoch { group: 0, to: self.epoch, req });
        }
    }
}

impl Node for HaNameNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.start(ctx);
        self.coord.watch(ctx, "g/0/".to_string());
        ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
        if self.role == HaRole::Standby {
            ctx.set_timer(TAIL_INTERVAL, T_TAIL);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.coord.on_timer(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                if self.role == HaRole::Active {
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
            T_TAIL if self.role != HaRole::Active => {
                self.request_tail(ctx);
                ctx.set_timer(TAIL_INTERVAL, T_TAIL);
            }
            T_TRANSITION_DONE if self.role == HaRole::Transitioning => {
                self.role = HaRole::Active;
                let me = ctx.id();
                self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                ctx.trace("ha.transition_done", String::new);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match CoordClient::classify(msg) {
            Ok(Incoming::Resp(CoordResp::Registered)) => {
                if self.role == HaRole::Active {
                    let me = ctx.id();
                    self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                }
                return;
            }
            Ok(Incoming::Event(CoordEvent::KeyChanged { key, value, .. })) => {
                if self.role == HaRole::Standby
                    && !self.detected
                    && key == mams_core::keys::active(0)
                    && value.is_none()
                {
                    self.detected = true;
                    ctx.trace("ha.failover_detected", String::new);
                    self.begin_failover(ctx);
                }
                return;
            }
            Ok(_) => return,
            Err(m) => m,
        };
        let msg = match msg.downcast::<PoolResp>() {
            Ok(PoolResp::AppendOk { req, .. }) => {
                if let Some((remaining, _)) = self.quorum_waits.get_mut(&req) {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let (_, replies) = self.quorum_waits.remove(&req).expect("present");
                        for (to, seq, result) in replies {
                            reply(&mut self.retry, ctx, to, seq, result);
                        }
                    }
                }
                return;
            }
            Ok(PoolResp::EpochAdvanced { .. }) => {
                if self.role == HaRole::Fencing && self.fence_waits > 0 {
                    self.fence_waits -= 1;
                    if self.fence_waits == 0 {
                        self.role = HaRole::Draining;
                        self.request_tail(ctx);
                    }
                }
                return;
            }
            Ok(PoolResp::Journal { batches, tail_sn, .. }) => {
                self.apply_tail(batches);
                if self.role == HaRole::Draining && self.cursor.max_sn() >= tail_sn {
                    self.role = HaRole::Transitioning;
                    ctx.trace("ha.drained", || format!("sn {}", self.cursor.max_sn()));
                    ctx.set_timer(HA_TRANSITION_COST, T_TRANSITION_DONE);
                }
                return;
            }
            Ok(_) => return,
            Err(m) => m,
        };
        if let Ok(MdsReq::Op { op, seq, .. }) = msg.downcast::<MdsReq>() {
            if self.role != HaRole::Active {
                ctx.send(from, MdsResp::NotActive { seq });
                return;
            }
            self.ingress.push(from, op, seq, None);
        }
    }
}

/// Build the HA pair plus journal nodes. Returns
/// `(active, standby, journal_nodes)`.
pub fn build(sim: &mut Sim, coord: NodeId) -> (NodeId, NodeId, Vec<NodeId>) {
    let jn_disk = DiskModel { op_overhead: JN_LATENCY, bytes_per_sec: 100 * 1024 * 1024 };
    let mut journals = Vec::new();
    for i in 0..JOURNAL_NODES {
        // Each journal node has its *own* storage (quorum semantics).
        let pool = new_shared_pool();
        journals.push(sim.add_node(
            format!("jn-{i}"),
            Box::new(PoolNode::new(pool).with_disks(jn_disk, jn_disk)),
        ));
    }
    let active =
        sim.add_node("ha-active", Box::new(HaNameNode::new(coord, journals.clone(), true)));
    let standby =
        sim.add_node("ha-standby", Box::new(HaNameNode::new(coord, journals.clone(), false)));
    (active, standby, journals)
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
    fn failover_in_the_paper_band() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let (active, _standby, _jns) = build(&mut sim, coord);
        let m = Metrics::new(true);
        let cfg = ClientConfig::new(coord, Partitioner::new(1));
        sim.add_node(
            "client",
            Box::new(FsClient::new(
                cfg,
                Workload::create_only(0),
                m.clone(),
                DetRng::seed_from_u64(4),
            )),
        );
        let kill = SimTime(10_000_000);
        sim.at(kill, move |s| s.crash(active));
        sim.run_for(Duration::from_secs(60));
        let outages = mttr_from_completions(&m.completions(), &[kill.micros()]);
        assert_eq!(outages.len(), 1);
        let mttr = outages[0].mttr_secs();
        // Paper band: 15–19 s.
        assert!((14.0..22.0).contains(&mttr), "HA MTTR {mttr:.1}s");
    }
}
