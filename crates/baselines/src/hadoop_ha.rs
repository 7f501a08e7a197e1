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

use mams_sim::{Ctx, Duration, Message, Node, NodeId};
use mams_storage::proto::{PoolReq, PoolResp};
use mams_storage::DiskModel;

use crate::common::{BaselineTrace, NameNode, PendingReply, FLUSH_INTERVAL, T_FLUSH};

const T_TAIL: u64 = 2;
const T_TRANSITION_DONE: u64 = 3;

/// Calibrated cost of the namenode state transition plus client
/// failover-proxy settling after fencing and journal drain — Table I shows
/// 15–19 s with a 5 s detection timeout, leaving ~11 s of transition work.
pub const HA_TRANSITION_COST: Duration = Duration::from_secs(11);

/// Number of journal nodes (the paper sets 4).
pub(crate) const JOURNAL_NODES: usize = 4;
/// A journal node's disk: per-append latency of a QJM RPC + fsync.
pub(crate) const JN_DISK: DiskModel =
    DiskModel { op_overhead: Duration::from_micros(2_500), bytes_per_sec: 100 * 1024 * 1024 };
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
    nn: NameNode,
    role: HaRole,
    journals: Vec<NodeId>,
    epoch: u64,
    /// req id → (acks outstanding, replies) for quorum appends.
    quorum_waits: HashMap<u64, (usize, Vec<PendingReply>)>,
    /// Fencing acks outstanding.
    fence_waits: usize,
    next_req: u64,
}

impl HaNameNode {
    pub fn new(coord: NodeId, journals: Vec<NodeId>, active: bool) -> Self {
        HaNameNode {
            nn: NameNode::new(coord, JOURNAL_CPU),
            role: if active { HaRole::Active } else { HaRole::Standby },
            journals,
            epoch: 1,
            quorum_waits: HashMap::new(),
            fence_waits: 0,
            next_req: 1,
        }
    }

    fn quorum(&self) -> usize {
        self.journals.len() / 2 + 1
    }

    /// Durable once a majority of the journal nodes have the batch.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let Some((batch, replies)) = self.nn.seal() else { return };
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

    /// Tail from every journal node; replay drops the duplicates by sn, and
    /// reading all nodes guarantees we see the quorum maximum.
    fn request_tail(&mut self, ctx: &mut Ctx<'_>) {
        let after_sn = self.nn.replayed_sn();
        for (&jn, req) in self.journals.iter().zip(self.next_req..) {
            ctx.send(jn, PoolReq::ReadJournal { group: 0, after_sn, max: 4_096, req });
        }
        self.next_req += self.journals.len() as u64;
    }

    fn begin_failover(&mut self, ctx: &mut Ctx<'_>) {
        self.role = HaRole::Fencing;
        self.epoch += 1;
        self.fence_waits = self.quorum();
        ctx.trace(|| BaselineTrace::Fencing { epoch: self.epoch });
        for (&jn, req) in self.journals.iter().zip(self.next_req..) {
            ctx.send(jn, PoolReq::AdvanceEpoch { group: 0, to: self.epoch, req });
        }
        self.next_req += self.journals.len() as u64;
    }
}

impl Node for HaNameNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.nn.start(ctx);
        self.nn.watch_active(ctx);
        if self.role == HaRole::Standby {
            ctx.set_timer(TAIL_INTERVAL, T_TAIL);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nn.heartbeat(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                if self.role == HaRole::Active {
                    self.nn.drain(ctx, NameNode::serve);
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
                self.nn.publish(ctx);
                ctx.trace(|| BaselineTrace::TakeoverDone);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let active = self.role == HaRole::Active;
        let msg = match self.nn.on_coord(ctx, msg, active) {
            Ok(active_vanished) => {
                if active_vanished && self.role == HaRole::Standby {
                    ctx.trace(|| BaselineTrace::FailoverDetected);
                    self.begin_failover(ctx);
                }
                return;
            }
            Err(msg) => msg,
        };
        match msg.downcast::<PoolResp>() {
            Ok(PoolResp::AppendOk { req, .. }) => {
                if let Some((remaining, _)) = self.quorum_waits.get_mut(&req) {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let (_, replies) = self.quorum_waits.remove(&req).expect("present");
                        self.nn.release(ctx, replies);
                    }
                }
            }
            Ok(PoolResp::EpochAdvanced { .. }) => {
                if self.role == HaRole::Fencing && self.fence_waits > 0 {
                    self.fence_waits -= 1;
                    if self.fence_waits == 0 {
                        self.role = HaRole::Draining;
                        self.request_tail(ctx);
                    }
                }
            }
            Ok(PoolResp::Journal { batches, tail_sn, .. }) => {
                self.nn.replay(batches);
                if self.role == HaRole::Draining && self.nn.replayed_sn() >= tail_sn {
                    self.role = HaRole::Transitioning;
                    ctx.trace(|| BaselineTrace::Drained { sn: self.nn.replayed_sn() });
                    ctx.set_timer(HA_TRANSITION_COST, T_TRANSITION_DONE);
                }
            }
            Ok(_) => {}
            Err(msg) => self.nn.admit(ctx, from, msg, active),
        }
    }
}

#[cfg(test)]
mod tests {
    use mams_sim::{SimConfig, SimTime};

    use crate::{KillRig, Mechanism};

    #[test]
    fn failover_in_the_paper_band() {
        let mut rig = KillRig::new(SimConfig::default(), Mechanism::HadoopHa);
        rig.add_client(4, |_| {});
        let mttr = rig.mttr_after(SimTime(10_000_000), SimTime(60_000_000));
        // Paper band: 15–19 s.
        assert!((14.0..22.0).contains(&mttr), "HA MTTR {mttr:.1}s");
    }
}
