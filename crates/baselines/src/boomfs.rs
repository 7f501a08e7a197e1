//! Boom-FS: metadata replicated through a Paxos distributed log.
//!
//! "To achieve reliability, it adopts a globally-consistent distributed log
//! to guarantee a total ordering over events affecting replicated states"
//! (Section II). Every metadata mutation is proposed into the
//! `mams-paxos` replicated log and applied at every member; reads are
//! served by the leader. The costs the paper attributes to this design fall
//! out structurally: each mutation pays a consensus round trip in the
//! normal case, and failover pays leader election plus log repair
//! ("centralizing repair action decisions and state transition, which leads
//! to additional failover time").

use std::collections::HashMap;

use mams_core::{FsOp, MdsResp, NsError, OpOutput, Prefix};
use mams_paxos::rsm::{MsgOf, RsmApp, RsmConfig, RsmNode, RsmTrace};
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};

use crate::common::{NameNode, FLUSH_INTERVAL, T_FLUSH};

/// Adapter timer token (the RSM uses 1 and 2, the front-end [`T_FLUSH`]).
const T_PUBLISH: u64 = 101;
const PUBLISH_INTERVAL: Duration = Duration::from_millis(200);

/// Replica count (the distributed log's membership).
pub(crate) const MEMBERS: usize = 3;
const HEARTBEAT: Duration = Duration::from_millis(500);
/// Leader failure-detection budget; Boom-FS sits between MAMS (~5 s
/// session timeout) and the heavier namenode designs.
const ELECTION_TIMEOUT: Duration = Duration::from_secs(6);
/// Leader-side consensus CPU per mutation (proposal marshalling +
/// accept handling for each follower).
const CONSENSUS_CPU: Duration = Duration::from_micros(40);

/// The replicated application: the state a MAMS member derives from its
/// journal, driven by the log's [`FsOp`]s — the consensus log is the
/// journal here, so nothing is ever sealed onto the prefix's own.
pub struct NsApp(Prefix);

impl RsmApp for NsApp {
    type Cmd = FsOp;
    type Query = FsOp;
    type Reply = Result<OpOutput, NsError>;

    fn apply(&mut self, _slot: u64, op: &FsOp) {
        // Validation happens at apply time in an RSM; a failed op is a
        // no-op on the state (all replicas agree on that too).
        let _ = self.0.exec(op.clone());
    }

    fn query(&mut self, op: &FsOp) -> Result<OpOutput, NsError> {
        self.0.exec(op.clone()).map(|(_, out)| out)
    }
}

type RsmMsg = MsgOf<NsApp>;

/// One Boom-FS server: an RSM member behind the shared front-end, which
/// admits, paces and deduplicates; the namespace is the RSM's, so the
/// front-end's own stays empty and nothing is ever sealed.
pub struct BoomFsServer {
    rsm: RsmNode<NsApp>,
    front: NameNode,
    published: bool,
    /// rsm request id → (client, client seq).
    waiting: HashMap<u64, (NodeId, u64)>,
    next_req: u64,
}

impl BoomFsServer {
    /// Member `me` of the log replicated over `members`.
    pub fn new(coord: NodeId, members: Vec<NodeId>, me: u32) -> Self {
        let cfg =
            RsmConfig { members, me, heartbeat: HEARTBEAT, election_timeout: ELECTION_TIMEOUT };
        BoomFsServer {
            rsm: RsmNode::new(cfg, NsApp(Prefix::new())),
            front: NameNode::new(coord, CONSENSUS_CPU),
            published: false,
            waiting: HashMap::new(),
            next_req: 1,
        }
    }

    /// The flush tick: hand each admitted operation to the local RSM
    /// member — a mutation is proposed into the log, a read is a
    /// leader-side query.
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let BoomFsServer { rsm, front, waiting, next_req, .. } = self;
        front.drain(ctx, |_, ctx, from, op, seq| {
            if !rsm.is_leader() {
                ctx.send(from, MdsResp::NotActive { seq });
                return;
            }
            let req = *next_req;
            *next_req += 1;
            waiting.insert(req, (from, seq));
            let me = ctx.id();
            if op.is_mutation() {
                ctx.send(me, RsmMsg::Propose { cmd: op, req });
            } else {
                ctx.send(me, RsmMsg::Query { q: op, req });
            }
        });
    }

    fn maybe_publish(&mut self, ctx: &mut Ctx<'_>) {
        let leading = self.rsm.is_leader();
        if leading == self.published {
            return;
        }
        if leading {
            self.front.publish(ctx);
        } else {
            self.front.unpublish(ctx);
        }
        self.published = leading;
    }
}

impl Node for BoomFsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.front.start(ctx);
        self.rsm.on_start(ctx);
        ctx.set_timer(PUBLISH_INTERVAL, T_PUBLISH);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.front.heartbeat(ctx, token) {
            return;
        }
        match token {
            T_PUBLISH => {
                self.maybe_publish(ctx);
                ctx.set_timer(PUBLISH_INTERVAL, T_PUBLISH);
            }
            T_FLUSH => {
                self.drain(ctx);
                ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
            }
            _ => self.rsm.on_timer(ctx, token),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        // Publication follows leadership on `T_PUBLISH`, not registration.
        let Err(msg) = self.front.on_coord(ctx, msg, false) else { return };
        match msg.downcast::<RsmMsg>() {
            Ok(RsmMsg::ProposeReply { req, committed, .. }) => {
                if let Some((client, seq)) = self.waiting.remove(&req) {
                    if committed {
                        self.front.reply(ctx, client, seq, Ok(OpOutput::Done));
                    } else {
                        ctx.send(client, MdsResp::NotActive { seq });
                    }
                }
            }
            Ok(RsmMsg::QueryReply { req, result, .. }) => {
                if let Some((client, seq)) = self.waiting.remove(&req) {
                    match result {
                        Some(result) => self.front.reply(ctx, client, seq, result),
                        None => ctx.send(client, MdsResp::NotActive { seq }),
                    }
                }
            }
            Ok(other) => self.rsm.on_message(ctx, from, Message::new(other)),
            Err(msg) => self.front.admit(ctx, from, msg, self.rsm.is_leader()),
        }
    }
}

/// The member that won the latest election, as the trace records it.
pub fn last_leader(sim: &Sim) -> Option<NodeId> {
    let won = sim.trace().of::<RsmTrace>().filter(|(_, _, e)| matches!(e, RsmTrace::Leader { .. }));
    won.last().map(|(_, leader, _)| leader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::metrics::Metrics;
    use mams_cluster::workload::Workload;
    use mams_cluster::{ClientConfig, FsClient};
    use mams_namespace::Partitioner;
    use mams_sim::{DetRng, SimConfig, SimTime};

    use crate::{KillRig, Mechanism};

    /// Let the RSM elect before the first operation.
    const START_DELAY: Duration = Duration::from_secs(10);

    #[test]
    fn serves_clients_after_electing_a_leader() {
        let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
        let coord = Mechanism::BoomFs.build(&mut sim).coord;
        let m = Metrics::new(false);
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.start_delay = START_DELAY;
        let client = FsClient::new(cfg, Workload::mixed(0), m.clone(), DetRng::seed_from_u64(5));
        sim.add_node("client", Box::new(client));
        sim.run_for(Duration::from_secs(40));
        assert!(m.ok_count() > 300, "got {}", m.ok_count());
        assert_eq!(m.failed_count(), 0);
    }

    #[test]
    fn leader_crash_recovers_slower_than_mams_but_recovers() {
        let mut rig =
            KillRig::new(SimConfig { seed: 12, ..SimConfig::default() }, Mechanism::BoomFs);
        rig.add_client(6, |c| c.start_delay = START_DELAY);
        // The rig kills whichever member won the latest election.
        let mttr = rig.mttr_after(SimTime(30_000_000), SimTime(80_000_000));
        // Election timeout 6 s (±50% jitter) + repair: expect ~4–14 s.
        assert!((3.0..16.0).contains(&mttr), "BoomFS MTTR {mttr:.1}s");
    }
}
