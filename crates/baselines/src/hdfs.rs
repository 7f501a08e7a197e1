//! Vanilla single-namenode HDFS: the throughput reference with no
//! reliability mechanism (and no recovery — if the namenode dies, the file
//! system is down, which is exactly the paper's motivation).

use std::collections::HashMap;

use mams_sim::{Ctx, Duration, Message, Node, NodeId};

use crate::common::{NameNode, PendingReply, FLUSH_INTERVAL, T_FLUSH};

/// Flush-completion timers are `T_DISK_BASE + n`.
const T_DISK_BASE: u64 = 1_000;

/// Local edit-log fsync latency.
const DISK_LATENCY: Duration = Duration::from_micros(1_500);

/// The single namenode.
pub struct HdfsNameNode {
    /// No journaling CPU on top of the base cost: the local edit-log
    /// append is amortized by group commit.
    nn: NameNode,
    /// Flushes whose disk write is in progress, by timer token.
    flushing: HashMap<u64, Vec<PendingReply>>,
    next_disk_token: u64,
}

impl HdfsNameNode {
    pub fn new(coord: NodeId) -> Self {
        HdfsNameNode {
            nn: NameNode::new(coord, Duration::ZERO),
            flushing: HashMap::new(),
            next_disk_token: T_DISK_BASE,
        }
    }
}

impl Node for HdfsNameNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.nn.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nn.heartbeat(ctx, token) {
            return;
        }
        if token == T_FLUSH {
            self.nn.drain(ctx, NameNode::serve);
            // Durable once the local disk has the edits.
            if let Some((_edits, replies)) = self.nn.seal() {
                let token = self.next_disk_token;
                self.next_disk_token += 1;
                self.flushing.insert(token, replies);
                ctx.set_timer(DISK_LATENCY, token);
            }
            ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
        } else if let Some(replies) = self.flushing.remove(&token) {
            self.nn.release(ctx, replies);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        // The only namenode is the active for group 0 from its first
        // registration on.
        if let Err(msg) = self.nn.on_coord(ctx, msg, true) {
            self.nn.admit(ctx, from, msg, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::metrics::Metrics;
    use mams_cluster::workload::Workload;
    use mams_cluster::{ClientConfig, FsClient};
    use mams_core::{FsOp, MdsReq, MdsResp, NsError, OpOutput};
    use mams_namespace::Partitioner;
    use mams_sim::{DetRng, Sim, SimConfig};
    use std::sync::{Arc, Mutex};

    use crate::Mechanism;

    fn boot() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(SimConfig::default());
        let d = Mechanism::Hdfs.build(&mut sim);
        (sim, d.coord, d.initial_active(0))
    }

    #[test]
    fn serves_clients_through_the_standard_client_library() {
        let (mut sim, coord, _) = boot();
        let m = Metrics::new(false);
        let cfg = ClientConfig::new(coord, Partitioner::new(1));
        sim.add_node(
            "client",
            Box::new(FsClient::new(cfg, Workload::mixed(0), m.clone(), DetRng::seed_from_u64(1))),
        );
        sim.run_for(Duration::from_secs(10));
        assert!(m.ok_count() > 500, "got {}", m.ok_count());
        assert_eq!(m.failed_count(), 0);
    }

    /// Creates `/f` under one seq and sends the same request again when its
    /// reply arrives — the retry of a client whose first reply was slow.
    struct Retrier {
        nn: NodeId,
        replies: Arc<Mutex<Vec<Result<OpOutput, NsError>>>>,
    }

    impl Retrier {
        fn send(&self, ctx: &mut Ctx<'_>) {
            let op = FsOp::Create { path: "/f".into(), replication: 3 };
            ctx.send(self.nn, MdsReq::Op { op, seq: 7, acked: 0 });
        }
    }

    impl Node for Retrier {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.send(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Ok(MdsResp::Reply { seq: 7, result }) = MdsResp::from_message(msg) {
                let mut replies = self.replies.lock().unwrap();
                replies.push(result);
                if replies.len() == 1 {
                    self.send(ctx);
                }
            }
        }
    }

    /// No harness sends a duplicate, so this is the front-end's only
    /// witness: an answered request asked again gets its first answer, not
    /// a second execution ("already exists").
    #[test]
    fn a_retried_request_is_answered_from_the_cache() {
        let (mut sim, _, nn) = boot();
        let replies = Arc::new(Mutex::new(Vec::new()));
        sim.add_node("retrier", Box::new(Retrier { nn, replies: replies.clone() }));
        sim.run_for(Duration::from_secs(1));
        let replies = replies.lock().unwrap();
        assert_eq!(replies.len(), 2);
        assert!(matches!(&replies[0], Ok(OpOutput::Info(i)) if i.path == "/f"), "{replies:?}");
        assert_eq!(replies[0], replies[1]);
    }
}
