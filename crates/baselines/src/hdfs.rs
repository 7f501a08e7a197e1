//! Vanilla single-namenode HDFS: the throughput reference with no
//! reliability mechanism (and no recovery — if the namenode dies, the file
//! system is down, which is exactly the paper's motivation).

use mams_coord::{CoordClient, Incoming};
use mams_core::{CpuModel, Ingress, MdsReq};
use mams_namespace::NamespaceTree;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};

use crate::common::{exec_op, reply, RetryCache};

const T_FLUSH: u64 = 1;
/// Flush-completion timers are `T_DISK_BASE + token`.
const T_DISK_BASE: u64 = 1_000;

/// Journal batch aggregation interval (same as MAMS for fairness).
const FLUSH_INTERVAL: Duration = Duration::from_millis(2);
/// Local edit-log fsync latency.
const DISK_LATENCY: Duration = Duration::from_micros(1_500);

/// The single namenode.
pub struct HdfsNameNode {
    coord: CoordClient,
    ns: NamespaceTree,
    next_block: u64,
    retry: RetryCache,
    /// Mutation replies awaiting the next flush.
    pending: Vec<crate::common::PendingReply>,
    /// Flushes whose disk write is in progress, by timer token.
    flushing: std::collections::HashMap<u64, Vec<crate::common::PendingReply>>,
    next_disk_token: u64,
    ingress: Ingress,
    cpu: CpuModel,
}

impl HdfsNameNode {
    pub fn new(coord: NodeId) -> Self {
        HdfsNameNode {
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            ns: NamespaceTree::new(),
            next_block: 1,
            retry: RetryCache::new(),
            pending: Vec::new(),
            flushing: std::collections::HashMap::new(),
            next_disk_token: T_DISK_BASE,
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
                if txn.is_some() {
                    self.pending.push((from, seq, Ok(out)));
                } else {
                    reply(&mut self.retry, ctx, from, seq, Ok(out));
                }
            }
            Err(e) => reply(&mut self.retry, ctx, from, seq, Err(e)),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        let token = self.next_disk_token;
        self.next_disk_token += 1;
        self.flushing.insert(token, batch);
        ctx.set_timer(DISK_LATENCY, token);
    }
}

impl Node for HdfsNameNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.start(ctx);
        ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.coord.on_timer(ctx, token) {
            return;
        }
        if token == T_FLUSH {
            // No journaling CPU on top of the base cost: the local edit-log
            // append is amortized by group commit.
            for item in self.ingress.drain(FLUSH_INTERVAL, self.cpu) {
                if let mams_core::IngressItem::Client { from, op, seq, .. } = item {
                    self.serve(ctx, from, op, seq);
                }
            }
            self.flush(ctx);
            ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
        } else if let Some(replies) = self.flushing.remove(&token) {
            for (to, seq, result) in replies {
                reply(&mut self.retry, ctx, to, seq, result);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match CoordClient::classify(msg) {
            Ok(Incoming::Resp(mams_coord::CoordResp::Registered)) => {
                // Publish ourselves as the (only) active for group 0.
                let me = ctx.id();
                self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
                return;
            }
            Ok(_) => return,
            Err(m) => m,
        };
        if let Ok(req) = msg.downcast::<MdsReq>() {
            match req {
                MdsReq::Op { op, seq, .. } => {
                    self.ingress.push(from, op, seq, None);
                }
                MdsReq::BlockReport { .. } | MdsReq::Checkpoint => {}
            }
        }
    }
}

/// Add a vanilla HDFS namenode to the simulation (publishing itself as
/// group 0's active in the global view so `FsClient` routes to it).
pub fn build(sim: &mut Sim, coord: NodeId) -> NodeId {
    sim.add_node("hdfs-nn", Box::new(HdfsNameNode::new(coord)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_cluster::metrics::Metrics;
    use mams_cluster::workload::Workload;
    use mams_cluster::{ClientConfig, FsClient};
    use mams_coord::{CoordConfig, CoordServer};
    use mams_namespace::Partitioner;
    use mams_sim::{DetRng, Sim, SimConfig};

    #[test]
    fn serves_clients_through_the_standard_client_library() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        build(&mut sim, coord);
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
}
