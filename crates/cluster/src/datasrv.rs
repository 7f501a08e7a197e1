//! Data servers: block storage stand-ins that report the blocks they hold.
//!
//! In the paper, "block locations are periodically reported to both the
//! active and standby nodes by data servers" (Section III-A), which keeps
//! standbys hot on file locations. Nothing here reads a location: a member
//! drops every report on arrival, and [`crate::deploy::build`] starts no
//! data server. [`DataServer`] stays only because `bench_e2e`
//! builds its own cluster with it, and goes when that cluster does.

use std::collections::BTreeSet;

use mams_core::MdsReq;
use mams_sim::{Ctx, Duration, Message, Node, NodeId};

const T_REPORT: u64 = 1;

/// A data server holding a set of block replicas and reporting them to
/// every metadata server on a fixed cadence.
pub struct DataServer {
    /// Stable data-server id used in block reports.
    pub server_id: u32,
    /// The metadata servers it reports to.
    pub mds_nodes: Vec<NodeId>,
    pub report_interval: Duration,
    held: BTreeSet<u64>,
}

impl DataServer {
    pub fn new(server_id: u32, mds_nodes: Vec<NodeId>, report_interval: Duration) -> Self {
        DataServer { server_id, mds_nodes, report_interval, held: BTreeSet::new() }
    }

    pub fn with_blocks(mut self, blocks: impl IntoIterator<Item = u64>) -> Self {
        self.held.extend(blocks);
        self
    }

    fn send_report(&self, ctx: &mut Ctx<'_>) {
        let blocks: Vec<u64> = self.held.iter().copied().collect();
        for &mds in &self.mds_nodes {
            ctx.send(mds, MdsReq::BlockReport { server: self.server_id, blocks: blocks.clone() });
        }
    }
}

impl Node for DataServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_report(ctx);
        ctx.set_timer(self.report_interval, T_REPORT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == T_REPORT {
            self.send_report(ctx);
            ctx.set_timer(self.report_interval, T_REPORT);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_sim::{Sim, SimConfig};
    use parking_lot::Mutex;
    use std::sync::Arc;

    struct Sink {
        reports: Arc<Mutex<Vec<(u32, usize)>>>,
    }

    impl Node for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Ok(MdsReq::BlockReport { server, blocks }) = msg.downcast::<MdsReq>() {
                self.reports.lock().push((server, blocks.len()));
            }
        }
    }

    #[test]
    fn reports_flow_periodically() {
        let mut sim = Sim::new(SimConfig::default());
        let reports = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.add_node("mds", Box::new(Sink { reports: reports.clone() }));
        sim.add_node(
            "ds",
            Box::new(DataServer::new(7, vec![sink], Duration::from_secs(1)).with_blocks([1, 2, 3])),
        );
        sim.run_for(Duration::from_millis(2_500));
        let r = reports.lock();
        assert!(r.len() >= 3, "initial + 2 periodic, got {}", r.len());
        assert!(r.iter().all(|&(id, n)| id == 7 && n == 3));
    }
}
