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

use bytes::Bytes;
use mams_coord::{CoordClient, Incoming};
use mams_core::{CpuModel, FsOp, Ingress, IngressItem, MdsReq, MdsResp, OpOutput};
use mams_namespace::NamespaceTree;
use mams_paxos::rsm::{RsmApp, RsmConfig, RsmMsg, RsmNode};
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim};

use crate::common::{exec_op, RetryCache};

/// Adapter timer tokens (RSM uses 1 and 2).
const T_PUBLISH: u64 = 100;
const T_DRAIN: u64 = 101;

/// Hand-rolled wire codec for the RSM payloads. The vendored `serde_json`
/// stand-in can serialize but its `from_slice` always errors (offline build
/// without a real JSON parser), which silently turned every applied command
/// into a no-op and every query into an error. Commands and query results
/// only ever cross this adapter, so a private tag-byte binary format is all
/// the RSM needs.
mod wire {
    use bytes::Bytes;
    use mams_core::{FsOp, OpOutput};
    use mams_namespace::FileInfo;

    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn get_u32(buf: &mut &[u8]) -> Option<u32> {
        let (head, rest) = buf.split_first_chunk::<4>()?;
        *buf = rest;
        Some(u32::from_le_bytes(*head))
    }

    fn get_u64(buf: &mut &[u8]) -> Option<u64> {
        let (head, rest) = buf.split_first_chunk::<8>()?;
        *buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    fn get_u8(buf: &mut &[u8]) -> Option<u8> {
        let (&b, rest) = buf.split_first()?;
        *buf = rest;
        Some(b)
    }

    fn get_str(buf: &mut &[u8]) -> Option<String> {
        let len = get_u32(buf)? as usize;
        if buf.len() < len {
            return None;
        }
        let (head, rest) = buf.split_at(len);
        let s = std::str::from_utf8(head).ok()?.to_string();
        *buf = rest;
        Some(s)
    }

    pub fn encode_op(op: &FsOp) -> Bytes {
        let mut out = Vec::new();
        match op {
            FsOp::Create { path, replication } => {
                out.push(0);
                put_str(&mut out, path);
                out.push(*replication);
            }
            FsOp::Mkdir { path } => {
                out.push(1);
                put_str(&mut out, path);
            }
            FsOp::Delete { path, recursive } => {
                out.push(2);
                put_str(&mut out, path);
                out.push(*recursive as u8);
            }
            FsOp::Rename { src, dst } => {
                out.push(3);
                put_str(&mut out, src);
                put_str(&mut out, dst);
            }
            FsOp::GetFileInfo { path } => {
                out.push(4);
                put_str(&mut out, path);
            }
            FsOp::List { path } => {
                out.push(5);
                put_str(&mut out, path);
            }
            FsOp::AddBlock { path, len } => {
                out.push(6);
                put_str(&mut out, path);
                out.extend_from_slice(&len.to_le_bytes());
            }
            FsOp::CloseFile { path } => {
                out.push(7);
                put_str(&mut out, path);
            }
            FsOp::SetPerm { path, perm } => {
                out.push(8);
                put_str(&mut out, path);
                out.extend_from_slice(&(*perm as u32).to_le_bytes());
            }
        }
        Bytes::from(out)
    }

    pub fn decode_op(mut buf: &[u8]) -> Option<FsOp> {
        let b = &mut buf;
        let op = match get_u8(b)? {
            0 => FsOp::Create { path: get_str(b)?, replication: get_u8(b)? },
            1 => FsOp::Mkdir { path: get_str(b)? },
            2 => FsOp::Delete { path: get_str(b)?, recursive: get_u8(b)? != 0 },
            3 => FsOp::Rename { src: get_str(b)?, dst: get_str(b)? },
            4 => FsOp::GetFileInfo { path: get_str(b)? },
            5 => FsOp::List { path: get_str(b)? },
            6 => {
                let path = get_str(b)?;
                let len = get_u32(b)?;
                FsOp::AddBlock { path, len }
            }
            7 => FsOp::CloseFile { path: get_str(b)? },
            8 => {
                let path = get_str(b)?;
                let perm = get_u32(b)? as u16;
                FsOp::SetPerm { path, perm }
            }
            _ => return None,
        };
        buf.is_empty().then_some(op)
    }

    pub fn encode_result(r: &Result<OpOutput, String>) -> Bytes {
        let mut out = Vec::new();
        match r {
            Err(e) => {
                out.push(0);
                put_str(&mut out, e);
            }
            Ok(OpOutput::Done) => out.push(1),
            Ok(OpOutput::Block(id)) => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Ok(OpOutput::Listing(names)) => {
                out.push(3);
                out.extend_from_slice(&(names.len() as u32).to_le_bytes());
                for n in names {
                    put_str(&mut out, n);
                }
            }
            Ok(OpOutput::Info(info)) => {
                out.push(4);
                put_str(&mut out, &info.path);
                out.push(info.is_dir as u8);
                out.extend_from_slice(&(info.blocks.len() as u32).to_le_bytes());
                for bl in &info.blocks {
                    out.extend_from_slice(&bl.to_le_bytes());
                }
                out.push(info.replication);
                out.push(info.sealed as u8);
                out.extend_from_slice(&(info.perm as u32).to_le_bytes());
                out.extend_from_slice(&(info.child_count as u64).to_le_bytes());
            }
        }
        Bytes::from(out)
    }

    pub fn decode_result(mut buf: &[u8]) -> Option<Result<OpOutput, String>> {
        let b = &mut buf;
        let r = match get_u8(b)? {
            0 => Err(get_str(b)?),
            1 => Ok(OpOutput::Done),
            2 => Ok(OpOutput::Block(get_u64(b)?)),
            3 => {
                let n = get_u32(b)? as usize;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(get_str(b)?);
                }
                Ok(OpOutput::Listing(names))
            }
            4 => {
                let path = get_str(b)?;
                let is_dir = get_u8(b)? != 0;
                let n = get_u32(b)? as usize;
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(get_u64(b)?);
                }
                let replication = get_u8(b)?;
                let sealed = get_u8(b)? != 0;
                let perm = get_u32(b)? as u16;
                let child_count = get_u64(b)? as usize;
                Ok(OpOutput::Info(FileInfo {
                    path,
                    is_dir,
                    blocks,
                    replication,
                    sealed,
                    perm,
                    child_count,
                }))
            }
            _ => return None,
        };
        buf.is_empty().then_some(r)
    }
}

/// Replica count (the distributed log's membership).
const MEMBERS: usize = 3;
const HEARTBEAT: Duration = Duration::from_millis(500);
/// Leader failure-detection budget; Boom-FS sits between MAMS (~5 s
/// session timeout) and the heavier namenode designs.
const ELECTION_TIMEOUT: Duration = Duration::from_secs(6);
/// Leader-side consensus CPU per mutation (proposal marshalling +
/// accept handling for each follower).
const CONSENSUS_CPU: Duration = Duration::from_micros(40);

/// The replicated application: a namespace driven by serialized [`FsOp`]s.
pub struct NsApp {
    ns: NamespaceTree,
    next_block: u64,
}

impl NsApp {
    fn new() -> Self {
        NsApp { ns: NamespaceTree::new(), next_block: 1 }
    }
}

impl RsmApp for NsApp {
    fn apply(&mut self, _slot: u64, cmd: &Bytes) {
        if let Some(op) = wire::decode_op(cmd) {
            // Validation happens at apply time in an RSM; a failed op is a
            // no-op on the state (all replicas agree on that too).
            let _ = exec_op(&mut self.ns, &mut self.next_block, &op);
        }
    }

    fn query(&mut self, q: &Bytes) -> Bytes {
        let result: Result<OpOutput, String> = match wire::decode_op(q) {
            Some(op) => exec_op(&mut self.ns, &mut self.next_block, &op).map(|(_, out)| out),
            None => Err("malformed query".into()),
        };
        wire::encode_result(&result)
    }
}

/// One Boom-FS server: an RSM member plus the client-protocol adapter.
pub struct BoomFsServer {
    rsm: RsmNode<NsApp>,
    coord: CoordClient,
    published: bool,
    retry: RetryCache,
    /// rsm request id → (client, client seq, is_query).
    waiting: HashMap<u64, (NodeId, u64)>,
    next_req: u64,
    ingress: Ingress,
    cpu: CpuModel,
}

impl BoomFsServer {
    pub fn new(coord: NodeId, cfg: RsmConfig) -> Self {
        BoomFsServer {
            rsm: RsmNode::new(cfg, NsApp::new()),
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            published: false,
            retry: RetryCache::new(),
            waiting: HashMap::new(),
            next_req: 1,
            ingress: Ingress::default(),
            cpu: CpuModel::default(),
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let mut cpu = self.cpu;
        cpu.mutation += CONSENSUS_CPU;
        for item in self.ingress.drain(Duration::from_millis(2), cpu) {
            if let IngressItem::Client { from, op, seq, .. } = item {
                self.process(ctx, from, op, seq);
            }
        }
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, from: NodeId, op: FsOp, seq: u64) {
        if !self.rsm.is_leader() {
            ctx.send(from, MdsResp::NotActive { seq });
            return;
        }
        let encoded = wire::encode_op(&op);
        let rsm_req = self.next_req;
        self.next_req += 1;
        self.waiting.insert(rsm_req, (from, seq));
        let me = ctx.id();
        if op.is_mutation() {
            ctx.send(me, RsmMsg::Propose { cmd: encoded, req: rsm_req });
        } else {
            ctx.send(me, RsmMsg::Query { q: encoded, req: rsm_req });
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, to: NodeId, seq: u64, result: Result<OpOutput, String>) {
        let resp = std::sync::Arc::new(MdsResp::Reply { seq, result });
        self.retry.store(to, seq, resp.clone());
        ctx.send(to, resp);
    }

    fn maybe_publish(&mut self, ctx: &mut Ctx<'_>) {
        let leading = self.rsm.is_leader();
        if leading && !self.published {
            let me = ctx.id();
            self.coord.set(ctx, mams_core::keys::active(0), me.to_string(), true);
            self.published = true;
        } else if !leading && self.published {
            self.coord
                .multi(ctx, vec![mams_coord::KeyOp::Delete { key: mams_core::keys::active(0) }]);
            self.published = false;
        }
    }
}

impl Node for BoomFsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.start(ctx);
        self.rsm.on_start(ctx);
        ctx.set_timer(Duration::from_millis(200), T_PUBLISH);
        ctx.set_timer(Duration::from_millis(2), T_DRAIN);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.coord.on_timer(ctx, token) {
            return;
        }
        if token == T_PUBLISH {
            self.maybe_publish(ctx);
            ctx.set_timer(Duration::from_millis(200), T_PUBLISH);
            return;
        }
        if token == T_DRAIN {
            self.drain(ctx);
            ctx.set_timer(Duration::from_millis(2), T_DRAIN);
            return;
        }
        self.rsm.on_timer(ctx, token);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let msg = match CoordClient::classify(msg) {
            Ok(Incoming::Resp(_) | Incoming::Event(_)) => return,
            Err(m) => m,
        };
        let msg = match msg.downcast::<RsmMsg>() {
            Ok(RsmMsg::ProposeReply { req, committed, .. }) => {
                if let Some((client, seq)) = self.waiting.remove(&req) {
                    if committed {
                        self.reply(ctx, client, seq, Ok(OpOutput::Done));
                    } else {
                        ctx.send(client, MdsResp::NotActive { seq });
                    }
                }
                return;
            }
            Ok(RsmMsg::QueryReply { req, ok, result, .. }) => {
                if let Some((client, seq)) = self.waiting.remove(&req) {
                    if ok {
                        let decoded: Result<OpOutput, String> = result
                            .as_deref()
                            .and_then(wire::decode_result)
                            .unwrap_or_else(|| Err("malformed query result".into()));
                        self.reply(ctx, client, seq, decoded);
                    } else {
                        ctx.send(client, MdsResp::NotActive { seq });
                    }
                }
                return;
            }
            Ok(other) => {
                self.rsm.on_message(ctx, from, Message::new(other));
                return;
            }
            Err(m) => m,
        };
        if let Ok(req) = msg.downcast::<MdsReq>() {
            match req {
                MdsReq::Op { op, seq, .. } => {
                    if let Some(cached) = self.retry.check(from, seq) {
                        ctx.send(from, cached);
                        return;
                    }
                    if !self.rsm.is_leader() {
                        ctx.send(from, MdsResp::NotActive { seq });
                        return;
                    }
                    self.ingress.push(from, op, seq, None);
                }
                MdsReq::BlockReport { .. } | MdsReq::Checkpoint => {}
            }
        }
    }
}

/// Build a Boom-FS cluster. Returns the member node ids.
pub fn build(sim: &mut Sim, coord: NodeId) -> Vec<NodeId> {
    let base = sim.num_nodes() as NodeId;
    let members: Vec<NodeId> = (0..MEMBERS as NodeId).map(|i| base + i).collect();
    for (i, &planned) in members.iter().enumerate() {
        let mut cfg = RsmConfig::new(members.clone(), i as u32);
        cfg.heartbeat = HEARTBEAT;
        cfg.election_timeout = ELECTION_TIMEOUT;
        let got = sim.add_node(format!("boomfs-{i}"), Box::new(BoomFsServer::new(coord, cfg)));
        assert_eq!(got, planned);
    }
    members
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

    fn boot(seed: u64) -> (Sim, NodeId, Vec<NodeId>) {
        let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let members = build(&mut sim, coord);
        (sim, coord, members)
    }

    #[test]
    fn wire_codec_round_trips() {
        let ops = vec![
            FsOp::Create { path: "/a/f".into(), replication: 3 },
            FsOp::Mkdir { path: "/a".into() },
            FsOp::Delete { path: "/a".into(), recursive: true },
            FsOp::Rename { src: "/a".into(), dst: "/b".into() },
            FsOp::GetFileInfo { path: "/".into() },
            FsOp::List { path: "/a".into() },
            FsOp::AddBlock { path: "/a/f".into(), len: 1 << 20 },
            FsOp::CloseFile { path: "/a/f".into() },
            FsOp::SetPerm { path: "/a/f".into(), perm: 0o644 },
        ];
        for op in &ops {
            let enc = wire::encode_op(op);
            assert_eq!(wire::decode_op(&enc).as_ref(), Some(op), "{op:?}");
        }
        let results: Vec<Result<OpOutput, String>> = vec![
            Err("no such file".into()),
            Ok(OpOutput::Done),
            Ok(OpOutput::Block(42)),
            Ok(OpOutput::Listing(vec!["x".into(), "y".into()])),
            Ok(OpOutput::Info(mams_namespace::FileInfo {
                path: "/a/f".into(),
                is_dir: false,
                blocks: vec![1, 2, 3],
                replication: 2,
                sealed: true,
                perm: 0o755,
                child_count: 0,
            })),
        ];
        for r in &results {
            let enc = wire::encode_result(r);
            assert_eq!(wire::decode_result(&enc).as_ref(), Some(r), "{r:?}");
        }
        // Truncated and trailing-garbage inputs are rejected, not misparsed.
        let enc = wire::encode_op(&ops[0]);
        assert_eq!(wire::decode_op(&enc[..enc.len() - 1]), None);
        let mut long = enc.to_vec();
        long.push(0);
        assert_eq!(wire::decode_op(&long), None);
    }

    #[test]
    fn serves_clients_after_electing_a_leader() {
        let (mut sim, coord, _members) = boot(11);
        let m = Metrics::new(false);
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.start_delay = Duration::from_secs(10); // let the RSM elect
        sim.add_node(
            "client",
            Box::new(FsClient::new(cfg, Workload::mixed(0), m.clone(), DetRng::seed_from_u64(5))),
        );
        sim.run_for(Duration::from_secs(40));
        assert!(m.ok_count() > 300, "got {}", m.ok_count());
        assert_eq!(m.failed_count(), 0);
    }

    #[test]
    fn leader_crash_recovers_slower_than_mams_but_recovers() {
        let (mut sim, coord, members) = boot(12);
        let m = Metrics::new(true);
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.start_delay = Duration::from_secs(10);
        sim.add_node(
            "client",
            Box::new(FsClient::new(
                cfg,
                Workload::create_only(0),
                m.clone(),
                DetRng::seed_from_u64(6),
            )),
        );
        // Kill whichever member is the published leader at t=30s.
        let kill = SimTime(30_000_000);
        sim.at(kill, move |s| {
            // The leader is the one whose name appears in the last
            // lock-free way we have: crash the first member that traced
            // rsm.leader most recently. Simpler: crash members[0] if up —
            // election is symmetric, so re-run with the real leader below.
            let _ = &members;
            // Find the leader via the trace.
            let leader = s
                .trace()
                .events()
                .iter()
                .rev()
                .find(|e| e.tag == "rsm.leader")
                .map(|e| e.node)
                .expect("a leader was elected");
            s.crash(leader);
        });
        sim.run_for(Duration::from_secs(80));
        let outages = mttr_from_completions(&m.completions(), &[kill.micros()]);
        assert_eq!(outages.len(), 1, "service must recover after leader crash");
        let mttr = outages[0].mttr_secs();
        // Election timeout 6 s (±50% jitter) + repair: expect ~4–14 s.
        assert!((3.0..16.0).contains(&mttr), "BoomFS MTTR {mttr:.1}s");
    }
}
