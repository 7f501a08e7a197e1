//! The namenode front-end every comparator shares — admission, the flush
//! tick, duplicate suppression, sealing and release, journal replay, the
//! checkpoint restart — and the scale model.

use std::borrow::Borrow;
use std::sync::Arc;

use mams_coord::{CoordClient, CoordEvent, CoordResp, Incoming, KeyOp};
use mams_core::retry::RetryCache;
use mams_core::{CpuModel, FsOp, Ingress, IngressItem, MdsReq, MdsResp, OpOutput, ViewKey};
use mams_journal::{JournalBatch, ReplayCursor, SharedBatch, Sn, Txn};
use mams_namespace::{ImageError, NamespaceImage, NamespaceTree};
use mams_sim::{Ctx, Duration, Message, NodeId};

/// The front-end's flush timer. Clear of the tokens a comparator arms for
/// itself (2, 3, 1000…) and of the RSM's (1, 2), which Boom-FS forwards.
pub const T_FLUSH: u64 = 100;
/// Journal batch aggregation interval (same as MAMS for fairness).
pub const FLUSH_INTERVAL: Duration = Duration::from_millis(2);

/// File-system scale for experiments that cannot materialize millions of
/// inodes. Derived from the paper's calibration point: a ~1 GB image holds
/// "more than 7 million files" (Section IV-B), i.e. ~150 B of image per
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsScale {
    pub nominal_files: u64,
}

impl FsScale {
    pub const BYTES_PER_FILE: u64 = 150;

    pub fn from_image_bytes(image_bytes: u64) -> Self {
        FsScale { nominal_files: image_bytes / Self::BYTES_PER_FILE }
    }

    pub fn from_image_mb(image_mb: u64) -> Self {
        Self::from_image_bytes(image_mb * 1024 * 1024)
    }

    pub fn image_bytes(&self) -> u64 {
        self.nominal_files * Self::BYTES_PER_FILE
    }
}

/// A namenode checkpoint: the fsimage a restarting or taking-over node
/// reloads (HDFS `-importCheckpoint` style), plus the block-id cursor that
/// rides alongside it. Saved in the current wire format; images saved
/// before the v2 cutover restore through the same call (the decoder
/// dispatches on the version byte).
#[derive(Debug, Clone)]
pub struct SavedCheckpoint {
    pub image: NamespaceImage,
    pub next_block: u64,
}

impl SavedCheckpoint {
    /// Snapshot the namespace as a current-format image.
    pub fn save(ns: &NamespaceTree, next_block: u64, sn: Sn) -> SavedCheckpoint {
        SavedCheckpoint { image: mams_namespace::encode_image(ns, sn), next_block }
    }

    /// Reload the image into a fresh namespace.
    pub fn restore(&self) -> Result<(NamespaceTree, Sn), ImageError> {
        mams_namespace::decode_image(self.image.data.clone())
    }
}

/// Execute one client operation against a namespace, producing the journal
/// record for mutations. Identical semantics to the MAMS active's execution
/// path, so all systems agree on op outcomes.
pub fn exec_op(
    ns: &mut NamespaceTree,
    next_block: &mut u64,
    op: &FsOp,
) -> Result<(Option<Txn>, OpOutput), String> {
    match op {
        FsOp::GetFileInfo { path } => {
            ns.getfileinfo(path).map(|i| (None, OpOutput::Info(i))).map_err(|e| e.to_string())
        }
        FsOp::List { path } => {
            ns.list(path).map(|l| (None, OpOutput::Listing(l))).map_err(|e| e.to_string())
        }
        FsOp::Create { path, replication } => ns
            .create(path, *replication)
            .map(|i| {
                (
                    Some(Txn::Create { path: path.clone(), replication: *replication }),
                    OpOutput::Info(i),
                )
            })
            .map_err(|e| e.to_string()),
        FsOp::Mkdir { path } => ns
            .mkdir(path)
            .map(|()| (Some(Txn::Mkdir { path: path.clone() }), OpOutput::Done))
            .map_err(|e| e.to_string()),
        FsOp::Delete { path, recursive } => ns
            .delete(path, *recursive)
            .map(|_| {
                (Some(Txn::Delete { path: path.clone(), recursive: *recursive }), OpOutput::Done)
            })
            .map_err(|e| e.to_string()),
        FsOp::Rename { src, dst } => ns
            .rename(src, dst)
            .map(|()| (Some(Txn::Rename { src: src.clone(), dst: dst.clone() }), OpOutput::Done))
            .map_err(|e| e.to_string()),
        FsOp::AddBlock { path, len } => {
            let id = *next_block;
            ns.add_block(path, id)
                .map(|()| {
                    *next_block += 1;
                    (
                        Some(Txn::AddBlock { path: path.clone(), block_id: id, len: *len }),
                        OpOutput::Block(id),
                    )
                })
                .map_err(|e| e.to_string())
        }
        FsOp::CloseFile { path } => ns
            .close_file(path)
            .map(|()| (Some(Txn::CloseFile { path: path.clone() }), OpOutput::Done))
            .map_err(|e| e.to_string()),
        FsOp::SetPerm { path, perm } => ns
            .set_perm(path, *perm)
            .map(|()| (Some(Txn::SetPerm { path: path.clone(), perm: *perm }), OpOutput::Done))
            .map_err(|e| e.to_string()),
    }
}

/// A client reply waiting on durability: `(client, seq, result)`.
pub type PendingReply = (NodeId, u64, Result<OpOutput, String>);

/// What every comparator has in common with every other: a session with
/// the coordination service and the `g/0/active` pointer clients route by,
/// a namespace with its block cursor, the bounded admission queue under the
/// shared CPU model, the duplicate-suppression cache MAMS uses, the window
/// of mutations executed but not yet sealed, and the standby's replay
/// cursor. A comparator adds only what makes it that system: where a
/// sealed batch must be durable before its replies go, how failure is
/// detected, what takeover costs.
pub struct NameNode {
    coord: CoordClient,
    ns: NamespaceTree,
    next_block: u64,
    retry: RetryCache,
    ingress: Ingress,
    /// The namenode's base cost per op plus this system's journaling CPU
    /// per mutation.
    cpu: CpuModel,
    /// Mutation replies waiting for the next [`seal`](Self::seal), and the
    /// records those mutations produced.
    pending: Vec<PendingReply>,
    records: Vec<Txn>,
    next_sn: Sn,
    /// Standby side: how far the journal has been replayed.
    cursor: ReplayCursor,
}

impl NameNode {
    pub fn new(coord: NodeId, journal_cpu: Duration) -> Self {
        let mut cpu = CpuModel::default();
        cpu.mutation += journal_cpu;
        NameNode {
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            ns: NamespaceTree::new(),
            next_block: 1,
            retry: RetryCache::new(),
            ingress: Ingress::default(),
            cpu,
            pending: Vec::new(),
            records: Vec::new(),
            next_sn: 1,
            cursor: ReplayCursor::new(),
        }
    }

    /// Open the coordination session and arm the flush timer; the owner
    /// re-arms [`T_FLUSH`] after each tick.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.start(ctx);
        ctx.set_timer(FLUSH_INTERVAL, T_FLUSH);
    }

    /// Feed a timer through; `true` if it was the session heartbeat.
    pub fn heartbeat(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        self.coord.on_timer(ctx, token)
    }

    /// Publish this node as group 0's active, so `FsClient` routes to it.
    pub fn publish(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        self.coord.set(ctx, ViewKey::Active(0).to_string(), me.to_string(), true);
    }

    /// Withdraw the pointer [`publish`](Self::publish) set.
    pub fn unpublish(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.multi(ctx, vec![KeyOp::Delete { key: ViewKey::Active(0).to_string() }]);
    }

    /// Watch group 0's keys: the failure detector of the hot-standby
    /// designs (see [`on_coord`](Self::on_coord)).
    pub fn watch_active(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.watch(ctx, ViewKey::group(0));
    }

    /// Coordinator traffic. `Err(msg)`: not from the coordinator.
    /// `Ok(vanished)`: consumed, and `vanished` when a watch reports that
    /// the active's ephemeral pointer is gone. A (re-)registered `active`
    /// publishes itself.
    pub fn on_coord(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Message,
        active: bool,
    ) -> Result<bool, Message> {
        match CoordClient::classify(msg)? {
            Incoming::Resp(CoordResp::Registered) if active => self.publish(ctx),
            Incoming::Event(CoordEvent::KeyChanged { key, value: None, .. }) => {
                return Ok(ViewKey::parse(&key) == Some(ViewKey::Active(0)));
            }
            _ => {}
        }
        Ok(false)
    }

    /// Answer an exact duplicate of an answered request from the cache.
    fn answer_duplicate(&mut self, ctx: &mut Ctx<'_>, from: NodeId, seq: u64) -> bool {
        let cached = self.retry.check(from, seq);
        if let Some(resp) = &cached {
            ctx.send(from, resp.clone());
        }
        cached.is_some()
    }

    /// A client operation at the door: a duplicate is answered from the
    /// cache, any other is queued when `active` and told `NotActive` when
    /// not. Messages that are not client operations are dropped.
    pub fn admit(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message, active: bool) {
        let Ok(MdsReq::Op { op, seq, .. }) = msg.downcast::<MdsReq>() else { return };
        if self.answer_duplicate(ctx, from, seq) {
            return;
        }
        if active {
            self.ingress.push(from, op, seq, None);
        } else {
            ctx.send(from, MdsResp::NotActive { seq });
        }
    }

    /// The flush tick: hand what one interval of this system's CPU admits
    /// from the queue to `fresh` — [`NameNode::serve`], unless the
    /// namespace lives elsewhere.
    pub fn drain(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut fresh: impl FnMut(&mut Self, &mut Ctx<'_>, NodeId, FsOp, u64),
    ) {
        for item in self.ingress.drain(FLUSH_INTERVAL, self.cpu) {
            if let IngressItem::Client { from, op, seq } = item {
                fresh(self, ctx, from, op, seq);
            }
        }
    }

    /// Execute one queued operation, unless it was answered while it
    /// queued: a read or a refused mutation is answered at once, an applied
    /// mutation queues its record and its reply for the next
    /// [`seal`](Self::seal).
    ///
    /// Known gaps against MAMS's duplicate handling, shared by all five
    /// comparators and left for a change that measures them:
    /// `RetryCache::begin` is not called, so a duplicate of a mutation
    /// still waiting on durability misses the cache and executes a second
    /// time (typically refused as "already exists"); `note_acked` is not
    /// called, so the client's receipt watermark is ignored and its cached
    /// replies are evicted by capacity only; and Boom-FS, whose `fresh` is
    /// its own, does not ask the cache a second time here — a duplicate
    /// queued before its original was answered goes through the log again
    /// (Figure 9's tracker sends four).
    pub fn serve(&mut self, ctx: &mut Ctx<'_>, from: NodeId, op: FsOp, seq: u64) {
        if self.answer_duplicate(ctx, from, seq) {
            return;
        }
        match exec_op(&mut self.ns, &mut self.next_block, &op) {
            Ok((Some(txn), out)) => {
                self.records.push(txn);
                self.pending.push((from, seq, Ok(out)));
            }
            Ok((None, out)) => self.reply(ctx, from, seq, Ok(out)),
            Err(e) => self.reply(ctx, from, seq, Err(e)),
        }
    }

    /// Close the window: the records queued since the last seal as the
    /// next journal batch, with the replies that wait on its durability.
    /// `None` when no mutation was applied.
    pub fn seal(&mut self) -> Option<(SharedBatch, Vec<PendingReply>)> {
        if self.records.is_empty() {
            return None;
        }
        let batch = JournalBatch::new(self.next_sn, 1, std::mem::take(&mut self.records));
        self.next_sn += 1;
        Some((batch.into(), std::mem::take(&mut self.pending)))
    }

    /// Reply to a client, remembering the response for its retries. The
    /// response is built behind `Arc` once; the cache entry and the wire
    /// message share it.
    pub fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: NodeId,
        seq: u64,
        result: Result<OpOutput, String>,
    ) {
        let resp = Arc::new(MdsResp::Reply { seq, result });
        self.retry.store(to, seq, resp.clone());
        ctx.send(to, resp);
    }

    /// Send the replies of a batch that has become durable.
    pub fn release(&mut self, ctx: &mut Ctx<'_>, replies: Vec<PendingReply>) {
        for (to, seq, result) in replies {
            self.reply(ctx, to, seq, result);
        }
    }

    /// Standby side: apply the in-order batches through the reference
    /// per-record [`NamespaceTree::apply`], keeping the block-id high-water
    /// mark, and seal from there on if promoted. A baseline's replay CPU is
    /// modelled, so the apply loop's own speed is not part of any
    /// comparison.
    pub fn replay<B: Borrow<JournalBatch>>(&mut self, batches: &[B]) {
        let (ns, next_block) = (&mut self.ns, &mut self.next_block);
        self.cursor.offer_all(batches, &mut |_, t: &Txn| {
            let _ = ns.apply(t);
            if let Txn::AddBlock { block_id, .. } = t {
                *next_block = (*next_block).max(*block_id + 1);
            }
        });
        self.next_sn = self.cursor.max_sn() + 1;
    }

    /// Highest serial number [`replay`](Self::replay) has applied.
    pub fn replayed_sn(&self) -> Sn {
        self.cursor.max_sn()
    }

    pub fn num_files(&self) -> u64 {
        self.ns.num_files()
    }

    /// HDFS `-importCheckpoint`: save the namespace as a fresh fsimage and
    /// restart from the reload, so a promoted node serves exactly the state
    /// a cold image load yields. Returns the image's size in bytes, for
    /// the caller's disk-time model.
    pub fn restart_from_checkpoint(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let cp = SavedCheckpoint::save(&self.ns, self.next_block, self.cursor.max_sn());
        match cp.restore() {
            Ok((tree, _)) => {
                ctx.trace("namenode.image_restart", || {
                    format!(
                        "v{} image, {} B",
                        cp.image.version().unwrap_or(0),
                        cp.image.size_bytes()
                    )
                });
                self.ns = tree;
                self.next_block = cp.next_block;
            }
            Err(e) => ctx.trace("namenode.image_corrupt", || e.to_string()),
        }
        cp.image.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_calibration_matches_paper() {
        let s = FsScale::from_image_mb(1024);
        assert!(
            (6_500_000..8_000_000).contains(&s.nominal_files),
            "1 GB ↔ ~7M files, got {}",
            s.nominal_files
        );
        assert_eq!(FsScale { nominal_files: 10 }.image_bytes(), 1_500);
    }

    #[test]
    fn checkpoint_saves_v2_and_restores_identically() {
        let mut ns = NamespaceTree::new();
        ns.mkdir_p("/srv/data").unwrap();
        for i in 0..10 {
            ns.create(&format!("/srv/data/f{i}"), 3).unwrap();
            ns.add_block(&format!("/srv/data/f{i}"), 100 + i).unwrap();
        }
        let cp = SavedCheckpoint::save(&ns, 111, 42);
        assert_eq!(cp.image.version(), Some(mams_namespace::VERSION_V2));
        let (restored, sn) = cp.restore().unwrap();
        assert_eq!(sn, 42);
        assert_eq!(cp.next_block, 111);
        assert_eq!(restored.fingerprint(), ns.fingerprint());
    }

    #[test]
    fn exec_op_matches_tree_semantics() {
        let mut ns = NamespaceTree::new();
        let mut nb = 1u64;
        let (txn, _) = exec_op(&mut ns, &mut nb, &FsOp::Mkdir { path: "/a".into() }).unwrap();
        assert!(matches!(txn, Some(Txn::Mkdir { .. })));
        let (txn, out) =
            exec_op(&mut ns, &mut nb, &FsOp::Create { path: "/a/f".into(), replication: 2 })
                .unwrap();
        assert!(matches!(txn, Some(Txn::Create { .. })));
        assert!(matches!(out, OpOutput::Info(_)));
        let (txn, _) =
            exec_op(&mut ns, &mut nb, &FsOp::GetFileInfo { path: "/a/f".into() }).unwrap();
        assert!(txn.is_none(), "reads are not journaled");
        let err = exec_op(&mut ns, &mut nb, &FsOp::Mkdir { path: "/a".into() }).unwrap_err();
        assert!(err.contains("already exists"));
        // Block allocation advances the counter.
        exec_op(&mut ns, &mut nb, &FsOp::AddBlock { path: "/a/f".into(), len: 42 }).unwrap();
        assert_eq!(nb, 2);
    }
}
