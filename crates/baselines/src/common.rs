//! The namenode front-end every comparator shares — admission, the flush
//! tick, duplicate suppression, sealing and release, journal replay, the
//! checkpoint restart — and the scale model.

use std::sync::Arc;

use mams_coord::{CoordClient, CoordEvent, CoordResp, Incoming, KeyOp};
use mams_core::retry::RetryCache;
use mams_core::{CpuModel, FsOp, Ingress, IngressItem, MdsReq, MdsResp, OpOutput, Prefix, ViewKey};
use mams_journal::{SharedBatch, Sn, Txn};
use mams_namespace::ImageError;
use mams_sim::{Ctx, Duration, Event, Message, NodeId};

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

/// What a comparator records: the milestones of its takeover. Which
/// baseline recorded one is which deployment the trace is of. Avatar and
/// Hadoop HA detect (`FailoverDetected`) through the coordinator; Hadoop HA
/// then advances the journal nodes to `Fencing::epoch` and replays the
/// shared log (`Drained`); BackupNode recollects the block locations of
/// `files` files; `TakeoverDone` is the new active serving.
/// `restart_from_checkpoint` reloads the namespace from a fresh image.
#[derive(Debug)]
pub enum BaselineTrace {
    FailoverDetected,
    Fencing { epoch: u64 },
    Drained { sn: Sn },
    Recollecting { files: u64, takes: Duration },
    TakeoverDone,
    ImageRestart { version: Option<u16>, bytes: u64 },
    ImageCorrupt(ImageError),
}

impl Event for BaselineTrace {}

/// A client reply waiting on durability: `(client, seq, result)`.
pub type PendingReply = (NodeId, u64, Result<OpOutput, String>);

/// What every comparator has in common with every other: a session with
/// the coordination service and the `g/0/active` pointer clients route by,
/// the journal prefix a MAMS member holds (one executor, one replay), the
/// bounded admission queue under the shared CPU model, the
/// duplicate-suppression cache MAMS uses, and the window of mutations
/// executed but not yet sealed. A comparator adds only what makes it that
/// system: where a sealed batch must be durable before its replies go, how
/// failure is detected, what takeover costs.
pub struct NameNode {
    coord: CoordClient,
    /// What the active executes against and seals onto, and the standby
    /// replays onto. No comparator journals acks, so its retry window stays
    /// empty.
    prefix: Prefix,
    retry: RetryCache,
    ingress: Ingress,
    /// The namenode's base cost per op plus this system's journaling CPU
    /// per mutation.
    cpu: CpuModel,
    /// Mutation replies waiting for the next [`seal`](Self::seal), and the
    /// records those mutations produced.
    pending: Vec<PendingReply>,
    records: Vec<Txn>,
}

impl NameNode {
    pub fn new(coord: NodeId, journal_cpu: Duration) -> Self {
        let mut cpu = CpuModel::default();
        cpu.mutation += journal_cpu;
        NameNode {
            coord: CoordClient::new(coord, Duration::from_secs(2)),
            prefix: Prefix::new(),
            retry: RetryCache::new(),
            ingress: Ingress::default(),
            cpu,
            pending: Vec::new(),
            records: Vec::new(),
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
        match self.prefix.exec(op) {
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
        let batch = self.prefix.seal(std::mem::take(&mut self.records), Vec::new());
        Some((batch, std::mem::take(&mut self.pending)))
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

    /// Standby side: replay batches onto the prefix, and seal from there on
    /// if promoted. A baseline's replay CPU is modelled, so the apply loop's
    /// own speed is not part of any comparison.
    pub fn replay(&mut self, batches: impl IntoIterator<Item = SharedBatch>) {
        for batch in batches {
            self.prefix.ingest(batch);
        }
    }

    /// Highest serial number applied: replayed as a standby, sealed as the
    /// active.
    pub fn replayed_sn(&self) -> Sn {
        self.prefix.tail_sn()
    }

    pub fn num_files(&self) -> u64 {
        self.prefix.ns().num_files()
    }

    /// HDFS `-importCheckpoint`: save the namespace as a fresh fsimage and
    /// restart from the reload, so a promoted node serves exactly the state
    /// a cold image load yields. Returns the image's size in bytes, for
    /// the caller's disk-time model.
    pub fn restart_from_checkpoint(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let image = self.prefix.encode_image();
        match mams_namespace::decode_image_with_window(image.data.clone()) {
            Ok((tree, sn, window)) => {
                ctx.trace(|| BaselineTrace::ImageRestart {
                    version: image.version(),
                    bytes: image.size_bytes(),
                });
                self.prefix = Prefix::from_image(tree, sn, window);
            }
            Err(e) => ctx.trace(|| BaselineTrace::ImageCorrupt(e)),
        }
        image.size_bytes()
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
}
