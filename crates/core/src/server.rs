//! The replica-group member: state, dispatch, and shared machinery.
//!
//! Role-specific behaviour lives in sibling modules: `active` (client
//! operations, journal batching/sync and re-push, distributed
//! transactions, checkpoints), `failover` (detection, election, the
//! six-step switch, degradation), and `renewing` (junior recovery, and the
//! catch-up ladder the switch shares with it — the only reader of the
//! pool).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use mams_coord::{CoordClient, Incoming};
use mams_journal::{JournalBatch, JournalLog, ReplayCursor, SharedBatch, Sn, Txn, TxnId};
use mams_namespace::{
    replay_outcome, BlockMap, RetryEntry, RetryWindow, ShardedNamespace, ShardedReplaySession,
};
use mams_sim::{Ctx, Duration, Message, Node, NodeId, SimTime};
use mams_storage::pool::{ArtifactId, Epoch};
use mams_storage::proto::{PoolReq, PoolResp, ReqId};

use crate::commit::{FLUSH_IDLE, FLUSH_MAX};
use crate::config::{InitialRole, MdsConfig};
use crate::proto::{GroupMsg, MdsReq, OpOutput};
use crate::renewing::CATCHUP_WINDOW;

/// Timer tokens (coord heartbeat uses its own reserved token).
pub(crate) const T_FLUSH: u64 = 1;
pub(crate) const T_RENEW_SCAN: u64 = 2;
pub(crate) const T_ELECT: u64 = 3;
pub(crate) const T_REGISTER: u64 = 4;
pub(crate) const T_XG_RETRY: u64 = 5;
pub(crate) const T_POOL_RETRY: u64 = 6;
pub(crate) const T_VIEW_REFRESH: u64 = 7;
pub(crate) const T_UPGRADE_RETRY: u64 = 8;
pub(crate) const T_CHECKPOINT: u64 = 9;
pub(crate) const T_DELTA: u64 = 10;

/// Periods of the repeating timers above.
const RENEW_SCAN: Duration = Duration::from_secs(1);
const REGISTER_RETRY: Duration = Duration::from_millis(250);
const XG_RETRY: Duration = Duration::from_millis(500);
const POOL_RETRY: Duration = Duration::from_millis(100);

/// Extra per-mutation CPU for each hot standby the active synchronizes
/// (serialization + send per replica). This is what produces the paper's
/// few-percent throughput decline per added standby (Fig. 5).
const SYNC_CPU_PER_STANDBY: Duration = Duration::from_micros(5);

/// A member's role, as in Figure 3 of the paper, plus the two transitional
/// states the protocol moves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Active,
    Standby,
    Junior,
    /// Participating in an election round (bid posted).
    Electing,
    /// Holds the lock; executing the six-step switch.
    Upgrading,
}

impl Role {
    /// The single-letter view encoding used in the global view (and in the
    /// paper's Table II).
    pub fn letter(self) -> &'static str {
        match self {
            Role::Active => "A",
            Role::Standby => "S",
            Role::Junior => "J",
            Role::Electing => "S", // a bidding standby is still a standby
            Role::Upgrading => "S",
        }
    }
}

/// Why we are waiting on a pool response. An entry of `pool_pending` lives
/// no longer than what awaits it: an `AppendAck` goes with its `inflight`
/// batch, an artifact write with `artifact_in_flight`, and the rest — the
/// reads of a renewing junior or of the switch, each holding what it takes
/// to send the read again — with the catch-up session
/// (`MdsServer::set_catchup`).
#[derive(Debug)]
pub(crate) enum PoolCtx {
    /// Ack for the SSP append of batch `sn`.
    AppendAck { sn: Sn },
    /// Checkpoint write ack.
    CheckpointWrite,
    /// Incremental-checkpoint (delta image) write ack.
    DeltaWrite,
    /// The switch: fencing epoch advance ack.
    EpochAdvance,
    /// Catch-up: resolving the checkpoint manifest chain.
    Manifest,
    /// Catch-up: a chunk of a manifest artifact (base or delta).
    ArtifactChunk { artifact: ArtifactId, offset: u64 },
    /// Catch-up: the journal page after `after`.
    CatchupPage { after: Sn },
}

impl PoolCtx {
    /// Whether the request is one of the catch-up session's.
    pub(crate) fn of_session(&self) -> bool {
        !matches!(self, PoolCtx::AppendAck { .. } | PoolCtx::CheckpointWrite | PoolCtx::DeltaWrite)
    }
}

/// Client reply destination for a pending mutation.
#[derive(Debug, Clone)]
pub(crate) enum ReplyTo {
    Client {
        node: NodeId,
        seq: u64,
    },
    /// A distributed-transaction leg: ack the coordinating active.
    XGroup {
        coordinator: NodeId,
        xid: (u32, u64),
    },
}

/// A validated-and-not-yet-flushed mutation.
#[derive(Debug)]
pub(crate) struct PendingOp {
    pub txn: Txn,
    pub reply: ReplyTo,
    pub output: OpOutput,
    /// Distributed-transaction id when this op coordinates legs on other
    /// groups.
    pub xid: Option<(u32, u64)>,
}

/// A client reply held until its batch (and its shards' predecessors) are
/// durable. `shards` are the home shards the op touched: release preserves
/// per-shard FIFO order, while ops on disjoint shards (different parent
/// directories) release independently — the out-of-order ack path.
#[derive(Debug)]
pub(crate) struct ClientReply {
    pub reply: ReplyTo,
    pub result: Result<OpOutput, String>,
    pub shards: Vec<usize>,
}

/// A flushed batch awaiting durability votes.
///
/// Two release levels: **durability** (SSP + standby acks) frees the
/// distributed-transaction leg acks immediately — tying leg acks to full
/// completion would deadlock two groups coordinating at each other — while
/// **client replies** additionally wait for this batch's own outgoing legs
/// and are released in per-shard FIFO order (see `try_complete`).
#[derive(Debug, Default)]
pub(crate) struct Inflight {
    /// The SSP append this batch still waits on; `None` once acknowledged.
    /// A resend repeats the request under the same id, so whichever reply
    /// arrives first settles the batch and `pool_pending` holds one entry
    /// per unacknowledged batch however many resends a lossy link costs.
    pub pool_req: Option<ReqId>,
    pub waiting_members: BTreeSet<NodeId>,
    /// Outgoing distributed-transaction legs client replies wait on.
    pub waiting_xg: HashSet<(u32, u64)>,
    pub client_replies: Vec<ClientReply>,
    /// Leg acknowledgements owed to other groups' coordinators.
    pub xg_replies: Vec<(ReplyTo, Result<OpOutput, String>)>,
    pub xg_acked: bool,
    /// Seal time, for the adaptive controller's ack-latency signal.
    pub flushed_at: SimTime,
}

impl Inflight {
    /// Locally durable: in the SSP and on every current standby.
    pub fn durable(&self) -> bool {
        self.pool_req.is_none() && self.waiting_members.is_empty()
    }

    pub fn complete(&self) -> bool {
        self.durable() && self.waiting_xg.is_empty()
    }
}

/// Progress of a catch-up session — the one ladder (manifest → chain →
/// journal) by which a member pulls state from the pool; a renewing junior
/// that reaches the tail holds no session while it waits for the active's
/// final synchronization range. Only a
/// renewing junior and the elected member inside the switch run it, and
/// which of the two is running is `MdsServer::role`.
#[derive(Debug)]
pub(crate) enum CatchupStage {
    /// Asked the pool for the checkpoint manifest chain.
    Manifest,
    /// Streaming the manifest chain (base image, then deltas). `plan` is
    /// the artifacts this junior needs — the base only when its own state
    /// predates it, then every delta past its applied sn — `idx`/`offset`
    /// the resume checkpoint within it. A base streams through the push
    /// decoder (no whole-image buffer); a delta is churn-sized, so it is
    /// buffered whole in `buf` and applied in one step.
    Chain {
        plan: Vec<mams_storage::ManifestEntry>,
        idx: usize,
        offset: u64,
        decoder: Option<Box<mams_namespace::StreamingImageDecoder>>,
        buf: Vec<u8>,
    },
    /// Replaying journal pages from the pool, with up to `CATCHUP_WINDOW`
    /// page requests in flight so network RTT overlaps apply. `inflight`
    /// counts outstanding requests, `next_after` is the next speculative
    /// page boundary, and `tail_hint` bounds speculation (the last tail sn
    /// any pool response reported; 0 until the first response).
    Journal { inflight: usize, next_after: Sn, tail_hint: Sn },
}

/// Active-side renewing session (one junior at a time, per the paper).
#[derive(Debug)]
pub(crate) struct RenewDriver {
    pub junior: NodeId,
    pub last_progress_sn: Sn,
    /// Scan ticks with no progress; a stalled session (lost messages, dead
    /// junior) is abandoned and restarted.
    pub stale_scans: u32,
}

/// A coordinator-side distributed transaction with unacked legs.
#[derive(Debug)]
pub(crate) struct XgOutstanding {
    pub txn: Txn,
    /// Groups that have not acknowledged the leg yet. Ordered: the retry
    /// timer sends to them in iteration order, and one seed must give one
    /// run.
    pub groups: BTreeSet<u32>,
}

/// Election round stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElectStage {
    /// Bid posted; waiting for the bid window to close.
    Window,
    /// Bid listing requested / lock attempt possibly in flight; if nothing
    /// happens by the backoff deadline the round restarts.
    Backoff,
}

/// Election round state.
#[derive(Debug)]
pub(crate) struct ElectState {
    /// Our bid value (random for standbys, journal sn for juniors).
    pub bid: u64,
    pub stage: ElectStage,
}

/// One MAMS replica-group member.
pub struct MdsServer {
    pub(crate) cfg: MdsConfig,
    pub(crate) coord: CoordClient,
    pub(crate) role: Role,
    /// Fencing epoch from our lock grant (valid when Active/Upgrading).
    pub(crate) epoch: Epoch,
    /// Highest group epoch observed (stale-active hygiene).
    pub(crate) group_epoch: Epoch,
    pub(crate) active_hint: Option<NodeId>,

    pub(crate) ns: ShardedNamespace,
    pub(crate) blocks: BlockMap,
    pub(crate) log: JournalLog,
    pub(crate) cursor: ReplayCursor,
    /// Out-of-order sync buffer (drained contiguously into the cursor);
    /// holds shared handles, so stashing never copies records.
    pub(crate) stash: BTreeMap<Sn, SharedBatch>,
    pub(crate) next_txid: TxnId,
    /// Next block id to allocate (replay advances it past any seen id).
    pub(crate) next_block_id: u64,
    /// Journal replay fast path (validate-skip + cached parent handle).
    /// Reset whenever `ns` is replaced or mutated outside replay (image
    /// load, replica reset, a stint as active).
    pub(crate) replay: ShardedReplaySession,
    /// Replicated retry-outcome window: the `(client, seq) → outcome`
    /// bindings of every journaled batch this replica has applied (or
    /// adopted from an image/delta). A pure function of the journal prefix
    /// — standbys, catch-up juniors, and the active all agree byte-for-byte
    /// — so a freshly promoted active can seed its response cache from it
    /// and keep at-most-once across the switch.
    pub(crate) window: RetryWindow,

    /// View cache maintained from watch events.
    pub(crate) view: HashMap<String, String>,

    // ---- active-side state ----
    pub(crate) pending: Vec<PendingOp>,
    pub(crate) inflight: BTreeMap<Sn, Inflight>,
    pub(crate) standbys: BTreeSet<NodeId>,
    pub(crate) member_sns: HashMap<NodeId, Sn>,
    pub(crate) retry_cache: crate::retry::RetryCache,
    /// Read barrier: replies to reads that observed not-yet-durable
    /// mutations, keyed by the batch sn that must commit before release.
    /// Dropped on degradation — a dirty read must never be answered.
    pub(crate) deferred_reads: Vec<(Sn, NodeId, u64, std::sync::Arc<crate::proto::MdsResp>)>,
    /// Step-3 buffer: client requests received mid-upgrade.
    pub(crate) buffered: Vec<(NodeId, MdsReq)>,
    pub(crate) renew_driver: Option<RenewDriver>,
    /// As coordinator: xid → the batch sn whose replies wait on it.
    pub(crate) xg_to_sn: HashMap<(u32, u64), Sn>,
    /// As participant: every leg admitted to the ingress queue, by xid.
    /// `None` while the leg is in flight (queued, pending or awaiting
    /// durability) — a duplicate delivery is dropped, the leg's own ack
    /// covers it; `Some(ok)` once its `XGroupAck` went out — a duplicate
    /// means that ack was lost and is answered again with the same `ok`.
    pub(crate) xg_seen: HashMap<(u32, u64), Option<bool>>,
    /// As coordinator: legs still outstanding per xid (retried until every
    /// group acknowledges, so a mid-failover group cannot jam the
    /// in-order reply pipeline).
    pub(crate) xg_outstanding: BTreeMap<(u32, u64), XgOutstanding>,
    pub(crate) next_xid: u64,

    // ---- member-side state ----
    pub(crate) registered: bool,
    /// Whether the boot-time lock attempt (designated active) was made.
    pub(crate) boot_lock_tried: bool,
    pub(crate) catchup: Option<CatchupStage>,
    pub(crate) elect: Option<ElectState>,

    /// Admission queue (CPU capacity model).
    pub(crate) ingress: crate::ingress::Ingress,

    // ---- commit pipeline ----
    /// Flush-cadence controller (drives `T_FLUSH`).
    pub(crate) commit: crate::commit::GroupCommitPolicy,
    /// When the ingress queue was last drained; the next drain's budget is
    /// the elapsed wall time, so the CPU model's service rate is invariant
    /// under the tick cadence.
    pub(crate) last_drain_at: SimTime,
    /// `ingress.admitted()` at the previous tick (arrival-rate signal).
    pub(crate) last_admitted: u64,

    // ---- pool plumbing ----
    pub(crate) pool_pending: HashMap<ReqId, PoolCtx>,
    pub(crate) next_pool_req: ReqId,
    pub(crate) pool_rr: usize,

    /// Sn of the last checkpoint artifact (full image or delta) this active
    /// wrote to the pool: the anchor the next delta folds from. `None`
    /// until a base image lands (a delta must chain onto something) and
    /// cleared on every role change — a new active must re-establish the
    /// chain with a full image before producing deltas.
    pub(crate) delta_anchor: Option<Sn>,
    /// The one image or delta write whose reply is still awaited: no delta
    /// folds while it is set (one artifact at a time keeps the chain
    /// ordered). A reply clears it; a lost reply leaves it set only until
    /// the next full checkpoint supersedes the request.
    pub(crate) artifact_in_flight: Option<ReqId>,

    // ---- measurement hooks ----
    /// When we observed the previous active disappear (drives the Figure 7
    /// stage breakdown).
    pub(crate) failure_seen_at: Option<SimTime>,
    /// Replay-divergence counter; must stay 0 in a correct deployment.
    pub(crate) divergences: u64,
    /// One-shot guard for the `replica.diverged` trace event.
    pub(crate) diverged_traced: bool,

    /// When we last heard *anything* from the coordination service. An
    /// active whose last contact is older than `timing.coord_lease()` must
    /// assume its session expired and self-fence (see `check_coord_lease`).
    pub(crate) last_coord_contact: SimTime,

    /// Grant epoch of a lock release the coordinator has not yet confirmed.
    /// Re-sent every view-refresh tick: a lost release from a node whose
    /// session keeps heartbeating would otherwise hold the group lock (and
    /// block every election) forever.
    pub(crate) pending_lock_release: Option<u64>,
}

impl MdsServer {
    pub fn new(cfg: MdsConfig) -> Self {
        let coord = CoordClient::new(cfg.coord, cfg.timing.heartbeat);
        let role = match cfg.initial_role {
            InitialRole::Active => Role::Standby, // becomes Active via the lock
            InitialRole::Standby => Role::Standby,
            InitialRole::Junior => Role::Junior,
        };
        MdsServer {
            cfg,
            coord,
            role,
            epoch: 0,
            group_epoch: 0,
            active_hint: None,
            ns: ShardedNamespace::new(),
            blocks: BlockMap::new(),
            log: JournalLog::new(),
            cursor: ReplayCursor::new(),
            stash: BTreeMap::new(),
            next_txid: 1,
            next_block_id: 1,
            replay: ShardedReplaySession::new(),
            window: RetryWindow::new(),
            view: HashMap::new(),
            pending: Vec::new(),
            inflight: BTreeMap::new(),
            standbys: BTreeSet::new(),
            member_sns: HashMap::new(),
            retry_cache: crate::retry::RetryCache::new(),
            deferred_reads: Vec::new(),
            buffered: Vec::new(),
            renew_driver: None,
            xg_to_sn: HashMap::new(),
            xg_seen: HashMap::new(),
            xg_outstanding: BTreeMap::new(),
            next_xid: 1,
            registered: false,
            boot_lock_tried: false,
            catchup: None,
            elect: None,
            ingress: crate::ingress::Ingress::default(),
            commit: crate::commit::GroupCommitPolicy::new(),
            last_drain_at: SimTime::ZERO,
            last_admitted: 0,
            pool_pending: HashMap::new(),
            next_pool_req: 1,
            pool_rr: 0,
            delta_anchor: None,
            artifact_in_flight: None,
            failure_seen_at: None,
            divergences: 0,
            diverged_traced: false,
            last_coord_contact: SimTime::ZERO,
            pending_lock_release: None,
        }
    }

    /// Current role (test/harness hook).
    pub fn role(&self) -> Role {
        self.role
    }

    /// Applied journal position (test/harness hook).
    pub fn applied_sn(&self) -> Sn {
        self.cursor.max_sn()
    }

    /// Namespace fingerprint (test hook).
    pub fn fingerprint(&self) -> u64 {
        self.ns.fingerprint()
    }

    /// Pool requests whose replies are still awaited (test/harness hook).
    pub fn pool_requests_pending(&self) -> usize {
        self.pool_pending.len()
    }

    /// Replay divergences observed (test hook; must be 0).
    pub fn divergences(&self) -> u64 {
        self.divergences + self.ns.divergences()
    }

    /// Surface replica divergence on the trace (once per boot) so harnesses
    /// outside the boxed node — e.g. the chaos campaign's invariant sweep —
    /// can detect it by tag.
    pub(crate) fn note_divergence(&mut self, ctx: &mut Ctx<'_>) {
        if !self.diverged_traced && self.divergences() > 0 {
            self.diverged_traced = true;
            let n = self.divergences();
            ctx.trace("replica.diverged", || format!("count={n}"));
        }
    }

    // ---------------------------------------------------------------- pool

    /// Send a pool request (round-robin across pool nodes), remembering why.
    pub(crate) fn pool_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        build: impl FnOnce(ReqId) -> PoolReq,
        why: PoolCtx,
    ) -> ReqId {
        let req = self.await_pool_reply(why);
        self.pool_deliver(ctx, build(req));
        req
    }

    /// Name a request and remember why its reply is awaited. At most one
    /// entry per batch in flight, one artifact write, and the session's one
    /// fence, manifest or chunk read or its window of journal pages.
    pub(crate) fn await_pool_reply(&mut self, why: PoolCtx) -> ReqId {
        let req = self.next_pool_req;
        self.next_pool_req += 1;
        self.pool_pending.insert(req, why);
        debug_assert!(
            self.pool_pending.len() <= self.inflight.len() + 2 + CATCHUP_WINDOW,
            "{} pool replies awaited with {} batches in flight",
            self.pool_pending.len(),
            self.inflight.len()
        );
        req
    }

    /// Hand a pool request to the next pool node in the rotation.
    pub(crate) fn pool_deliver(&mut self, ctx: &mut Ctx<'_>, req: PoolReq) {
        let target = self.cfg.pool[self.pool_rr % self.cfg.pool.len()];
        self.pool_rr += 1;
        ctx.send(target, req);
    }

    // ------------------------------------------------------------- journal

    /// Apply a batch's records to the namespace + block map and advance the
    /// txid high-water mark. Caller is responsible for cursor bookkeeping.
    ///
    /// Ack records riding on the batch (wire v2) are folded into the
    /// replicated retry window *at each record's apply point*, so the
    /// reconstructed outcome (e.g. the `FileInfo` a `Create` answered) is
    /// exactly what the original active sent.
    fn apply_records(&mut self, batch: &JournalBatch) {
        let mut acks = batch.acks.iter().peekable();
        for (i, (txid, txn)) in batch.entries().enumerate() {
            if let Txn::AddBlock { block_id, len, .. } = txn {
                self.blocks.register(*block_id, *len);
                self.next_block_id = self.next_block_id.max(*block_id + 1);
            }
            // Replay fast path: journalled records were validated by the
            // active, so the session skips re-validation and reuses the
            // previous record's parent-directory resolution.
            if self.replay.apply(&self.ns, txn).is_err() {
                // Journaled transactions were validated before logging, so
                // failure to re-apply means replica divergence.
                self.divergences += 1;
            }
            self.next_txid = self.next_txid.max(txid + 1);
            // Acks are sorted by record index (the flush emits them in op
            // order), so a single forward scan pairs them up.
            while let Some(ack) = acks.next_if(|a| a.record as usize == i) {
                let outcome = replay_outcome(|p| self.ns.getfileinfo(p).ok(), txn);
                self.window.record(ack.client, ack.seq, RetryEntry { outcome, token: None });
            }
        }
    }

    /// Fan a drained admission window across the namespace's shard workers:
    /// ops are bucketed by the shard that owns their parent directory
    /// ([`ShardedNamespace::home_shard`]) and the buckets are served in
    /// shard-index order. Within a bucket the admission order is preserved,
    /// so ops against the same directory — and hence the per-shard journal
    /// order — serve exactly as admitted; ops against different shards were
    /// concurrent (clients are closed-loop, one op in flight each), so any
    /// interleaving is a legal linearization. The grouping is deterministic,
    /// keeping replica replay and the retry cache's in-order assumptions
    /// intact, and it batches each shard's lock traffic together — the
    /// single-process analogue of one worker thread per shard.
    pub(crate) fn fan_out_by_shard(
        &self,
        mut drained: Vec<crate::ingress::IngressItem>,
    ) -> Vec<crate::ingress::IngressItem> {
        // A stable sort is the bucket-per-shard pass in place.
        drained.sort_by_cached_key(|item| self.ns.home_shard(item.op().primary_path()));
        drained
    }

    /// Ingest a batch from any source (live sync, re-flush, renewing, pool
    /// catch-up): stash, then drain contiguously through the cursor.
    /// Returns the highest sn applied by this call, if any.
    ///
    /// A non-empty stash after draining means a batch went missing on the
    /// wire; the active's re-push (`retry_pool_appends`) fills the hole.
    pub(crate) fn ingest_batch(&mut self, batch: SharedBatch) -> Option<Sn> {
        if batch.sn <= self.cursor.max_sn() {
            return None; // duplicate: suppressed by sn comparison
        }
        self.stash.insert(batch.sn, batch);
        let mut last = None;
        while let Some(next) = self.stash.remove(&(self.cursor.max_sn() + 1)) {
            self.apply_records(&next);
            // Keep a local handle in the log (standbys serve renewing reads
            // and may become the active) — same allocation, no copy.
            let _ = self.log.append(next.share());
            self.cursor = ReplayCursor::at(next.sn);
            last = Some(next.sn);
        }
        last
    }

    /// Discard every bit of replicated state (a divergent member resetting
    /// to junior, per step 5 of the switch when sn values cannot match).
    pub(crate) fn reset_replica_state(&mut self) {
        self.ns = ShardedNamespace::new();
        self.replay.reset();
        self.log = JournalLog::new();
        self.cursor = ReplayCursor::new();
        self.stash.clear();
        self.next_txid = 1;
        self.next_block_id = 1;
        // Block locations are rebuilt by the periodic reports.
        self.blocks = BlockMap::new();
        // The window is a function of the journal prefix; no prefix, no
        // window. Rebuilt alongside the namespace during catch-up.
        self.window.clear();
    }

    // ---------------------------------------------------------------- view

    pub(crate) fn view_set(&mut self, key: String, value: Option<String>) {
        match value {
            Some(v) => {
                self.view.insert(key, v);
            }
            None => {
                self.view.remove(&key);
            }
        }
    }

    /// Node ids of members currently in state `letter` per our view cache.
    pub(crate) fn members_in_state(&self, letter: &str) -> Vec<NodeId> {
        let prefix = format!("g/{}/state/", self.cfg.group);
        let mut v: Vec<NodeId> = self
            .view
            .iter()
            .filter(|(k, val)| k.starts_with(&prefix) && val.as_str() == letter)
            .filter_map(|(k, _)| k[prefix.len()..].parse().ok())
            .collect();
        v.sort_unstable();
        v
    }

    /// The active for an arbitrary group, per our view cache (distributed
    /// transactions route through this).
    pub(crate) fn active_of_group(&self, group: u32) -> Option<NodeId> {
        self.view.get(&crate::view::keys::active(group)).and_then(|v| crate::view::decode_node(v))
    }
}

impl Node for MdsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Open the session; the state announcement and (for the designated
        // active) the boot lock attempt are sequenced behind the
        // `Registered` response because coordination messages may reorder.
        self.coord.start(ctx);
        self.coord.watch(ctx, crate::view::keys::all_groups());
        ctx.set_timer(FLUSH_IDLE, T_FLUSH);
        ctx.set_timer(RENEW_SCAN, T_RENEW_SCAN);
        ctx.set_timer(REGISTER_RETRY, T_REGISTER);
        ctx.set_timer(XG_RETRY, T_XG_RETRY);
        ctx.set_timer(POOL_RETRY, T_POOL_RETRY);
        ctx.set_timer(self.cfg.timing.view_refresh(), T_VIEW_REFRESH);
        if let Some(interval) = self.cfg.timing.checkpoint_interval {
            ctx.set_timer(interval, T_CHECKPOINT);
        }
        if let Some(interval) = self.cfg.timing.delta_interval {
            ctx.set_timer(interval, T_DELTA);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.coord.on_timer(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                let now = ctx.now();
                let elapsed = now.since(self.last_drain_at);
                self.last_drain_at = now;
                let admitted = self.ingress.admitted();
                let arrived = admitted - self.last_admitted;
                self.last_admitted = admitted;
                let next = if self.role == Role::Active {
                    self.commit.observe_tick(arrived, elapsed);
                    // The drain budget is the elapsed wall time — not the
                    // tick interval — so the CPU model's service rate is
                    // the same whether the controller ticks every 250µs or
                    // every 8ms. Bounded by `FLUSH_MAX` so a tick delayed
                    // past the cadence (promotion, timer skew) cannot
                    // burst beyond the modeled capacity.
                    let budget = elapsed.min(FLUSH_MAX);
                    let mut cpu = crate::ingress::CpuModel::default();
                    // Journal fan-out: every mutation is serialized and
                    // sent to each hot standby.
                    cpu.mutation += SYNC_CPU_PER_STANDBY.mul_f64(self.standbys.len() as f64);
                    let drained = self.ingress.drain(budget, cpu);
                    for item in self.fan_out_by_shard(drained) {
                        match item {
                            crate::ingress::IngressItem::Client { from, op, seq } => {
                                self.serve_op(ctx, from, op, seq)
                            }
                            crate::ingress::IngressItem::Leg { coordinator, xid, op } => {
                                self.serve_leg(ctx, coordinator, xid, op)
                            }
                        }
                    }
                    self.flush_batch(ctx);
                    self.commit.next_interval(self.ingress.len())
                } else {
                    FLUSH_IDLE
                };
                ctx.set_timer(next, T_FLUSH);
            }
            T_RENEW_SCAN => {
                if self.role == Role::Active {
                    self.renew_scan(ctx);
                }
                ctx.set_timer(RENEW_SCAN, T_RENEW_SCAN);
            }
            T_ELECT => self.election_window_closed(ctx),
            T_REGISTER => {
                self.maybe_register(ctx);
                ctx.set_timer(REGISTER_RETRY, T_REGISTER);
            }
            T_XG_RETRY => {
                if self.role == Role::Active {
                    self.retry_xg_legs(ctx);
                }
                ctx.set_timer(XG_RETRY, T_XG_RETRY);
            }
            T_POOL_RETRY => {
                if self.role == Role::Active {
                    self.retry_pool_appends(ctx);
                }
                ctx.set_timer(POOL_RETRY, T_POOL_RETRY);
            }
            T_VIEW_REFRESH => {
                // Watch events are fire-and-forget; a periodic listing heals
                // any lost ones (stale routing, missed failure detection,
                // lost view updates).
                self.check_coord_lease(ctx);
                if let Some(epoch) = self.pending_lock_release {
                    self.coord.release_lock(ctx, crate::view::keys::lock(self.cfg.group), epoch);
                }
                self.coord.list(ctx, crate::view::keys::all_groups());
                ctx.set_timer(self.cfg.timing.view_refresh(), T_VIEW_REFRESH);
            }
            T_CHECKPOINT => {
                if let Some(interval) = self.cfg.timing.checkpoint_interval {
                    if self.role == Role::Active {
                        self.start_checkpoint(ctx);
                    }
                    ctx.set_timer(interval, T_CHECKPOINT);
                }
            }
            T_DELTA => {
                if let Some(interval) = self.cfg.timing.delta_interval {
                    if self.role == Role::Active {
                        self.start_delta(ctx);
                    }
                    ctx.set_timer(interval, T_DELTA);
                }
            }
            T_UPGRADE_RETRY if self.role == Role::Upgrading => {
                // A pool reply of the switch is late or lost: ask again. A
                // switch that awaits nothing runs again from the fence.
                ctx.trace("failover.upgrade_retry", String::new);
                if self.resend_session_requests(ctx) {
                    ctx.set_timer(crate::failover::UPGRADE_RETRY, T_UPGRADE_RETRY);
                } else {
                    let epoch = self.epoch;
                    self.begin_upgrade(ctx, epoch);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        // Coordination traffic first.
        let msg = match CoordClient::classify(msg) {
            Ok(incoming) => {
                self.last_coord_contact = ctx.now();
                match incoming {
                    Incoming::Resp(resp) => self.on_coord_resp(ctx, resp),
                    Incoming::Event(ev) => self.on_coord_event(ctx, ev),
                }
                return;
            }
            Err(m) => m,
        };
        // Pool responses.
        let msg = match msg.downcast::<PoolResp>() {
            Ok(resp) => {
                self.on_pool_resp(ctx, resp);
                return;
            }
            Err(m) => m,
        };
        // Intra-group protocol.
        let msg = match msg.downcast::<GroupMsg>() {
            Ok(gm) => {
                self.on_group_msg(ctx, from, gm);
                return;
            }
            Err(m) => m,
        };
        // Client requests.
        if let Ok(req) = msg.downcast::<MdsReq>() {
            self.on_client_req(ctx, from, req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_journal::{decode_batch, AckRecord};
    use mams_namespace::{Partitioner, RetryOutcome};

    /// A standby's state after ingesting one batch whose only ack record
    /// carries `spec`, decoded from the wire as a standby receives it.
    fn standby_after(spec: bool) -> (u64, RetryWindow) {
        let mut s = MdsServer::new(MdsConfig {
            group: 0,
            members: vec![1, 2],
            coord: 0,
            pool: vec![3],
            partitioner: Partitioner::new(1),
            initial_role: InitialRole::Standby,
            timing: Default::default(),
        });
        let records = vec![
            Txn::Mkdir { path: "/d".into() },
            Txn::Create { path: "/d/f".into(), replication: 3 },
        ];
        let acks = vec![AckRecord { record: 1, client: 7, seq: 3, spec }];
        let sealed = SharedBatch::sealed(JournalBatch::with_acks(1, 1, records, acks));
        let decoded = decode_batch(sealed.wire().clone()).expect("own encoding decodes");
        assert_eq!(decoded.acks[0].spec, spec, "the byte survives the wire");
        assert_eq!(s.ingest_batch(SharedBatch::new(decoded)), Some(1));
        (s.fingerprint(), s.window)
    }

    /// `AckRecord::spec` is a reserved byte: whatever it holds, a replica
    /// replays the batch to the same namespace and the same retry window.
    #[test]
    fn the_reserved_ack_byte_changes_nothing_a_standby_derives() {
        let (fp, window) = standby_after(false);
        assert_eq!(standby_after(true), (fp, window.clone()));
        let entry = window.get(7, 3).expect("the ack settled (7, 3)");
        assert!(matches!(&entry.outcome, RetryOutcome::Info(i) if i.path == "/d/f"));
        assert_eq!(entry.token, None);
    }
}
