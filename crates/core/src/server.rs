//! The replica-group member: one replica, one role value, and dispatch.
//!
//! [`Replica`] is what a member is whatever it does: the process, and the
//! one [`Prefix`] it has derived from the journal. Beside it sits one
//! [`RoleState`] —
//! [`Member`] (standby, junior, electing), [`Upgrading`] (the switch) or
//! [`Tenure`] (active) — that `begin_upgrade` and `finish_upgrade` construct
//! and `degrade_to_junior` drops: nothing of a role is reset field by field,
//! and a handler only an active runs takes the tenure (DESIGN §16).
//!
//! Role-specific behaviour lives in sibling modules: `active` (the tenure:
//! client operations, journal batching/sync and re-push, distributed
//! transactions, checkpoints), `failover` (detection, election, the
//! six-step switch, degradation), and `renewing` (junior recovery, and the
//! catch-up ladder the switch shares with it — the only reader of the
//! pool).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mams_coord::{CoordClient, Incoming};
use mams_journal::{SharedBatch, Sn, Txn};
use mams_namespace::RetryWindow;
use mams_sim::{Ctx, Duration, Message, Node, NodeId, SimTime};
use mams_storage::pool::{ArtifactId, Epoch};
use mams_storage::proto::{PoolReq, PoolResp, ReqId};

use crate::commit::FLUSH_IDLE;
use crate::config::{InitialRole, MdsConfig};
use crate::prefix::Prefix;
use crate::proto::{GroupMsg, MdsReq, MdsResp, OpOutput, Xid};
use crate::trace::MdsTrace;
use crate::view::ViewKey;

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
            Role::Junior => "J",
            // A bidding standby, or one inside the switch, is still a standby.
            Role::Standby | Role::Electing | Role::Upgrading => "S",
        }
    }
}

/// What a catch-up session awaits of the pool: the reads of a renewing
/// junior or of the switch, each holding what it takes to send the read
/// again.
#[derive(Debug)]
pub(crate) enum SessionReq {
    /// The switch: fencing epoch advance (to the grant's epoch) ack.
    EpochAdvance { to: Epoch },
    /// Resolving the checkpoint manifest chain.
    Manifest,
    /// A chunk of a manifest artifact (base or delta).
    ArtifactChunk { artifact: ArtifactId, offset: u64 },
    /// The journal page after `after`.
    CatchupPage { after: Sn },
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
        xid: Xid,
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
    pub xid: Option<Xid>,
}

/// A client reply held until its batch (and its buckets' predecessors) are
/// durable. `buckets` are the release buckets of the op's parent
/// directories, a bit each — a rename's two parents, any other op's one:
/// release preserves per-bucket FIFO order, while ops in disjoint buckets
/// (different parent directories) release independently — the
/// out-of-order ack path.
#[derive(Debug)]
pub(crate) struct ClientReply {
    pub reply: ReplyTo,
    pub output: OpOutput,
    pub buckets: u16,
}

/// A sealed batch: the replies it owes, and nothing else. What it waits
/// for is recorded once, where the waited-for thing lives (DESIGN §10): its
/// pool append in `pool_req`, the standbys' votes in [`Tenure::members`],
/// its own outgoing legs in [`XgOutstanding::sn`].
///
/// Two release levels: **durability** (append + votes) frees the
/// distributed-transaction leg acks immediately — tying leg acks to full
/// completion would deadlock two groups coordinating at each other — while
/// **client replies** additionally wait for this batch's own outgoing legs
/// and are released in per-bucket FIFO order (see `try_complete`).
#[derive(Debug, Default)]
pub(crate) struct Inflight {
    /// The SSP append this batch still waits on; `None` once acknowledged.
    /// A resend repeats the request under the same id, so whichever reply
    /// arrives first settles the batch and the tenure awaits one reply per
    /// unacknowledged batch however many resends a lossy link costs. A
    /// later batch's ack says nothing of this one: `AppendOk` is sent when
    /// the modelled disk write ends, not in sn order.
    pub pool_req: Option<ReqId>,
    pub client_replies: Vec<ClientReply>,
    /// Applied legs' acks owed to other groups' coordinators (`ack_leg`).
    pub xg_replies: Vec<(NodeId, Xid)>,
    /// Seal time, for the adaptive controller's ack-latency signal.
    pub flushed_at: SimTime,
}

/// What a tenure knows of a group member: what it holds, and which batches
/// wait for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemberPos {
    /// The highest sn it acknowledged (acks are cumulative), or where it
    /// last said it was (`Register`, `RenewProgress`).
    pub acked: Sn,
    /// The first batch it votes on: `tail + 1` when it joined the sync set,
    /// so it holds no batch sealed before. `None`: a junior — sent no
    /// batch, waited for by none.
    pub votes_from: Option<Sn>,
}

/// Progress of a catch-up session — the one ladder (manifest → chain →
/// journal) by which a member pulls state from the pool; a renewing junior
/// that reaches the tail holds no stage while it waits for the active's
/// final synchronization range. Only a renewing junior and the elected
/// member inside the switch run it, and which of the two is running is
/// which role value holds the [`Session`].
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

/// A catch-up session: where it stands and the pool replies it awaits.
/// Starting, moving or ending one is assigning a new value, so any request
/// of the session before is forgotten with it: its reply, should it still
/// come, finds no entry and is ignored.
#[derive(Debug, Default)]
pub(crate) struct Session {
    pub stage: Option<CatchupStage>,
    /// Ordered: the switch's retry timer resends in iteration order, and
    /// one seed must give one run.
    pub awaited: BTreeMap<ReqId, SessionReq>,
}

impl Session {
    pub fn at(stage: Option<CatchupStage>) -> Self {
        Session { stage, awaited: BTreeMap::new() }
    }
}

/// Active-side renewing session (one junior at a time, per the paper).
#[derive(Debug)]
pub(crate) struct RenewDriver {
    pub junior: NodeId,
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
    /// The batch the coordinating op was sealed in, once it is: the one
    /// whose client replies wait for these legs.
    pub sn: Option<Sn>,
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

/// What a member holds while it neither has nor is taking the lock:
/// standby, junior, or either with a bid posted. Made at boot and by
/// `degrade_to_junior`; `begin_upgrade` drops it.
#[derive(Debug, Default)]
pub(crate) struct Member {
    /// Junior (out of sync) rather than standby.
    pub junior: bool,
    /// Whether the current active has qualified us (step 5).
    pub registered: bool,
    /// The election round we have a bid in.
    pub elect: Option<ElectState>,
    /// When we observed the previous active disappear (one
    /// `failover.detected` per outage: Figure 7's clock starts there).
    pub failure_seen_at: Option<SimTime>,
    /// A renewing junior's catch-up.
    pub session: Session,
    /// Fencing epoch of the grant we last held (0: none yet) — what a
    /// release names when the view still shows a pointer to us.
    pub last_grant: Epoch,
}

/// The elected member inside the six-step switch. Made by `begin_upgrade`
/// from a lock grant; `finish_upgrade` turns it into a [`Tenure`].
#[derive(Debug)]
pub(crate) struct Upgrading {
    /// Fencing epoch of the grant.
    pub epoch: Epoch,
    /// Step-3 buffer: client requests received mid-upgrade.
    pub buffered: Vec<(NodeId, MdsReq)>,
    /// The fence, then the catch-up to the pool's tail.
    pub session: Session,
}

/// Everything only an active holds, for as long as it is the active.
/// `finish_upgrade` constructs it and `degrade_to_junior` drops it; between
/// the two no other role can reach it, and after them nothing of it is left
/// — no reply it awaited, no marker of an operation it never answered.
#[derive(Debug, Default)]
pub(crate) struct Tenure {
    /// Fencing epoch of the grant: on every pool write and every sync.
    pub epoch: Epoch,
    pub pending: Vec<PendingOp>,
    pub inflight: BTreeMap<Sn, Inflight>,
    /// Every registered member not gone since; those with `votes_from` set
    /// are the sync set. Ordered: syncs go out in iteration order.
    pub members: BTreeMap<NodeId, MemberPos>,
    pub retry_cache: crate::retry::RetryCache,
    /// Read barrier: replies to reads (and rejected mutations) that observed
    /// not-yet-durable mutations, keyed by the batch sn that must commit
    /// before release. A dirty read must never be answered, so they go with
    /// the tenure.
    pub deferred_reads: Vec<(Sn, NodeId, u64, Observation)>,
    pub renew_driver: Option<RenewDriver>,
    /// As coordinator: legs still outstanding per xid (retried until every
    /// group acknowledges, so a mid-failover group cannot jam the
    /// in-order reply pipeline).
    pub xg_outstanding: BTreeMap<Xid, XgOutstanding>,
    /// Transactions minted so far: an xid is `(group, epoch, n)`, so no
    /// successor, zombie or later tenure of this member can mint it again.
    pub xids: u64,
    /// The checkpoint chain this tenure wrote to the pool. `None` until a
    /// base image lands — the predecessor's manifest chain is not ours to
    /// extend, so the first delta tick writes a full image.
    pub chain: Option<Chain>,
    /// The one image or delta write whose reply is still awaited, with the
    /// chain as it stands once the write lands: no delta folds while it is
    /// set (one artifact at a time keeps the chain ordered). Its reply
    /// clears it; a lost reply leaves it set only until the next full
    /// checkpoint supersedes the request.
    pub artifact: Option<(ReqId, Chain)>,
}

/// A reply that observed the namespace without journaling anything.
#[derive(Debug)]
pub(crate) enum Observation {
    /// A read's: sent owned, never cached — a resend executes again.
    Read(MdsResp),
    /// A rejected mutation's: cached when sent, so that its resend is
    /// answered alike rather than run against a namespace that moved on.
    Rejected(std::sync::Arc<MdsResp>),
}

/// A tenure's checkpoint chain in the pool: a base image and the deltas
/// folded onto it since. The active wrote every artifact of it, so it knows
/// what the chain weighs without asking the pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    /// Sn of the last artifact: the anchor the next delta folds from.
    pub end_sn: Sn,
    pub deltas: usize,
    pub delta_bytes: u64,
    pub base_bytes: u64,
}

impl Tenure {
    /// A tenure under the grant `epoch`. Its response cache starts as the
    /// replicated retry window folded from the journal: a retry of an op
    /// the dead active committed but never answered is served from cache,
    /// not re-executed — at-most-once holds *across* the switch. The window
    /// derives only from the durable journal, so an op whose batch died
    /// with the predecessor is absent and its retry executes fresh.
    pub fn new(epoch: Epoch, window: &RetryWindow) -> Self {
        let mut retry_cache = crate::retry::RetryCache::new();
        retry_cache.seed_from_window(window);
        Tenure { epoch, retry_cache, ..Tenure::default() }
    }
}

/// The one role value beside the replica.
#[derive(Debug)]
pub(crate) enum RoleState {
    Member(Member),
    Upgrading(Upgrading),
    Active(Box<Tenure>),
}

impl RoleState {
    /// The grant we hold, while we hold one.
    pub fn grant(&self) -> Option<Epoch> {
        match self {
            RoleState::Member(_) => None,
            RoleState::Upgrading(up) => Some(up.epoch),
            RoleState::Active(t) => Some(t.epoch),
        }
    }

    pub fn member(&mut self) -> Option<&mut Member> {
        match self {
            RoleState::Member(m) => Some(m),
            _ => None,
        }
    }

    /// The catch-up session, in the two roles that run one.
    pub fn session(&mut self) -> Option<&mut Session> {
        match self {
            RoleState::Member(m) => Some(&mut m.session),
            RoleState::Upgrading(up) => Some(&mut up.session),
            RoleState::Active(_) => None,
        }
    }

    pub fn stage(&mut self) -> Option<&mut CatchupStage> {
        self.session()?.stage.as_mut()
    }
}

/// What a member is in every role: the journal prefix it has applied, one
/// value that `reset` and an adopted image replace whole, and the process
/// (configuration, the coordination session, clocks, counters), which no
/// role change resets.
pub(crate) struct Replica {
    pub cfg: MdsConfig,
    pub coord: CoordClient,
    /// Highest group epoch observed (stale-active hygiene).
    pub group_epoch: Epoch,
    pub active_hint: Option<NodeId>,

    pub prefix: Prefix,
    /// View cache maintained from watch events; what does not parse as a
    /// key is not kept. Ordered, so a group's state keys are a range.
    pub view: BTreeMap<ViewKey, String>,
    /// As participant: every leg admitted to the ingress queue, by xid.
    /// `None` while the leg is in flight (queued, pending or awaiting
    /// durability) — a duplicate delivery is dropped, the leg's own ack
    /// covers it; `Some(ok)` once its `XGroupAck` went out — a duplicate
    /// means that ack was lost and is answered again with the same `ok`.
    pub xg_seen: HashMap<Xid, Option<bool>>,
    /// Whether the boot-time lock attempt (designated active) was made.
    pub boot_lock_tried: bool,

    /// Admission queue (CPU capacity model). Its admission count and credit
    /// are the process's, not a tenure's.
    pub ingress: crate::ingress::Ingress,
    /// Flush-cadence controller (drives `T_FLUSH`).
    pub commit: crate::commit::GroupCommitPolicy,
    /// When the ingress queue was last drained; the next drain's budget is
    /// the elapsed wall time, so the CPU model's service rate is invariant
    /// under the tick cadence.
    pub last_drain_at: SimTime,
    /// `ingress.admitted()` at the previous tick (arrival-rate signal).
    pub last_admitted: u64,

    pub next_pool_req: ReqId,
    pub pool_rr: usize,

    /// Records that failed to re-apply, over every prefix this process
    /// held; must stay 0 in a correct deployment.
    pub divergences: u64,
    /// One-shot guard for the `replica.diverged` trace event.
    pub diverged_traced: bool,
    /// When we last heard *anything* from the coordination service. An
    /// active whose last contact is older than `timing.coord_lease()` must
    /// assume its session expired and self-fence (see `check_coord_lease`).
    pub last_coord_contact: SimTime,
    /// Grant epoch of a lock release the coordinator has not yet confirmed.
    /// Re-sent every view-refresh tick: a lost release from a node whose
    /// session keeps heartbeating would otherwise hold the group lock (and
    /// block every election) forever.
    pub pending_lock_release: Option<u64>,
}

/// One MAMS replica-group member: the replica, and the one value of the
/// role it is in (`role`). What only a role uses is built when the role is
/// entered and dropped when it is left (DESIGN §16).
pub struct MdsServer {
    pub(crate) r: Replica,
    pub(crate) role: RoleState,
}

impl MdsServer {
    pub fn new(cfg: MdsConfig) -> Self {
        let coord = CoordClient::new(cfg.coord, cfg.timing.heartbeat);
        // A designated active boots as a standby and becomes Active via the
        // lock.
        let junior = cfg.initial_role == InitialRole::Junior;
        let r = Replica {
            cfg,
            coord,
            group_epoch: 0,
            active_hint: None,
            prefix: Prefix::new(),
            view: BTreeMap::new(),
            xg_seen: HashMap::new(),
            boot_lock_tried: false,
            ingress: crate::ingress::Ingress::default(),
            commit: crate::commit::GroupCommitPolicy::new(),
            last_drain_at: SimTime::ZERO,
            last_admitted: 0,
            next_pool_req: 1,
            pool_rr: 0,
            divergences: 0,
            diverged_traced: false,
            last_coord_contact: SimTime::ZERO,
            pending_lock_release: None,
        };
        MdsServer { r, role: RoleState::Member(Member { junior, ..Member::default() }) }
    }

    /// Current role (test/harness hook).
    pub fn role(&self) -> Role {
        match &self.role {
            RoleState::Active(_) => Role::Active,
            RoleState::Upgrading(_) => Role::Upgrading,
            RoleState::Member(m) if m.junior => Role::Junior,
            RoleState::Member(m) if m.elect.is_some() => Role::Electing,
            RoleState::Member(_) => Role::Standby,
        }
    }

    /// Applied journal position (test/harness hook).
    pub fn applied_sn(&self) -> Sn {
        self.r.prefix.tail_sn()
    }

    /// Namespace fingerprint (test hook).
    pub fn fingerprint(&self) -> u64 {
        self.r.prefix.ns.fingerprint()
    }

    /// Fingerprint of the directory skeleton alone — what every replica
    /// group of a deployment agrees on at quiescence (test hook).
    pub fn skeleton_fingerprint(&self) -> u64 {
        self.r.prefix.ns.skeleton_fingerprint()
    }

    /// Pool requests whose replies are still awaited (test/harness hook).
    pub fn pool_requests_pending(&self) -> usize {
        match &self.role {
            RoleState::Member(m) => m.session.awaited.len(),
            RoleState::Upgrading(up) => up.session.awaited.len(),
            RoleState::Active(t) => t
                .inflight
                .values()
                .filter_map(|i| i.pool_req)
                .chain(t.artifact.map(|a| a.0))
                .count(),
        }
    }

    /// Replay divergences observed (test hook; must be 0).
    pub fn divergences(&self) -> u64 {
        self.r.divergences
    }

    /// The tenure and the replica it runs on, while we are the active.
    pub(crate) fn active(&mut self) -> Option<(&mut Tenure, &mut Replica)> {
        match &mut self.role {
            RoleState::Active(t) => Some((t, &mut self.r)),
            _ => None,
        }
    }

    // ------------------------------------------------------------ dispatch

    pub(crate) fn on_client_req(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: MdsReq) {
        // No block location is kept: a report is dropped on arrival, in
        // every role, so none is buffered across a switch either.
        if let MdsReq::BlockReport { .. } = req {
            return;
        }
        // Lazy lease enforcement: a just-thawed zombie can receive queued
        // client requests before its first timer tick — it must notice its
        // lapsed session *now*, not a second from now.
        self.check_coord_lease(ctx);
        match &mut self.role {
            RoleState::Active(t) => match req {
                MdsReq::Checkpoint => t.start_checkpoint(&mut self.r, ctx),
                MdsReq::Op { op, seq, acked } => {
                    // The piggybacked receipt watermark retires exactly the
                    // responses this client can never retry.
                    t.retry_cache.note_acked(from, acked);
                    // Admission control: the op executes at the next drain,
                    // modeling server CPU capacity.
                    self.r.ingress.push(from, op, seq, None);
                }
                MdsReq::BlockReport { .. } => unreachable!("handled above"),
            },
            // Step 3 of the switch: accept and buffer, commit later.
            RoleState::Upgrading(up) => up.buffered.push((from, req)),
            RoleState::Member(_) => {
                if let MdsReq::Op { seq, .. } = req {
                    ctx.send(from, MdsResp::NotActive { seq });
                }
            }
        }
    }

    /// Intra-group traffic. What is addressed to the active — acks,
    /// registrations, progress reports, other groups' legs and their acks —
    /// finds a tenure or is dropped, and its sender retries.
    pub(crate) fn on_group_msg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, gm: GroupMsg) {
        match (gm, self.active()) {
            (GroupMsg::SyncJournal { epoch, batch }, _) => {
                self.on_sync_journal(ctx, from, epoch, [batch])
            }
            (GroupMsg::RenewJournal { epoch, batches }, _) => {
                self.on_sync_journal(ctx, from, epoch, batches)
            }
            (GroupMsg::RegisterAck { as_standby, epoch, tail_sn }, _) => {
                self.on_register_ack(ctx, from, as_standby, epoch, tail_sn)
            }
            (GroupMsg::RenewStart { tip_sn }, _) => self.on_renew_start(ctx, from, tip_sn),
            (_, None) => {}
            (GroupMsg::SyncAck { sn }, Some((t, r))) => t.on_sync_ack(r, ctx, from, sn),
            (GroupMsg::Register { sn }, Some((t, r))) => t.on_register(r, ctx, from, sn),
            (GroupMsg::RenewProgress { sn }, Some((t, r))) => t.on_renew_progress(r, ctx, from, sn),
            (GroupMsg::XGroupApply { xid, txn }, Some((_, r))) => r.admit_leg(ctx, from, xid, txn),
            (GroupMsg::XGroupAck { xid, group, ok }, Some((t, r))) => {
                t.on_xgroup_ack(r, ctx, xid, group, ok)
            }
        }
    }

    /// Member side of journal synchronization, live (`SyncJournal`) or the
    /// final range of a renewing (`RenewJournal`). "The standby only
    /// receives and responds for journals which come from the active
    /// server" — and only at the current epoch, so a deposed active's
    /// flushes are inert.
    fn on_sync_journal(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        epoch: Epoch,
        batches: impl IntoIterator<Item = SharedBatch>,
    ) {
        if epoch < self.r.group_epoch {
            return; // obsolete data from a deposed active (see Fig. 4a)
        }
        self.r.group_epoch = epoch;
        if self.role.grant().is_some() {
            // We hold (or are taking) the lock; a sync from elsewhere at an
            // equal-or-higher epoch would mean we lost it — failover.rs
            // handles that through the view. Ignore here.
            return;
        }
        self.r.active_hint = Some(from);
        self.r.ingest(ctx, batches);
        // Cumulative: a hole (a batch lost on the wire) shows as an ack
        // below what the active sent, and its re-push fills it — a standby
        // never reads the pool.
        ctx.send(from, GroupMsg::SyncAck { sn: self.r.prefix.tail_sn() });
    }

    /// One tick of a configured checkpoint cadence: an active starts the
    /// artifact, every role re-arms the timer.
    fn artifact_tick(
        &mut self,
        ctx: &mut Ctx<'_>,
        every: Option<Duration>,
        token: u64,
        start: fn(&mut Tenure, &mut Replica, &mut Ctx<'_>),
    ) {
        let Some(every) = every else { return };
        if let Some((t, r)) = self.active() {
            start(t, r, ctx);
        }
        ctx.set_timer(every, token);
    }

    /// A pool reply belongs to whoever awaits it: the tenure, or the
    /// catch-up session of the role we are in. One that nobody awaits (any
    /// more) is ignored — a late `Fenced` cannot depose us a second time.
    pub(crate) fn on_pool_resp(&mut self, ctx: &mut Ctx<'_>, resp: PoolResp) {
        let req = resp.req_id();
        if let Some((t, r)) = self.active() {
            if t.on_pool_reply(r, ctx, resp) {
                self.degrade_to_junior(ctx, "fenced by pool");
            }
            return;
        }
        match self.role.session().and_then(|s| s.awaited.remove(&req)) {
            None => {}
            Some(SessionReq::EpochAdvance { .. }) => self.on_epoch_advanced(ctx),
            Some(SessionReq::Manifest) => self.on_manifest(ctx, resp),
            Some(SessionReq::ArtifactChunk { .. }) => self.on_artifact_chunk(ctx, resp),
            Some(SessionReq::CatchupPage { .. }) => self.on_catchup_page(ctx, resp),
        }
    }
}

impl Replica {
    /// Replay batches from any source onto the prefix (see
    /// [`Prefix::ingest`]). A record that fails to re-apply is surfaced on
    /// the trace (once per boot) so harnesses outside the boxed node — e.g.
    /// the chaos campaign's invariant sweep — can detect it by tag.
    pub(crate) fn ingest(
        &mut self,
        ctx: &mut Ctx<'_>,
        batches: impl IntoIterator<Item = SharedBatch>,
    ) {
        for batch in batches {
            self.divergences += self.prefix.ingest(batch);
        }
        if !self.diverged_traced && self.divergences > 0 {
            self.diverged_traced = true;
            let n = self.divergences;
            ctx.trace(|| MdsTrace::Diverged { count: n });
        }
    }

    // ---------------------------------------------------------------- pool

    /// Name a pool request; whoever awaits its reply remembers why.
    pub(crate) fn next_req(&mut self) -> ReqId {
        self.next_pool_req += 1;
        self.next_pool_req - 1
    }

    /// Hand a pool request to the next pool node in the rotation.
    pub(crate) fn pool_deliver(&mut self, ctx: &mut Ctx<'_>, req: PoolReq) {
        let target = self.cfg.pool[self.pool_rr % self.cfg.pool.len()];
        self.pool_rr += 1;
        ctx.send(target, req);
    }

    // ---------------------------------------------------------------- view

    /// Node ids of our group's members in state `letter` per the view
    /// cache, ascending.
    pub(crate) fn members_in_state<'a>(
        &'a self,
        letter: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let group = self.cfg.group;
        let states = ViewKey::State(group, NodeId::MIN)..=ViewKey::State(group, NodeId::MAX);
        self.view.range(states).filter_map(move |(key, value)| match key {
            ViewKey::State(_, node) if value == letter => Some(*node),
            _ => None,
        })
    }

    /// The active for an arbitrary group, per our view cache (distributed
    /// transactions route through this).
    pub(crate) fn active_of_group(&self, group: u32) -> Option<NodeId> {
        self.view.get(&ViewKey::Active(group)).and_then(|v| v.parse().ok())
    }
}

impl Node for MdsServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Open the session; the state announcement and (for the designated
        // active) the boot lock attempt are sequenced behind the
        // `Registered` response because coordination messages may reorder.
        self.r.coord.start(ctx);
        self.r.coord.watch(ctx, ViewKey::all_groups());
        ctx.set_timer(FLUSH_IDLE, T_FLUSH);
        ctx.set_timer(RENEW_SCAN, T_RENEW_SCAN);
        ctx.set_timer(REGISTER_RETRY, T_REGISTER);
        ctx.set_timer(XG_RETRY, T_XG_RETRY);
        ctx.set_timer(POOL_RETRY, T_POOL_RETRY);
        ctx.set_timer(self.r.cfg.timing.view_refresh(), T_VIEW_REFRESH);
        if let Some(interval) = self.r.cfg.timing.checkpoint_interval {
            ctx.set_timer(interval, T_CHECKPOINT);
        }
        if let Some(interval) = self.r.cfg.timing.delta_interval {
            ctx.set_timer(interval, T_DELTA);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.r.coord.on_timer(ctx, token) {
            return;
        }
        match token {
            T_FLUSH => {
                // The tick's clocks run in every role: a tenure starts from
                // what the process last observed.
                let now = ctx.now();
                let elapsed = now.since(self.r.last_drain_at);
                self.r.last_drain_at = now;
                let admitted = self.r.ingress.admitted();
                let arrived = admitted - self.r.last_admitted;
                self.r.last_admitted = admitted;
                let next = match self.active() {
                    Some((t, r)) => t.drain_and_flush(r, ctx, arrived, elapsed),
                    None => FLUSH_IDLE,
                };
                ctx.set_timer(next, T_FLUSH);
            }
            T_RENEW_SCAN => {
                if let Some((t, r)) = self.active() {
                    t.renew_scan(r, ctx);
                }
                ctx.set_timer(RENEW_SCAN, T_RENEW_SCAN);
            }
            T_ELECT => self.election_window_closed(ctx),
            T_REGISTER => {
                self.maybe_register(ctx);
                ctx.set_timer(REGISTER_RETRY, T_REGISTER);
            }
            T_XG_RETRY => {
                if let Some((t, r)) = self.active() {
                    t.retry_xg_legs(r, ctx);
                }
                ctx.set_timer(XG_RETRY, T_XG_RETRY);
            }
            T_POOL_RETRY => {
                if let Some((t, r)) = self.active() {
                    t.retry_pool_appends(r, ctx);
                }
                ctx.set_timer(POOL_RETRY, T_POOL_RETRY);
            }
            T_VIEW_REFRESH => {
                // Watch events are fire-and-forget; a periodic listing heals
                // any lost ones (stale routing, missed failure detection,
                // lost view updates).
                self.check_coord_lease(ctx);
                if let Some(epoch) = self.r.pending_lock_release {
                    let lock = ViewKey::Lock(self.r.cfg.group).to_string();
                    self.r.coord.release_lock(ctx, lock, epoch);
                }
                self.r.coord.list(ctx, ViewKey::all_groups());
                ctx.set_timer(self.r.cfg.timing.view_refresh(), T_VIEW_REFRESH);
            }
            T_CHECKPOINT => {
                let every = self.r.cfg.timing.checkpoint_interval;
                self.artifact_tick(ctx, every, token, Tenure::start_checkpoint)
            }
            T_DELTA => {
                let every = self.r.cfg.timing.delta_interval;
                self.artifact_tick(ctx, every, token, Tenure::start_delta)
            }
            T_UPGRADE_RETRY => {
                let RoleState::Upgrading(up) = &self.role else { return };
                let epoch = up.epoch;
                // A pool reply of the switch is late or lost: ask again. A
                // switch that awaits nothing runs again from the fence.
                ctx.trace(|| MdsTrace::UpgradeRetry);
                if self.resend_session_requests(ctx) {
                    ctx.set_timer(crate::failover::UPGRADE_RETRY, T_UPGRADE_RETRY);
                } else {
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
                self.r.last_coord_contact = ctx.now();
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
    use crate::proto::FsOp;
    use mams_journal::{decode_batch, AckRecord};
    use mams_namespace::{Partitioner, RetryOutcome};

    /// A standby that ingested, each decoded from the wire as a standby
    /// receives it, the batches an active sealed: `/d`, then one create per
    /// batch acked to client 7, every ack record carrying `spec`. Nothing
    /// reads its window. Also what the active answered each `(7, seq)`.
    fn standby_after(spec: bool) -> (MdsServer, Vec<(u64, OpOutput)>) {
        let mut s = MdsServer::new(MdsConfig {
            group: 0,
            members: vec![1, 2],
            coord: 0,
            pool: vec![3],
            partitioner: Partitioner::new(1),
            initial_role: InitialRole::Standby,
            timing: Default::default(),
        });
        let mut active = Prefix::new();
        let mkdir = active.exec(FsOp::Mkdir { path: "/d".into() }).expect("/d is new").0;
        let mut records: Vec<Txn> = mkdir.into_iter().collect();
        let mut answered = Vec::new();
        for (seq, name) in [(3, "f"), (4, "g"), (5, "h")] {
            let create = FsOp::Create { path: format!("/d/{name}"), replication: 3 };
            let (txn, output) = active.exec(create).expect("the name is new");
            records.extend(txn);
            let acks = vec![AckRecord { record: records.len() as u32 - 1, client: 7, seq, spec }];
            let sealed = active.seal(std::mem::take(&mut records), acks);
            let decoded = decode_batch(sealed.wire().clone()).expect("own encoding decodes");
            assert_eq!(decoded.acks[0].spec, spec, "the byte survives the wire");
            assert_eq!(s.r.prefix.ingest(SharedBatch::new(decoded)), 0);
            answered.push((seq, output));
        }
        assert_eq!(s.applied_sn(), 3);
        (s, answered)
    }

    /// `AckRecord::spec` is a reserved byte: whatever it holds, a replica
    /// replays the batch to the same namespace and the same retry window.
    #[test]
    fn the_reserved_ack_byte_changes_nothing_a_standby_derives() {
        let ((mut a, _), (mut b, _)) = (standby_after(false), standby_after(true));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let window = a.r.prefix.window();
        assert_eq!(window, b.r.prefix.window());
        let entry = window.get(7, 3).expect("the ack settled (7, 3)");
        assert!(matches!(&entry.outcome, RetryOutcome::Info(i) if i.path == "/d/f"));
        assert_eq!(entry.token, None);
    }

    /// A standby folds its window only when it is promoted: the tenure's
    /// seeded cache then answers each resent `(client, seq)` with the very
    /// reply the active sent.
    #[test]
    fn a_promoted_standby_answers_a_resend_with_the_reply_the_active_sent() {
        let (mut s, answered) = standby_after(false);
        let tenure = Tenure::new(2, s.r.prefix.window());
        for (seq, sent) in answered {
            assert!(matches!(sent, OpOutput::Info(_)), "a create answers with the file's info");
            match tenure.retry_cache.check(7, seq).as_deref() {
                Some(MdsResp::Reply { seq: replied, result: Ok(got) }) => {
                    assert_eq!((*replied, got), (seq, &sent), "the resend of (7, {seq})")
                }
                other => panic!("(7, {seq}) is answered {other:?}"),
            }
        }
        assert!(tenure.retry_cache.check(7, 6).is_none(), "an unsent seq executes fresh");
    }
}
