//! The failover protocol: failure detection through the global view,
//! Algorithm 1 active election, the six-step active-standby switch, and
//! degradation paths.
//!
//! View-key ownership: every member writes only its *own* ephemeral state
//! key and (when it wins the lock) the group's `active` pointer. A deposed
//! active degrades itself when it observes the new active (or is fenced by
//! the pool); a dead member's keys vanish with its session. This keeps the
//! ephemeral-ownership semantics of ZooKeeper while producing exactly the
//! state sequences of the paper's Table II.

use mams_coord::{CoordEvent, CoordResp, KeyOp};
use mams_journal::{SharedBatch, Sn};
use mams_sim::{Ctx, Duration, NodeId};

use crate::config::InitialRole;
use crate::proto::GroupMsg;
use crate::server::{
    CatchupStage, ElectStage, ElectState, Inflight, MdsServer, PoolCtx, Role, T_ELECT,
    T_UPGRADE_RETRY,
};
use crate::view::keys;

/// How long an election round collects bids before listing them
/// (Algorithm 1: the largest bid in the window attempts the lock).
const ELECTION_SPREAD: Duration = Duration::from_millis(50);
/// How long a round waits for its winner before starting over.
const ELECTION_BACKOFF: Duration = Duration::from_millis(200);
/// How long the switch waits for a pool reply before asking again.
pub(crate) const UPGRADE_RETRY: Duration = Duration::from_millis(500);

impl MdsServer {
    fn bid_key(&self, node: NodeId) -> String {
        format!("g/{}/bid/{}", self.cfg.group, node)
    }

    fn bid_prefix(&self) -> String {
        format!("g/{}/bid/", self.cfg.group)
    }

    /// Publish our current role letter in the view (self-owned ephemeral).
    pub(crate) fn announce_state(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let key = keys::state(self.cfg.group, me);
        self.coord.set(ctx, key, self.role.letter(), true);
    }

    // -------------------------------------------------- coord responses

    pub(crate) fn on_coord_resp(&mut self, ctx: &mut Ctx<'_>, resp: CoordResp) {
        match resp {
            CoordResp::Registered => {
                self.announce_state(ctx);
                // Re-learn the view (we may have been partitioned and
                // missed events).
                self.coord.list(ctx, keys::all_groups());
                if self.cfg.initial_role == InitialRole::Active && !self.boot_lock_tried {
                    self.boot_lock_tried = true;
                    self.coord.acquire_lock(ctx, keys::lock(self.cfg.group));
                }
            }
            CoordResp::NoSession => {
                // Our session lapsed (e.g. we were unplugged). Re-open it;
                // the refreshed view listing will tell us if we were
                // deposed, and registration will re-qualify our state.
                self.registered = false;
                self.coord.reregister(ctx);
            }
            CoordResp::LockGranted { path, epoch, .. } => {
                if path == keys::lock(self.cfg.group) {
                    // Holding a fresh grant supersedes any unconfirmed
                    // release of an earlier one (the epoch fence already
                    // makes a late retry of it harmless).
                    self.pending_lock_release = None;
                    self.begin_upgrade(ctx, epoch);
                }
            }
            CoordResp::LockBusy { path, .. } => {
                if path == keys::lock(self.cfg.group) {
                    // Someone else won the race; stop competing
                    // ("events are triggered to notify others to stop
                    // competing which will reduce unnecessary actions").
                    self.elect = None;
                    if self.role == Role::Electing {
                        self.role = Role::Standby;
                    }
                }
            }
            CoordResp::Listing { prefix, entries, .. } => {
                if prefix == self.bid_prefix() {
                    self.election_decide(ctx, entries);
                } else if prefix == keys::all_groups() {
                    self.absorb_view_listing(ctx, entries);
                }
            }
            CoordResp::LockReleased { path, .. } => {
                if path == keys::lock(self.cfg.group) {
                    self.pending_lock_release = None;
                }
            }
            CoordResp::Value { .. } | CoordResp::MultiOk { .. } | CoordResp::Watching { .. } => {}
        }
    }

    fn absorb_view_listing(&mut self, ctx: &mut Ctx<'_>, entries: Vec<(String, String)>) {
        // Replace our cached picture of the view.
        self.view.retain(|k, _| !k.starts_with("g/"));
        for (k, v) in entries {
            self.view.insert(k, v);
        }
        self.reconcile_with_view(ctx);
    }

    /// Compare our role against the authoritative view and fix mismatches.
    fn reconcile_with_view(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let active = self.active_of_group(self.cfg.group);
        self.active_hint = active;
        match active {
            Some(n) if n != me => {
                if matches!(self.role, Role::Active | Role::Upgrading) {
                    self.degrade_to_junior(ctx, "view shows another active");
                } else {
                    self.maybe_register(ctx);
                }
            }
            Some(_) if !matches!(self.role, Role::Active | Role::Upgrading) => {
                // The view still points at *us* but we stepped down (e.g.
                // self-fenced and our cleanup writes were lost). Remove the
                // stale pointer so the group can elect.
                self.release_tenure(ctx);
            }
            None => {
                if self.role == Role::Active {
                    // Our view-update write was lost: re-publish.
                    self.coord.multi(
                        ctx,
                        vec![
                            KeyOp::Set {
                                key: keys::active(self.cfg.group),
                                value: me.to_string(),
                                ephemeral: true,
                            },
                            KeyOp::Set {
                                key: keys::state(self.cfg.group, me),
                                value: "A".into(),
                                ephemeral: true,
                            },
                        ],
                    );
                } else {
                    // No active anywhere: candidates should stand.
                    self.maybe_start_election(ctx);
                }
            }
            _ => {}
        }
    }

    // ----------------------------------------------------- coord events

    pub(crate) fn on_coord_event(&mut self, ctx: &mut Ctx<'_>, ev: CoordEvent) {
        match ev {
            CoordEvent::KeyChanged { key, value, by_expiry } => {
                self.view_set(key.clone(), value.clone());
                self.on_view_key_changed(ctx, &key, value.as_deref(), by_expiry);
            }
            CoordEvent::LockFreed { path, .. } => {
                if path == keys::lock(self.cfg.group) {
                    self.note_failure(ctx);
                    self.maybe_start_election(ctx);
                }
            }
            CoordEvent::LockTaken { path, holder, epoch } => {
                if path == keys::lock(self.cfg.group) {
                    self.group_epoch = self.group_epoch.max(epoch);
                    if holder != ctx.id() {
                        // A peer holds the lock: abandon any election round.
                        self.elect = None;
                        if self.role == Role::Electing {
                            self.role = Role::Standby;
                        }
                        if matches!(self.role, Role::Active | Role::Upgrading) {
                            self.degrade_to_junior(ctx, "lock taken by peer");
                        }
                    }
                }
            }
            CoordEvent::SessionExpired => {
                // Failure detector fired on *us*.
                if matches!(self.role, Role::Active | Role::Upgrading) {
                    self.degrade_to_junior(ctx, "own session expired");
                } else {
                    self.registered = false;
                }
                self.coord.reregister(ctx);
            }
        }
    }

    fn on_view_key_changed(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        value: Option<&str>,
        _by_expiry: bool,
    ) {
        let me = ctx.id();
        if let Some(group) = keys::parse_active_key(key) {
            if group != self.cfg.group {
                return; // other groups matter only for routing (cache is updated)
            }
            match value.and_then(crate::view::decode_node) {
                None => {
                    self.note_failure(ctx);
                    self.maybe_start_election(ctx);
                }
                Some(n) => {
                    self.active_hint = Some(n);
                    self.failure_seen_at = None;
                    self.elect = None;
                    if self.role == Role::Electing {
                        self.role = Role::Standby;
                    }
                    if n != me && matches!(self.role, Role::Active | Role::Upgrading) {
                        self.degrade_to_junior(ctx, "another active appeared");
                    }
                    if n != me {
                        // New active: (re)register with it (step 5).
                        self.registered = false;
                        self.maybe_register(ctx);
                    }
                }
            }
            return;
        }
        if let Some((group, node)) = keys::parse_state_key(key) {
            if group != self.cfg.group {
                return;
            }
            if node == me {
                // Someone (the renewing protocol's completion, see
                // renewing.rs) or our own announcement changed our state.
                return;
            }
            if value.is_none() && self.role == Role::Active {
                // A member died: stop waiting for its acks.
                self.standbys.remove(&node);
                self.member_sns.remove(&node);
                for inf in self.inflight.values_mut() {
                    inf.waiting_members.remove(&node);
                }
                if self.renew_driver.as_ref().is_some_and(|r| r.junior == node) {
                    self.renew_driver = None;
                }
                self.try_complete(ctx);
            }
        }
    }

    /// Record the instant we observed the active disappear (Figure 7's
    /// failover clock starts here).
    fn note_failure(&mut self, ctx: &mut Ctx<'_>) {
        if self.failure_seen_at.is_none() && !matches!(self.role, Role::Active | Role::Upgrading) {
            self.failure_seen_at = Some(ctx.now());
            ctx.trace("failover.detected", String::new);
        }
    }

    // ------------------------------------------------------- election

    /// Algorithm 1. Standbys bid random numbers; when no standby exists,
    /// juniors bid their journal sn (the junior with the maximum sn takes
    /// over). The largest bid acquires the lock.
    pub(crate) fn maybe_start_election(&mut self, ctx: &mut Ctx<'_>) {
        if self.elect.is_some() {
            return;
        }
        if self.active_of_group(self.cfg.group).is_some() {
            return;
        }
        let bid = match self.role {
            Role::Standby => ctx.rng().next_u64() >> 1, // random, below junior cap
            Role::Junior => {
                // Juniors stand only when no standby is left
                // ("it ensures the continuity of metadata service even if
                // no standbys are in the global view").
                if !self.members_in_state("S").is_empty() {
                    return;
                }
                self.cursor.max_sn()
            }
            _ => return,
        };
        ctx.trace("election.start", || format!("bid {bid}"));
        let me = ctx.id();
        let key = self.bid_key(me);
        self.coord.set(ctx, key, bid.to_string(), true);
        if self.role == Role::Standby {
            self.role = Role::Electing;
        }
        self.elect = Some(ElectState { bid, stage: ElectStage::Window });
        ctx.set_timer(ELECTION_SPREAD, T_ELECT);
    }

    /// The T_ELECT timer fired.
    pub(crate) fn election_window_closed(&mut self, ctx: &mut Ctx<'_>) {
        let stage = match &self.elect {
            Some(e) => e.stage,
            None => return,
        };
        match stage {
            ElectStage::Window => {
                let prefix = self.bid_prefix();
                self.coord.list(ctx, prefix);
                if let Some(e) = self.elect.as_mut() {
                    e.stage = ElectStage::Backoff;
                }
                ctx.set_timer(ELECTION_BACKOFF, T_ELECT);
            }
            ElectStage::Backoff => {
                // The round fizzled (winner died mid-acquire, listing lost,
                // …). Start over if there is still no active.
                self.elect = None;
                if self.role == Role::Electing {
                    self.role = Role::Standby;
                }
                self.maybe_start_election(ctx);
            }
        }
    }

    /// Bid listing arrived: the largest bid (ties broken by node id) tries
    /// the lock.
    fn election_decide(&mut self, ctx: &mut Ctx<'_>, entries: Vec<(String, String)>) {
        let elect = match &self.elect {
            Some(e) => e,
            None => return,
        };
        let me = ctx.id();
        let prefix = self.bid_prefix();
        let mut best: Option<(u64, NodeId)> = None;
        for (k, v) in &entries {
            let node: NodeId = match k[prefix.len()..].parse() {
                Ok(n) => n,
                Err(_) => continue,
            };
            let bid: u64 = match v.parse() {
                Ok(b) => b,
                Err(_) => continue,
            };
            if best.is_none_or(|b| (bid, node) > b) {
                best = Some((bid, node));
            }
        }
        match best {
            Some((_, winner)) if winner == me => {
                ctx.trace("election.won_bid", || format!("bid {}", elect.bid));
                self.coord.acquire_lock(ctx, keys::lock(self.cfg.group));
            }
            _ => {
                // Not the winner: wait; the Backoff timer restarts the round
                // if the winner fails to take over.
            }
        }
    }

    // ------------------------------------------------------ the switch

    /// Lock granted: run the six-step upgrade.
    pub(crate) fn begin_upgrade(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        let me = ctx.id();
        // Step 1: re-check our own state in the view; a concurrently
        // degraded junior must give the lock up (unless no standby exists —
        // then a junior takeover is exactly what Algorithm 1 prescribes).
        let my_state = self.view.get(&keys::state(self.cfg.group, me)).cloned();
        let standbys_exist = self.members_in_state("S").iter().any(|&n| n != me);
        if my_state.as_deref() == Some("J") && standbys_exist {
            ctx.trace("failover.aborted", || "junior with standbys present".into());
            self.coord.release_lock(ctx, keys::lock(self.cfg.group), epoch);
            self.pending_lock_release = Some(epoch);
            self.elect = None;
            return;
        }
        ctx.trace("failover.lock_acquired", || format!("epoch {epoch}"));
        self.role = Role::Upgrading;
        self.epoch = epoch;
        self.group_epoch = self.group_epoch.max(epoch);
        self.elect = None;
        ctx.set_timer(UPGRADE_RETRY, T_UPGRADE_RETRY);
        // A junior elected mid-renewing (or a rerun) keeps a chain in
        // progress and nothing else of the session before.
        let chain = self.catchup.take().filter(|c| matches!(c, CatchupStage::Chain { .. }));
        self.set_catchup(chain);
        // Fence the pool before reading its authoritative tail, so the
        // deposed active cannot append behind our back.
        self.session_send(ctx, PoolCtx::EpochAdvance);
    }

    /// The pool is fenced: sync with the SSP through the catch-up ladder.
    /// Every client-acknowledged batch is durable there, so once the ladder
    /// reaches the tail we hold everything that was ever acknowledged and
    /// `on_catchup_page` finishes the switch.
    pub(crate) fn on_epoch_advanced(&mut self, ctx: &mut Ctx<'_>) {
        if self.role != Role::Upgrading {
            return;
        }
        if self.catchup.is_some() {
            self.start_image_fetch(ctx);
        } else {
            self.enter_journal_stage(ctx, 0);
        }
    }

    /// Steps 2/3/6: flip the view, then serve (buffered requests first).
    /// `durable_tail` is the pool's journal tail the ladder caught up with.
    pub(crate) fn finish_upgrade(&mut self, ctx: &mut Ctx<'_>, durable_tail: Sn) {
        let me = ctx.id();
        self.role = Role::Active;
        self.active_hint = Some(me);
        self.registered = true;
        self.standbys.clear();
        self.member_sns.clear();
        // The session is over and nothing of an earlier tenure is awaited.
        self.inflight.clear();
        self.catchup = None;
        self.pool_pending.clear();
        // The predecessor's manifest chain is not ours to extend: the first
        // delta tick after promotion writes a fresh full image instead.
        self.delta_anchor = None;
        // Seed the response cache from the replicated retry window we
        // rebuilt during replay: a retry of an op the dead active committed
        // but never answered is served from cache, not re-executed —
        // at-most-once holds *across* the switch. The window derives only
        // from the durable journal, so an op whose batch died with the
        // predecessor is absent and its retry executes fresh (the
        // predecessor's own `abort_inflight` semantics, reconstructed).
        self.retry_cache.clear();
        self.retry_cache.seed_from_window(&self.window);
        self.coord.multi(
            ctx,
            vec![
                KeyOp::Set {
                    key: keys::active(self.cfg.group),
                    value: me.to_string(),
                    ephemeral: true,
                },
                KeyOp::Set {
                    key: keys::state(self.cfg.group, me),
                    value: "A".into(),
                    ephemeral: true,
                },
                KeyOp::Delete { key: self.bid_key(me) },
            ],
        );
        ctx.trace("failover.view_updated", String::new);
        ctx.trace("failover.switch_done", || format!("sn {}", self.cursor.max_sn()));
        // Our replica can be *ahead* of the durable tail: the deposed active
        // synced batches to us whose own SSP appends died with it. They are
        // already applied to our image, so re-offer the suffix to the pool —
        // otherwise our first fresh append sits behind a permanent journal
        // gap and no mutation ever commits again. None of these batches was
        // acknowledged to a client (acks require SSP durability), so
        // committing them is linearizable.
        let resync: Vec<SharedBatch> = self
            .log
            .read_after(durable_tail)
            .map(|bs| bs.iter().map(SharedBatch::share).collect())
            .unwrap_or_default();
        for batch in resync {
            ctx.trace("failover.resync_pool", || format!("re-offer sn {}", batch.sn));
            self.append_to_pool(ctx, batch, Inflight::default());
        }
        // Step 6: release buffered client requests.
        let buffered = std::mem::take(&mut self.buffered);
        for (from, req) in buffered {
            self.on_client_req(ctx, from, req);
        }
        self.flush_batch(ctx);
    }

    // ---------------------------------------------------- registration

    /// Member side of step 5: present our journal position to the active.
    pub(crate) fn maybe_register(&mut self, ctx: &mut Ctx<'_>) {
        if self.registered || matches!(self.role, Role::Active | Role::Upgrading) {
            return;
        }
        let active = match self.active_hint.or_else(|| self.active_of_group(self.cfg.group)) {
            Some(a) => a,
            None => return,
        };
        if active == ctx.id() {
            return;
        }
        ctx.send(active, GroupMsg::Register { sn: self.cursor.max_sn() });
    }

    /// Active side of step 5: qualify a member by comparing sn.
    /// "If a server does not have the same maximum sn, it is switched to
    /// junior. Otherwise the server will be assigned to standby."
    pub(crate) fn on_register(&mut self, ctx: &mut Ctx<'_>, from: NodeId, sn: u64) {
        if self.role != Role::Active {
            return; // member retries; we may still be upgrading
        }
        self.member_sns.insert(from, sn);
        let tail = self.log.tail_sn();
        let as_standby = sn == tail;
        if as_standby {
            self.standbys.insert(from);
            ctx.trace("member.standby", || format!("n{from} at sn {sn}"));
        } else {
            ctx.trace("member.junior", || format!("n{from} at sn {sn} (tail {tail})"));
        }
        ctx.send(from, GroupMsg::RegisterAck { as_standby, epoch: self.epoch, tail_sn: tail });
    }

    /// Member: the active's verdict.
    pub(crate) fn on_register_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        as_standby: bool,
        epoch: u64,
        tail_sn: u64,
    ) {
        if matches!(self.role, Role::Active | Role::Upgrading) {
            return;
        }
        self.group_epoch = self.group_epoch.max(epoch);
        self.active_hint = Some(from);
        self.registered = true;
        if as_standby {
            self.role = Role::Standby;
            self.set_catchup(None);
            self.announce_state(ctx);
            ctx.trace("member.registered_standby", String::new);
        } else {
            if self.cursor.max_sn() > tail_sn {
                // Divergent suffix (our extra batches were never
                // client-acknowledged): rebuild from scratch.
                ctx.trace("member.reset_divergent", || {
                    format!("our sn {} > tail {tail_sn}", self.cursor.max_sn())
                });
                self.reset_replica_state();
            }
            self.role = Role::Junior;
            self.announce_state(ctx);
            ctx.trace("member.registered_junior", String::new);
        }
    }

    // ------------------------------------------------------ degradation

    /// Self-fencing: every deposition path above is driven by a message
    /// *from* the coordinator (a watch event, a listing, `NoSession`). An
    /// active partitioned away from the coordination service receives none
    /// of them — its session expires server-side, a successor is elected,
    /// and the zombie would keep answering reads (stale!) for clients still
    /// connected to it. So the active also enforces its lease locally: no
    /// coordination contact for `coord_lease()` (below the coordinator's
    /// session timeout) means the session must be presumed dead, and we step down
    /// *before* any successor can finish its upgrade.
    pub(crate) fn check_coord_lease(&mut self, ctx: &mut Ctx<'_>) {
        if !matches!(self.role, Role::Active | Role::Upgrading) {
            return;
        }
        let silent = ctx.now().since(self.last_coord_contact);
        if silent > self.cfg.timing.coord_lease() {
            ctx.trace("failover.self_fence", || format!("coord silent for {silent:?}"));
            // Teardown of our view presence. On an *asymmetric* cut (we can
            // send to the coordinator but hear nothing back) our session
            // stays alive server-side, so without this the lock and the
            // active key would stay ours forever and the group could never
            // elect a successor. On a full cut these sends are lost — and
            // the coordinator's own session expiry does the same cleanup.
            // Under partial loss a lost release wedges the group the same
            // way, so it is retried (`pending_lock_release`) until the
            // coordinator confirms.
            self.release_tenure(ctx);
            self.degrade_to_junior(ctx, "coord lease lapsed");
        }
    }

    /// Give up the group lock and retract our active pointer. The release
    /// carries our grant epoch (so a duplicated copy cannot free a
    /// successor's — or our own later — grant) and the pointer delete is
    /// value-guarded (so a delayed copy cannot clobber a successor's
    /// pointer). The release is recorded in `pending_lock_release` and
    /// re-sent every view-refresh tick until the coordinator confirms:
    /// a single lost release would otherwise leave the lock held by a
    /// session that keeps heartbeating, and the group headless forever.
    pub(crate) fn release_tenure(&mut self, ctx: &mut Ctx<'_>) {
        let epoch = self.epoch;
        self.coord.release_lock(ctx, keys::lock(self.cfg.group), epoch);
        self.pending_lock_release = Some(epoch);
        self.coord.multi(
            ctx,
            vec![KeyOp::DeleteIfValue {
                key: keys::active(self.cfg.group),
                value: ctx.id().to_string(),
            }],
        );
    }

    /// "Once the active has detected fatal errors ... it will be directly
    /// degraded to the junior state."
    pub(crate) fn degrade_to_junior(&mut self, ctx: &mut Ctx<'_>, reason: &str) {
        ctx.trace("failover.degraded", || reason.to_string());
        // Mutations execute against the namespace when enqueued, with the
        // ack deferred until the batch is durable in the SSP. Anything still
        // pending or awaiting a pool ack is therefore *speculative* state in
        // our image that the rest of the group never saw — an isolated
        // active accumulates a whole divergent suffix this way. Per the
        // paper's junior semantics, discard everything and rebuild from the
        // shared image + journal; keeping the polluted image would make
        // later replay diverge.
        if !self.pending.is_empty() || self.inflight.values().any(|i| i.pool_req.is_some()) {
            ctx.trace("failover.discard_speculative", || {
                format!("{} pending, {} inflight", self.pending.len(), self.inflight.len())
            });
            self.reset_replica_state();
        }
        // Unanswered clients will time out and retry against the new
        // active; duplicate suppression there keeps operations exact. The
        // dropped operations' in-flight markers go with them — a retry of
        // an unanswered seq must execute fresh if we are re-promoted.
        self.pending.clear();
        self.inflight.clear();
        // Barriered reads observed state that will never commit; answering
        // them now would be a dirty read. The clients time out and retry.
        self.deferred_reads.clear();
        self.retry_cache.abort_inflight();
        self.ingress.clear();
        self.buffered.clear();
        self.standbys.clear();
        self.member_sns.clear();
        self.renew_driver = None;
        self.xg_to_sn.clear();
        self.xg_outstanding.clear();
        // Legs still in flight were discarded with the queues above; their
        // retries must run if we are re-promoted. Acknowledged ones keep
        // answering duplicates.
        self.xg_seen.retain(|_, acked| acked.is_some());
        self.elect = None;
        // As active we mutated `ns` outside the replay session, so its
        // cached handles may be stale.
        self.replay.reset();
        self.delta_anchor = None;
        // Whatever the pool still answers — an append, an artifact write, a
        // page of the switch — it answers a tenure that is over: a late
        // `Fenced` must not degrade us a second time.
        self.catchup = None;
        self.artifact_in_flight = None;
        self.pool_pending.clear();
        self.role = Role::Junior;
        self.registered = false;
        self.announce_state(ctx);
        self.maybe_register(ctx);
    }
}
