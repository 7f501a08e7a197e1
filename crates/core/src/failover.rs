//! The failover protocol: failure detection through the global view,
//! Algorithm 1 active election, the six-step active-standby switch, and
//! degradation paths — the transitions between the three role values.
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
use mams_storage::pool::Epoch;

use crate::config::InitialRole;
use crate::prefix::Prefix;
use crate::proto::GroupMsg;
use crate::server::{
    CatchupStage, ElectStage, ElectState, Inflight, MdsServer, Member, MemberPos, Replica,
    RoleState, Session, SessionReq, Tenure, Upgrading, T_ELECT, T_UPGRADE_RETRY,
};
use crate::trace::MdsTrace;
use crate::view::ViewKey;

/// How long an election round collects bids before listing them
/// (Algorithm 1: the largest bid in the window attempts the lock).
const ELECTION_SPREAD: Duration = Duration::from_millis(50);
/// How long a round waits for its winner before starting over.
const ELECTION_BACKOFF: Duration = Duration::from_millis(200);
/// How long the switch waits for a pool reply before asking again.
pub(crate) const UPGRADE_RETRY: Duration = Duration::from_millis(500);

impl MdsServer {
    /// Publish our current role letter in the view (self-owned ephemeral).
    pub(crate) fn announce_state(&mut self, ctx: &mut Ctx<'_>) {
        let key = ViewKey::State(self.r.cfg.group, ctx.id());
        self.r.coord.set(ctx, key.to_string(), self.role().letter(), true);
    }

    /// Publish the active pointer and our `A` (view ops of step 2, and of a
    /// re-publish after a lost write).
    fn active_keys(&self, me: NodeId) -> Vec<KeyOp> {
        let set = |key: ViewKey, value: String| KeyOp::Set {
            key: key.to_string(),
            value,
            ephemeral: true,
        };
        let group = self.r.cfg.group;
        vec![
            set(ViewKey::Active(group), me.to_string()),
            set(ViewKey::State(group, me), "A".into()),
        ]
    }

    // -------------------------------------------------- coord responses

    pub(crate) fn on_coord_resp(&mut self, ctx: &mut Ctx<'_>, resp: CoordResp) {
        let ours = |path: &str| ViewKey::parse(path) == Some(ViewKey::Lock(self.r.cfg.group));
        match resp {
            CoordResp::Registered => {
                self.announce_state(ctx);
                // Re-learn the view (we may have been partitioned and
                // missed events).
                self.r.coord.list(ctx, ViewKey::all_groups());
                if self.r.cfg.initial_role == InitialRole::Active && !self.r.boot_lock_tried {
                    self.r.boot_lock_tried = true;
                    self.r.coord.acquire_lock(ctx, ViewKey::Lock(self.r.cfg.group).to_string());
                }
            }
            CoordResp::NoSession => {
                // Our session lapsed (e.g. we were unplugged). Re-open it;
                // the refreshed view listing will tell us if we were
                // deposed, and registration will re-qualify our state.
                if let Some(m) = self.role.member() {
                    m.registered = false;
                }
                self.r.coord.reregister(ctx);
            }
            CoordResp::LockGranted { path, epoch, .. } if ours(&path) => {
                // Holding a fresh grant supersedes any unconfirmed release
                // of an earlier one (the epoch fence already makes a late
                // retry of it harmless).
                self.r.pending_lock_release = None;
                self.begin_upgrade(ctx, epoch);
            }
            CoordResp::LockBusy { path, .. } if ours(&path) => {
                // Someone else won the race; stop competing ("events are
                // triggered to notify others to stop competing which will
                // reduce unnecessary actions").
                if let Some(m) = self.role.member() {
                    m.elect = None;
                }
            }
            CoordResp::Listing { prefix, entries, .. } => {
                if prefix == ViewKey::bids(self.r.cfg.group) {
                    self.election_decide(ctx, entries);
                } else if prefix == ViewKey::all_groups() {
                    // Replace our cached picture of the view.
                    let typed = |(k, v): (String, String)| Some((ViewKey::parse(&k)?, v));
                    self.r.view = entries.into_iter().filter_map(typed).collect();
                    self.reconcile_with_view(ctx);
                }
            }
            CoordResp::LockReleased { path, .. } if ours(&path) => {
                self.r.pending_lock_release = None;
            }
            _ => {}
        }
    }

    /// Compare our role against the authoritative view and fix mismatches.
    fn reconcile_with_view(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        let active = self.r.active_of_group(self.r.cfg.group);
        self.r.active_hint = active;
        match (active, &self.role) {
            (Some(n), RoleState::Member(_)) if n != me => self.maybe_register(ctx),
            (Some(n), _) if n != me => self.degrade_to_junior(ctx, "view shows another active"),
            (Some(_), RoleState::Member(m)) => {
                // The view still points at *us* but we stepped down (e.g.
                // self-fenced and our cleanup writes were lost). Remove the
                // stale pointer so the group can elect.
                let epoch = m.last_grant;
                self.release_tenure(ctx, epoch);
            }
            (None, RoleState::Active(_)) => {
                // Our view-update write was lost: re-publish.
                let keys = self.active_keys(me);
                self.r.coord.multi(ctx, keys);
            }
            // No active anywhere: candidates should stand.
            (None, RoleState::Member(_)) => self.maybe_start_election(ctx),
            (Some(_), _) | (None, RoleState::Upgrading(_)) => {}
        }
    }

    // ----------------------------------------------------- coord events

    pub(crate) fn on_coord_event(&mut self, ctx: &mut Ctx<'_>, ev: CoordEvent) {
        let ours = |path: &str| ViewKey::parse(path) == Some(ViewKey::Lock(self.r.cfg.group));
        match ev {
            CoordEvent::KeyChanged { key, value, .. } => {
                let Some(key) = ViewKey::parse(&key) else { return };
                match value.clone() {
                    Some(v) => self.r.view.insert(key, v),
                    None => self.r.view.remove(&key),
                };
                self.on_view_key_changed(ctx, key, value.as_deref());
            }
            CoordEvent::LockFreed { path, .. } if ours(&path) => {
                self.note_failure(ctx);
                self.maybe_start_election(ctx);
            }
            CoordEvent::LockTaken { path, holder, epoch } if ours(&path) => {
                self.r.group_epoch = self.r.group_epoch.max(epoch);
                if holder != ctx.id() {
                    // A peer holds the lock: abandon any election round.
                    self.step_down(ctx, "lock taken by peer").elect = None;
                }
            }
            CoordEvent::SessionExpired => {
                // Failure detector fired on *us*.
                self.step_down(ctx, "own session expired").registered = false;
                self.r.coord.reregister(ctx);
            }
            _ => {}
        }
    }

    fn on_view_key_changed(&mut self, ctx: &mut Ctx<'_>, key: ViewKey, value: Option<&str>) {
        let (me, group) = (ctx.id(), self.r.cfg.group);
        match key {
            // Other groups matter only for routing (the cache is updated).
            ViewKey::Active(g) if g == group => match value.and_then(|v| v.parse().ok()) {
                None => {
                    self.note_failure(ctx);
                    self.maybe_start_election(ctx);
                }
                Some(n) => {
                    self.r.active_hint = Some(n);
                    let other = n != me;
                    if other {
                        self.step_down(ctx, "another active appeared");
                    }
                    if let Some(m) = self.role.member() {
                        m.failure_seen_at = None;
                        m.elect = None;
                        m.registered &= !other;
                    }
                    if other {
                        // New active: (re)register with it (step 5).
                        self.maybe_register(ctx);
                    }
                }
            },
            // Our own state key is ours (or the renewing protocol's
            // completion, see renewing.rs) to change; a peer's vanishing
            // means it died.
            ViewKey::State(g, node) if g == group && node != me && value.is_none() => {
                if let Some((t, r)) = self.active() {
                    t.on_member_gone(r, ctx, node);
                }
            }
            _ => {}
        }
    }

    /// Record the instant we observed the active disappear (Figure 7's
    /// failover clock starts here).
    fn note_failure(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(m) = self.role.member().filter(|m| m.failure_seen_at.is_none()) {
            m.failure_seen_at = Some(ctx.now());
            ctx.trace(|| MdsTrace::FailureDetected);
        }
    }

    // ------------------------------------------------------- election

    /// Algorithm 1. Standbys bid random numbers; when no standby exists,
    /// juniors bid their journal sn (the junior with the maximum sn takes
    /// over). The largest bid acquires the lock.
    pub(crate) fn maybe_start_election(&mut self, ctx: &mut Ctx<'_>) {
        let group = self.r.cfg.group;
        let junior = match &self.role {
            RoleState::Member(m) if m.elect.is_none() => m.junior,
            _ => return,
        };
        if self.r.active_of_group(group).is_some() {
            return;
        }
        let bid = if junior {
            // Juniors stand only when no standby is left ("it ensures the
            // continuity of metadata service even if no standbys are in the
            // global view").
            if self.r.members_in_state("S").next().is_some() {
                return;
            }
            self.r.prefix.tail_sn()
        } else {
            ctx.rng().next_u64() >> 1 // random, below junior cap
        };
        ctx.trace(|| MdsTrace::ElectionStarted { bid });
        let key = ViewKey::Bid(group, ctx.id());
        self.r.coord.set(ctx, key.to_string(), bid.to_string(), true);
        let m = self.role.member().expect("matched above");
        m.elect = Some(ElectState { bid, stage: ElectStage::Window });
        ctx.set_timer(ELECTION_SPREAD, T_ELECT);
    }

    /// The T_ELECT timer fired.
    pub(crate) fn election_window_closed(&mut self, ctx: &mut Ctx<'_>) {
        let Some(m) = self.role.member() else { return };
        match m.elect.as_mut().map(|e| std::mem::replace(&mut e.stage, ElectStage::Backoff)) {
            None => {}
            Some(ElectStage::Window) => {
                self.r.coord.list(ctx, ViewKey::bids(self.r.cfg.group));
                ctx.set_timer(ELECTION_BACKOFF, T_ELECT);
            }
            Some(ElectStage::Backoff) => {
                // The round fizzled (winner died mid-acquire, listing lost,
                // …). Start over if there is still no active.
                m.elect = None;
                self.maybe_start_election(ctx);
            }
        }
    }

    /// Bid listing arrived: the largest bid (ties broken by node id) tries
    /// the lock.
    fn election_decide(&mut self, ctx: &mut Ctx<'_>, entries: Vec<(String, String)>) {
        let Some(elect) = self.role.member().and_then(|m| m.elect.as_ref()) else { return };
        let bid_of = |(k, v): &(String, String)| match ViewKey::parse(k) {
            Some(ViewKey::Bid(_, node)) => Some((v.parse::<u64>().ok()?, node)),
            _ => None,
        };
        // Not the winner: wait; the Backoff timer restarts the round if the
        // winner fails to take over.
        if entries.iter().filter_map(bid_of).max().is_some_and(|(_, winner)| winner == ctx.id()) {
            ctx.trace(|| MdsTrace::BidWon { bid: elect.bid });
            self.r.coord.acquire_lock(ctx, ViewKey::Lock(self.r.cfg.group).to_string());
        }
    }

    // ------------------------------------------------------ the switch

    /// Lock granted: run the six-step upgrade.
    pub(crate) fn begin_upgrade(&mut self, ctx: &mut Ctx<'_>, epoch: Epoch) {
        let (me, group) = (ctx.id(), self.r.cfg.group);
        if let RoleState::Active(t) = &self.role {
            if t.epoch == epoch {
                return; // the grant this tenure runs under, delivered twice
            }
            self.degrade_to_junior(ctx, "lock granted anew");
        }
        // Step 1: re-check our own state in the view; a concurrently
        // degraded junior must give the lock up (unless no standby exists —
        // then a junior takeover is exactly what Algorithm 1 prescribes).
        let my_state = self.r.view.get(&ViewKey::State(group, me));
        let standbys_exist = self.r.members_in_state("S").any(|n| n != me);
        if my_state.map(String::as_str) == Some("J") && standbys_exist {
            ctx.trace(|| MdsTrace::SwitchAborted);
            self.r.coord.release_lock(ctx, ViewKey::Lock(group).to_string(), epoch);
            self.r.pending_lock_release = Some(epoch);
            if let Some(m) = self.role.member() {
                m.elect = None;
            }
            return;
        }
        ctx.trace(|| MdsTrace::LockAcquired { epoch });
        self.r.group_epoch = self.r.group_epoch.max(epoch);
        ctx.set_timer(UPGRADE_RETRY, T_UPGRADE_RETRY);
        // A junior elected mid-renewing keeps a chain in progress and
        // nothing else of the session before; a rerun of the switch (its
        // retry timer found nothing awaited) keeps what it buffered too.
        let (stage, buffered) = match &mut self.role {
            RoleState::Member(m) => (m.session.stage.take(), Vec::new()),
            RoleState::Upgrading(up) => (up.session.stage.take(), std::mem::take(&mut up.buffered)),
            RoleState::Active(_) => unreachable!("degraded above"),
        };
        let chain = stage.filter(|c| matches!(c, CatchupStage::Chain { .. }));
        self.role =
            RoleState::Upgrading(Upgrading { epoch, buffered, session: Session::at(chain) });
        // Fence the pool before reading its authoritative tail, so the
        // deposed active cannot append behind our back.
        self.session_send(ctx, SessionReq::EpochAdvance { to: epoch });
    }

    /// The pool is fenced: sync with the SSP through the catch-up ladder.
    /// Every client-acknowledged batch is durable there, so once the ladder
    /// reaches the tail we hold everything that was ever acknowledged and
    /// `on_catchup_page` finishes the switch.
    pub(crate) fn on_epoch_advanced(&mut self, ctx: &mut Ctx<'_>) {
        if self.role.stage().is_some() {
            self.start_image_fetch(ctx);
        } else {
            self.enter_journal_stage(ctx, 0);
        }
    }

    /// Steps 2/3/6: flip the view, then serve (buffered requests first).
    /// `durable_tail` is the pool's journal tail the ladder caught up with.
    /// The tenure starts here, and with it everything only an active holds.
    pub(crate) fn finish_upgrade(&mut self, ctx: &mut Ctx<'_>, durable_tail: Sn) {
        let me = ctx.id();
        let RoleState::Upgrading(up) = &mut self.role else { return };
        let buffered = std::mem::take(&mut up.buffered);
        self.role = RoleState::Active(Box::new(Tenure::new(up.epoch, self.r.prefix.window())));
        self.r.active_hint = Some(me);
        let mut keys = self.active_keys(me);
        keys.push(KeyOp::Delete { key: ViewKey::Bid(self.r.cfg.group, me).to_string() });
        self.r.coord.multi(ctx, keys);
        ctx.trace(|| MdsTrace::SwitchDone { sn: self.r.prefix.tail_sn() });
        // Our replica can be *ahead* of the durable tail: the deposed active
        // synced batches to us whose own SSP appends died with it. They are
        // already applied to our image, so re-offer the suffix to the pool —
        // otherwise our first fresh append sits behind a permanent journal
        // gap and no mutation ever commits again. None of these batches was
        // acknowledged to a client (acks require SSP durability), so
        // committing them is linearizable.
        let (t, r) = self.active().expect("promoted above");
        let resync: Vec<SharedBatch> = r
            .prefix
            .log()
            .read_after(durable_tail)
            .map(|bs| bs.iter().map(SharedBatch::share).collect())
            .unwrap_or_default();
        for batch in resync {
            ctx.trace(|| MdsTrace::PoolResync { sn: batch.sn });
            t.append_to_pool(r, ctx, batch, Inflight::default());
        }
        // Step 6: release buffered client requests.
        for (from, req) in buffered {
            self.on_client_req(ctx, from, req);
        }
        if let Some((t, r)) = self.active() {
            t.flush_batch(r, ctx);
        }
    }

    // ---------------------------------------------------- registration

    /// Member side of step 5: present our journal position to the active.
    pub(crate) fn maybe_register(&mut self, ctx: &mut Ctx<'_>) {
        if !matches!(&self.role, RoleState::Member(m) if !m.registered) {
            return;
        }
        let hint = self.r.active_hint.or_else(|| self.r.active_of_group(self.r.cfg.group));
        if let Some(active) = hint.filter(|&a| a != ctx.id()) {
            ctx.send(active, GroupMsg::Register { sn: self.r.prefix.tail_sn() });
        }
    }

    /// Member: the active's verdict.
    pub(crate) fn on_register_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        as_standby: bool,
        epoch: Epoch,
        tail_sn: Sn,
    ) {
        let RoleState::Member(m) = &mut self.role else { return };
        self.r.group_epoch = self.r.group_epoch.max(epoch);
        self.r.active_hint = Some(from);
        m.registered = true;
        m.junior = !as_standby;
        if as_standby {
            m.session = Session::default();
        } else if self.r.prefix.tail_sn() > tail_sn {
            // Divergent suffix (our extra batches were never
            // client-acknowledged): give the prefix up, catch-up rebuilds
            // one from the pool.
            ctx.trace(|| MdsTrace::ResetDivergent { sn: self.r.prefix.tail_sn(), tail: tail_sn });
            self.r.prefix = Prefix::new();
        }
        self.announce_state(ctx);
        ctx.trace(|| MdsTrace::Registered { as_standby });
    }

    // ------------------------------------------------------ degradation

    /// Self-fencing: every deposition path above is driven by a message
    /// *from* the coordinator (a watch event, a listing, `NoSession`). An
    /// active partitioned away from the coordination service receives none
    /// of them — its session expires server-side, a successor is elected,
    /// and the zombie would keep answering reads (stale!) for clients still
    /// connected to it. So whoever holds a grant also enforces its lease
    /// locally: no coordination contact for `coord_lease()` (below the
    /// coordinator's session timeout) means the session must be presumed
    /// dead, and we step down *before* any successor can finish its upgrade.
    pub(crate) fn check_coord_lease(&mut self, ctx: &mut Ctx<'_>) {
        let Some(epoch) = self.role.grant() else { return };
        let silent = ctx.now().since(self.r.last_coord_contact);
        if silent > self.r.cfg.timing.coord_lease() {
            ctx.trace(|| MdsTrace::SelfFenced { silent });
            // Teardown of our view presence. On an *asymmetric* cut (we can
            // send to the coordinator but hear nothing back) our session
            // stays alive server-side, so without this the lock and the
            // active key would stay ours forever and the group could never
            // elect a successor. On a full cut these sends are lost — and
            // the coordinator's own session expiry does the same cleanup.
            // Under partial loss a lost release wedges the group the same
            // way, so it is retried (`pending_lock_release`) until the
            // coordinator confirms.
            self.release_tenure(ctx, epoch);
            self.degrade_to_junior(ctx, "coord lease lapsed");
        }
    }

    /// Give up the group lock and retract our active pointer. The release
    /// carries the grant's epoch (so a duplicated copy cannot free a
    /// successor's — or our own later — grant) and the pointer delete is
    /// value-guarded (so a delayed copy cannot clobber a successor's
    /// pointer). The release is recorded in `pending_lock_release` and
    /// re-sent every view-refresh tick until the coordinator confirms:
    /// a single lost release would otherwise leave the lock held by a
    /// session that keeps heartbeating, and the group headless forever.
    fn release_tenure(&mut self, ctx: &mut Ctx<'_>, epoch: Epoch) {
        let group = self.r.cfg.group;
        self.r.coord.release_lock(ctx, ViewKey::Lock(group).to_string(), epoch);
        self.r.pending_lock_release = Some(epoch);
        let pointer = KeyOp::DeleteIfValue {
            key: ViewKey::Active(group).to_string(),
            value: ctx.id().to_string(),
        };
        self.r.coord.multi(ctx, vec![pointer]);
    }

    /// Our member state — after stepping down, if we hold (or are taking)
    /// the lock.
    fn step_down(&mut self, ctx: &mut Ctx<'_>, reason: &'static str) -> &mut Member {
        if self.role.grant().is_some() {
            self.degrade_to_junior(ctx, reason);
        }
        self.role.member().expect("holds no grant")
    }

    /// "Once the active has detected fatal errors ... it will be directly
    /// degraded to the junior state." The grant's role value — a tenure or
    /// a switch — ends here and is dropped whole: unanswered clients time
    /// out and retry against the new active, where duplicate suppression
    /// keeps operations exact; barriered reads observed state that will
    /// never commit and are never answered; whatever the pool still answers,
    /// it answers nobody.
    pub(crate) fn degrade_to_junior(&mut self, ctx: &mut Ctx<'_>, reason: &'static str) {
        ctx.trace(|| MdsTrace::Degraded { reason });
        let last_grant = self.role.grant().expect("only a grant's holder degrades");
        let junior = Member { junior: true, last_grant, ..Member::default() };
        let ended = std::mem::replace(&mut self.role, RoleState::Member(junior));
        // Mutations execute against the namespace when enqueued, with the
        // ack deferred until the batch is durable in the SSP. Anything still
        // pending or awaiting a pool ack is therefore *speculative* state in
        // our image that the rest of the group never saw — an isolated
        // active accumulates a whole divergent suffix this way. Per the
        // paper's junior semantics, give the prefix up and rebuild from the
        // shared image + journal; keeping the polluted image would make
        // later replay diverge.
        if let RoleState::Active(t) = &ended {
            if !t.pending.is_empty() || t.inflight.values().any(|i| i.pool_req.is_some()) {
                ctx.trace(|| MdsTrace::SpeculativeDiscarded {
                    pending: t.pending.len(),
                    inflight: t.inflight.len(),
                });
                self.r.prefix = Prefix::new();
            }
        }
        // What was admitted and not served goes the same way. Legs among it
        // were discarded unacknowledged: their retries must run if we are
        // re-promoted, while acknowledged ones keep answering duplicates.
        self.r.ingress.clear();
        self.r.xg_seen.retain(|_, acked| acked.is_some());
        self.announce_state(ctx);
        self.maybe_register(ctx);
    }
}

impl Tenure {
    /// Step 5, the active's side: qualify a member by comparing sn.
    /// "If a server does not have the same maximum sn, it is switched to
    /// junior. Otherwise the server will be assigned to standby."
    /// Where it says it is replaces whatever it acknowledged before: at the
    /// tail it votes from the next batch on; a voter back behind the tail
    /// (a restart quicker than its session) lost what it held, and no batch
    /// waits for it any more — the renewing brings it back from the pool.
    pub(crate) fn on_register(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>, from: NodeId, sn: Sn) {
        let tail = r.prefix.tail_sn();
        let as_standby = sn == tail;
        let votes_from = as_standby.then_some(tail + 1);
        self.members.insert(from, MemberPos { acked: sn, votes_from });
        ctx.trace(|| MdsTrace::MemberRegistered { member: from, sn, tail, as_standby });
        ctx.send(from, GroupMsg::RegisterAck { as_standby, epoch: self.epoch, tail_sn: tail });
        // Batches that waited for a vote it no longer owes can go.
        self.try_complete(r, ctx);
    }
}
