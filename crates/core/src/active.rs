//! The tenure at work: serving client operations, journal batching and
//! synchronization, distributed transactions, checkpoints. Every handler
//! here takes the [`Tenure`] and the [`Replica`] it runs on, so none can be
//! entered in another role.

use std::sync::Arc;

use mams_journal::{fnv1a64, AckRecord, SharedBatch, Sn, Txn};
use mams_namespace::{path, NsError};
use mams_sim::{Ctx, Duration, NodeId};
use mams_storage::pool::PoolError;
use mams_storage::proto::{PoolReq, PoolResp};

use crate::commit::FLUSH_MAX;
use crate::ingress::{CpuModel, IngressItem};
use crate::proto::{FsOp, GroupMsg, MdsResp, OpOutput, Xid};
use crate::server::{
    Chain, ClientReply, Inflight, MemberPos, Observation, PendingOp, Replica, ReplyTo, Tenure,
    XgOutstanding,
};
use crate::trace::MdsTrace;

/// Flush as soon as this many mutations are pending.
const BATCH_MAX_OPS: usize = 64;

/// A chain with more deltas than this is replaced by a full image.
const MAX_CHAIN_DELTAS: usize = 8;
/// Nor may its deltas outweigh its base, or this floor when the base is
/// smaller: a near-empty namespace must not turn every delta into an image.
const CHAIN_BYTES_FLOOR: u64 = 64 * 1024;

/// Extra per-mutation CPU for each hot standby the active synchronizes
/// (serialization + send per replica). This is what produces the paper's
/// few-percent throughput decline per added standby (Fig. 5).
const SYNC_CPU_PER_STANDBY: Duration = Duration::from_micros(5);

impl Tenure {
    // ------------------------------------------------------------- clients

    /// One `T_FLUSH` tick of the active: drain the admission queue for what
    /// `elapsed` buys, serve it, seal it. Returns the next tick's interval.
    pub(crate) fn drain_and_flush(
        &mut self,
        r: &mut Replica,
        ctx: &mut Ctx<'_>,
        arrived: u64,
        elapsed: Duration,
    ) -> Duration {
        r.commit.observe_tick(arrived, elapsed);
        // The drain budget is the elapsed wall time — not the tick interval
        // — so the CPU model's service rate is the same whether the
        // controller ticks every 250µs or every 8ms. Bounded by `FLUSH_MAX`
        // so a tick delayed past the cadence (promotion, timer skew) cannot
        // burst beyond the modeled capacity.
        let budget = elapsed.min(FLUSH_MAX);
        let mut cpu = CpuModel::default();
        // Journal fan-out: every mutation is serialized and sent to each
        // hot standby.
        cpu.mutation += SYNC_CPU_PER_STANDBY.mul_f64(self.voters().count() as f64);
        // Serve the drained window bucket by bucket: ops are grouped by their
        // parent directory's release bucket and the buckets served in index
        // order — a stable sort is that pass in place. Within a bucket the
        // admission order is preserved, so ops against the same directory
        // serve, and are journalled, exactly as admitted; ops in different
        // buckets were concurrent (clients are closed-loop, one op in flight
        // each), so any interleaving is a legal linearization. The order is
        // deterministic, keeping replica replay and the retry cache's
        // in-order assumptions intact, and it shapes each batch's bytes and
        // the order replies leave in: changing it moves virtual time.
        let mut drained = r.ingress.drain(budget, cpu);
        drained.sort_by_cached_key(|item| release_bucket(item.op().primary_path()));
        for item in drained {
            match item {
                IngressItem::Client { from, op, seq } => self.serve_op(r, ctx, from, op, seq),
                IngressItem::Leg { coordinator, xid, op } => {
                    self.enqueue_mutation(r, ctx, op, ReplyTo::XGroup { coordinator, xid })
                }
            }
        }
        self.flush_batch(r, ctx);
        r.commit.next_interval(r.ingress.len())
    }

    fn serve_op(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>, from: NodeId, op: FsOp, seq: u64) {
        if !op.is_mutation() {
            // A read runs every time it arrives, a resend included: it
            // changes nothing, and a re-execution lies inside the interval
            // of the op it repeats, so its reply is never cached.
            let result = r.prefix.exec(op).map(|(_, output)| output);
            let resp = Observation::Read(MdsResp::Reply { seq, result });
            // Read barrier: the image may include mutations that are not
            // yet durable in the SSP. Releasing the reply now would let
            // the client observe state that can still be discarded — an
            // isolated active throws its speculative suffix away when it
            // degrades, so such a dirty read contradicts the successor's
            // timeline. Hold the reply until everything the read could
            // have observed has committed; on degradation the reply goes
            // with the tenure instead and the client retries against the
            // new active. The read still linearizes at its execution point.
            self.send_or_defer_observation(r, ctx, from, seq, resp);
            return;
        }
        // Duplicate handling: a retried mutation (same seq) is answered
        // from the cache, never re-executed.
        if let Some(cached) = self.retry_cache.check(from, seq) {
            ctx.send(from, cached);
            return;
        }
        #[cfg(debug_assertions)]
        if r.cfg.timing.fault_double_ack {
            if let FsOp::Delete { .. } = &op {
                // Injected defect (chaos teeth test): acknowledge the
                // delete as done without executing it.
                let resp = Arc::new(MdsResp::Reply { seq, result: Ok(OpOutput::Done) });
                self.retry_cache.store(from, seq, resp.clone());
                ctx.send(from, resp);
                return;
            }
        }
        // In-flight suppression: the response cache above only covers
        // *answered* requests. A duplicate that lands while the original
        // mutation is still waiting on durability (duplicated on the wire,
        // or retried into a slow round) must not execute a second time —
        // the re-execution could interleave with other clients' operations
        // (e.g. re-delete a path someone re-created) and break
        // linearizability. The original's reply covers the client. The same
        // goes for a copy that arrives after the client confirmed receipt.
        if !self.retry_cache.begin(from, seq) {
            return;
        }
        self.enqueue_mutation(r, ctx, op, ReplyTo::Client { node: from, seq });
    }

    /// Release a reply that *observed* the namespace without journaling
    /// anything (a read, or a mutation rejected by validation). If the
    /// image contains not-yet-durable mutations the reply is barriered
    /// behind the newest such batch — see the read-barrier comment in
    /// `serve_op`.
    fn send_or_defer_observation(
        &mut self,
        r: &Replica,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: u64,
        resp: Observation,
    ) {
        let barrier = if self.pending.is_empty() {
            self.inflight.keys().next_back().copied()
        } else {
            Some(r.prefix.tail_sn() + 1)
        };
        match barrier {
            None => self.release_observation(ctx, from, seq, resp),
            Some(sn) => self.deferred_reads.push((sn, from, seq, resp)),
        }
    }

    /// Send an observation; a rejected mutation's is cached first, so that
    /// its resend is answered alike.
    fn release_observation(&mut self, ctx: &mut Ctx<'_>, to: NodeId, seq: u64, resp: Observation) {
        match resp {
            Observation::Read(resp) => ctx.send(to, resp),
            Observation::Rejected(resp) => {
                self.retry_cache.store(to, seq, resp.clone());
                ctx.send(to, resp);
            }
        }
    }

    fn enqueue_mutation(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>, op: FsOp, reply: ReplyTo) {
        match r.prefix.exec(op) {
            // A rejected mutation journals nothing but its error *observed*
            // the image (e.g. "already exists" proves a create happened) —
            // it must cross the same barrier as a read, or it leaks
            // speculative state.
            Err(e) => match reply {
                ReplyTo::Client { node, seq } => {
                    let resp = Arc::new(MdsResp::Reply { seq, result: Err(e) });
                    self.send_or_defer_observation(r, ctx, node, seq, Observation::Rejected(resp));
                }
                other => self.reply_now(r, ctx, other, Err(e)),
            },
            Ok((None, _)) => unreachable!("only mutations are enqueued"),
            Ok((Some(txn), output)) => {
                let client = matches!(reply, ReplyTo::Client { .. });
                let xid = self.maybe_xg_fanout(r, ctx, &txn, client);
                self.pending.push(PendingOp { txn, reply, output, xid });
                if self.pending.len() >= BATCH_MAX_OPS {
                    self.flush_batch(r, ctx);
                }
            }
        }
    }

    /// Distributed-transaction fan-out: structural operations in a
    /// multi-group deployment must also run on every other group's active
    /// (their directory skeletons stay in lock-step). Only client-originated
    /// ops coordinate; a leg never fans out again. Returns the xid when legs
    /// were launched.
    fn maybe_xg_fanout(
        &mut self,
        r: &Replica,
        ctx: &mut Ctx<'_>,
        txn: &Txn,
        client_originated: bool,
    ) -> Option<Xid> {
        if !(client_originated && txn.is_structural() && r.cfg.partitioner.groups() > 1) {
            return None;
        }
        // Named by the grant, which the whole group agrees on, and counted
        // within it: whatever a participant remembers of an earlier tenure
        // (`Replica::xg_seen`) cannot be mistaken for this transaction.
        self.xids += 1;
        let epoch = u32::try_from(self.epoch).expect("a lock is granted fewer than 2^32 times");
        let id = (r.cfg.group, epoch, self.xids);
        let mut groups = std::collections::BTreeSet::new();
        for g in 0..r.cfg.partitioner.groups() {
            if g == r.cfg.group {
                continue;
            }
            groups.insert(g);
            if let Some(act) = r.active_of_group(g) {
                ctx.send(act, GroupMsg::XGroupApply { xid: id, txn: txn.clone() });
            }
            // Groups without a known active are retried by the T_XG_RETRY
            // timer until they recover.
        }
        if groups.is_empty() {
            return None;
        }
        self.xg_outstanding.insert(id, XgOutstanding { txn: txn.clone(), groups, sn: None });
        Some(id)
    }

    fn reply_now(
        &mut self,
        r: &mut Replica,
        ctx: &mut Ctx<'_>,
        reply: ReplyTo,
        result: Result<OpOutput, NsError>,
    ) {
        match reply {
            ReplyTo::Client { node, seq } => {
                let resp = Arc::new(MdsResp::Reply { seq, result });
                self.retry_cache.store(node, seq, resp.clone());
                ctx.send(node, resp);
            }
            ReplyTo::XGroup { coordinator: to, xid } => ack_leg(r, ctx, to, xid, result.is_ok()),
        }
    }

    // --------------------------------------------------------------- flush

    /// Seal the pending mutations into the next batch of our prefix, append
    /// it to the SSP, and synchronize it to the standbys. Replies are
    /// released when the SSP and every current standby have acknowledged.
    pub(crate) fn flush_batch(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let ops = std::mem::take(&mut self.pending);
        let sn = r.prefix.tail_sn() + 1;
        let mut records = Vec::with_capacity(ops.len());
        let mut acks = Vec::with_capacity(ops.len());
        let mut inflight = Inflight { flushed_at: ctx.now(), ..Default::default() };
        for (i, op) in ops.into_iter().enumerate() {
            // The legs may have settled already (fast acks); only xids
            // still outstanding hold this batch's client replies.
            if let Some(o) = op.xid.and_then(|xid| self.xg_outstanding.get_mut(&xid)) {
                o.sn = Some(sn);
            }
            match op.reply {
                // Distributed-transaction legs carry no ack record — their
                // client binding lives in the coordinating group's journal.
                ReplyTo::XGroup { coordinator: to, xid } => inflight.xg_replies.push((to, xid)),
                ReplyTo::Client { node: client, seq } => {
                    acks.push(AckRecord { record: i as u32, client, seq, spec: false });
                    inflight.client_replies.push(ClientReply {
                        reply: op.reply,
                        output: op.output,
                        buckets: release_buckets(&op.txn),
                    });
                }
            }
            records.push(op.txn);
        }
        let batch = r.prefix.seal(records, acks);

        let epoch = self.epoch;
        for (s, _) in self.voters() {
            ctx.send(s, GroupMsg::SyncJournal { epoch, batch: batch.share() });
        }
        self.append_to_pool(r, ctx, batch, inflight);
    }

    /// Offer a batch of our log to the SSP and hold `inflight` until the
    /// append (and whatever else it waits on) is acknowledged.
    pub(crate) fn append_to_pool(
        &mut self,
        r: &mut Replica,
        ctx: &mut Ctx<'_>,
        batch: SharedBatch,
        mut inflight: Inflight,
    ) {
        let (group, epoch) = (r.cfg.group, self.epoch);
        let req = r.next_req();
        inflight.pool_req = Some(req);
        self.inflight.insert(batch.sn, inflight);
        r.pool_deliver(ctx, PoolReq::AppendJournal { group, epoch, batch, req });
    }

    /// Release replies: leg acks as soon as their batch is durable (any
    /// order); client replies when their batch is fully complete, released
    /// **out of order** across batches subject to per-bucket FIFO.
    ///
    /// Safety: the pool's journal rejects gaps, so an `AppendOk` for batch
    /// `sn` proves every batch ≤ `sn` is durable in the SSP, and standby
    /// acks are cumulative — a *complete* batch is never durable ahead of
    /// its predecessors in reality, only ahead of their bookkeeping
    /// (a lost pool ack) or their distributed-transaction legs. What the
    /// ascending walk preserves is the client-visible contract: replies
    /// touching the same release bucket (same parent-directory region) release
    /// in batch order, while creates/deletes/renames in disjoint buckets
    /// stop serializing behind each other's legs and stragglers.
    pub(crate) fn try_complete(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Tenure { inflight, members, xg_outstanding, .. } = self;
        // Locally durable: in the SSP and on every member that votes on it.
        let durable = |sn: Sn, inf: &Inflight| inf.pool_req.is_none() && voted(members, sn);
        let mut leg_acks = Vec::new();
        for (&sn, inf) in inflight.iter_mut() {
            if !inf.xg_replies.is_empty() && durable(sn, inf) {
                leg_acks.append(&mut inf.xg_replies);
            }
        }
        // Complete: durable, and none of its own legs is still out.
        let (released, drained, ooo) = release_walk(inflight, |sn, inf| {
            durable(sn, inf) && !xg_outstanding.values().any(|o| o.sn == Some(sn))
        });
        for (coordinator, xid) in leg_acks {
            ack_leg(r, ctx, coordinator, xid, true);
        }
        if ooo > 0 {
            ctx.trace(|| MdsTrace::OooRelease { replies: ooo });
        }
        for sn in drained {
            if let Some(inf) = self.inflight.remove(&sn) {
                // Group-commit ack latency (seal → fully released) feeds
                // the adaptive flush controller.
                r.commit.observe_ack(now.since(inf.flushed_at));
            }
        }
        for (reply, output) in released {
            self.reply_now(r, ctx, reply, Ok(output));
        }
        // Release barriered reads whose observed mutations are all durable:
        // the barrier batch must have been sealed (sn on the log) and every
        // inflight entry at or below it completed. They leave in the order
        // they were held, and the vector keeps its allocation.
        if !self.deferred_reads.is_empty() {
            let frontier = self.inflight.keys().next().copied().unwrap_or(Sn::MAX);
            let tail = r.prefix.tail_sn();
            let mut held = std::mem::take(&mut self.deferred_reads);
            for (_, node, seq, resp) in held.extract_if(.., |d| d.0 <= tail && d.0 < frontier) {
                self.release_observation(ctx, node, seq, resp);
            }
            self.deferred_reads = held;
        }
    }

    // ------------------------------------------------------------- members

    /// The sync set: the members every batch is sent to and waits for.
    pub(crate) fn voters(&self) -> impl Iterator<Item = (NodeId, &MemberPos)> {
        self.members.iter().filter(|(_, pos)| pos.votes_from.is_some()).map(|(&n, pos)| (n, pos))
    }

    /// A member acknowledged everything up to `sn`. Acks are cumulative, so
    /// one the network reordered says nothing new; one from a member that
    /// is gone says nothing at all.
    pub(crate) fn on_sync_ack(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>, from: NodeId, sn: Sn) {
        let Some(pos) = self.members.get_mut(&from) else { return };
        pos.acked = pos.acked.max(sn);
        self.try_complete(r, ctx);
        if sn == r.prefix.tail_sn() && self.renew_driver.as_ref().is_some_and(|d| d.junior == from)
        {
            self.promote_junior(r, ctx, from);
        }
    }

    /// A member's state key vanished: it died, stop waiting for its acks.
    pub(crate) fn on_member_gone(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>, node: NodeId) {
        self.members.remove(&node);
        if self.renew_driver.as_ref().is_some_and(|d| d.junior == node) {
            self.renew_driver = None;
        }
        self.try_complete(r, ctx);
    }

    // ------------------------------------------------- distributed txns

    /// Coordinator: a leg completed.
    pub(crate) fn on_xgroup_ack(
        &mut self,
        r: &mut Replica,
        ctx: &mut Ctx<'_>,
        xid: Xid,
        group: u32,
        ok: bool,
    ) {
        if !ok {
            // A rejected leg (e.g. the skeleton already had the entry from a
            // previous coordinator's half-finished transaction) still counts
            // as settled: the directory skeleton is consistent either way.
            ctx.trace(|| MdsTrace::LegFailed { xid, group });
        }
        let Some(o) = self.xg_outstanding.get_mut(&xid) else { return };
        o.groups.remove(&group);
        if !o.groups.is_empty() {
            return;
        }
        // Sealed already: its batch's client replies waited on this.
        if self.xg_outstanding.remove(&xid).expect("found above").sn.is_some() {
            self.try_complete(r, ctx);
        }
    }

    /// Retransmit SSP appends whose acknowledgement has not arrived (the
    /// pool deduplicates by sn, so this is safe under any message loss).
    /// Also re-push to every standby that has not caught up the whole range
    /// it has not acknowledged — only the active can know that the *last*
    /// batch was lost, cumulative acks make the refresh idempotent, and the
    /// range is always in our log (see `on_pool_reply`).
    pub(crate) fn retry_pool_appends(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>) {
        let epoch = self.epoch;
        let group = r.cfg.group;
        for (&sn, inf) in &self.inflight {
            // The same request again, not a new one (see
            // `Inflight::pool_req`). `share` ends the log borrow, so the
            // retained handle moves into the request without copying.
            let held = r.prefix.log().get(sn).map(SharedBatch::share);
            if let (Some(req), Some(batch)) = (inf.pool_req, held) {
                r.pool_deliver(ctx, PoolReq::AppendJournal { group, epoch, batch, req });
            }
        }
        let tail = r.prefix.tail_sn();
        for (member, pos) in self.voters().filter(|(_, pos)| pos.acked < tail) {
            for b in r.prefix.log().read_after(pos.acked).unwrap_or_default() {
                ctx.send(member, GroupMsg::SyncJournal { epoch, batch: b.share() });
            }
        }
    }

    /// Resend unacked distributed-transaction legs to the current actives
    /// of their groups.
    pub(crate) fn retry_xg_legs(&mut self, r: &Replica, ctx: &mut Ctx<'_>) {
        for (&xid, o) in &self.xg_outstanding {
            for act in o.groups.iter().filter_map(|&g| r.active_of_group(g)) {
                ctx.send(act, GroupMsg::XGroupApply { xid, txn: o.txn.clone() });
            }
        }
    }

    // ---------------------------------------------------------- checkpoint

    /// Write a namespace image to the SSP: it starts a fresh chain and
    /// compacts the shared journal.
    pub(crate) fn start_checkpoint(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>) {
        // Encoded straight from the slot table at a pinned epoch: no second copy
        // of the namespace is built, and the pin is gone again before the
        // next mutation, so none pays for history. The retry window rides
        // inside the image so a junior restored from it inherits the
        // duplicate-suppression state as of this sn.
        let image = r.prefix.encode_image();
        let group = r.cfg.group;
        let epoch = self.epoch;
        let (sn, bytes) = (image.checkpoint_sn, image.size_bytes());
        ctx.trace(|| MdsTrace::CheckpointStarted { sn, bytes });
        // A full image restarts the manifest chain, so it supersedes any
        // artifact write still unanswered: that reply may have been lost,
        // and whatever it said, this image's reply replaces it.
        let req = r.next_req();
        let chain = Chain { end_sn: sn, deltas: 0, delta_bytes: 0, base_bytes: bytes };
        self.artifact = Some((req, chain));
        r.pool_deliver(ctx, PoolReq::WriteImage { group, epoch, image, req });
    }

    /// Incremental checkpoint: fold the journal range since the last
    /// checkpoint artifact into a delta image and append it to the pool's
    /// manifest chain. Cost is proportional to churn in the window, not to
    /// namespace size — which is why it can run at a much faster cadence
    /// than `start_checkpoint` and keep junior recovery time flat. A chain
    /// grown past `MAX_CHAIN_DELTAS`, or whose deltas outweigh its base, is
    /// not extended: the tick writes a full image instead, so a reader never
    /// streams more than that to catch up.
    pub(crate) fn start_delta(&mut self, r: &mut Replica, ctx: &mut Ctx<'_>) {
        let Some(chain) = self.chain else {
            // Nothing to chain onto yet: establish the chain with a full
            // image (unless one is already in flight).
            if self.artifact.is_none() {
                self.start_checkpoint(r, ctx);
            }
            return;
        };
        let (anchor, end) = (chain.end_sn, r.prefix.tail_sn());
        if end <= anchor {
            return; // no churn since the last artifact
        }
        if self.artifact.is_some() {
            // One artifact write at a time keeps the chain ordered; a delta
            // folded while a full image is in flight would chain onto an
            // anchor the image is about to supersede.
            return;
        }
        if chain.deltas > MAX_CHAIN_DELTAS
            || chain.delta_bytes > chain.base_bytes.max(CHAIN_BYTES_FLOOR)
        {
            self.start_checkpoint(r, ctx);
            return;
        }
        let Some(delta) = r.prefix.fold_delta(anchor) else {
            // Local log compacted past the anchor (a concurrent full
            // checkpoint landed): re-anchor with a fresh image.
            self.chain = None;
            self.start_checkpoint(r, ctx);
            return;
        };
        ctx.trace(|| MdsTrace::DeltaStarted {
            anchor,
            end,
            entries: delta.entries,
            bytes: delta.size_bytes(),
        });
        let group = r.cfg.group;
        let epoch = self.epoch;
        let req = r.next_req();
        let grown = Chain {
            end_sn: end,
            deltas: chain.deltas + 1,
            delta_bytes: chain.delta_bytes + delta.size_bytes(),
            ..chain
        };
        self.artifact = Some((req, grown));
        r.pool_deliver(ctx, PoolReq::WriteDelta { group, epoch, delta, req });
    }

    // ------------------------------------------------------ pool responses

    /// A pool reply is the artifact write's, or the append's of the one
    /// batch whose `pool_req` names it; one that names neither is late (its
    /// request was answered or superseded) and is ignored. `true`: an append
    /// was refused at a newer fence — we have been deposed, and the caller
    /// ends the tenure.
    #[must_use]
    pub(crate) fn on_pool_reply(
        &mut self,
        r: &mut Replica,
        ctx: &mut Ctx<'_>,
        resp: PoolResp,
    ) -> bool {
        let req = resp.req_id();
        if let Some((_, chain)) = self.artifact.take_if(|(awaited, _)| *awaited == req) {
            match resp {
                PoolResp::ImageWritten { checkpoint_sn, .. } => {
                    // Our log is what a lagging standby is repaired from and
                    // an unacknowledged append is resent from: keep whatever
                    // some standby, or the pool, has not acknowledged.
                    let by_standbys = self.voters().map(|(_, pos)| pos.acked).min();
                    let unappended = self.inflight.iter().find(|(_, inf)| inf.pool_req.is_some());
                    let by_pool = unappended.map(|(&sn, _)| sn - 1);
                    let held = by_standbys.into_iter().chain(by_pool).min().unwrap_or(Sn::MAX);
                    r.prefix.compact_log(checkpoint_sn.min(held));
                    // The new base starts a fresh manifest chain; deltas
                    // fold from here on.
                    self.chain = Some(chain);
                    ctx.trace(|| MdsTrace::CheckpointDone { sn: checkpoint_sn });
                }
                PoolResp::DeltaWritten { end_sn, .. } => {
                    self.chain = Some(chain);
                    ctx.trace(|| MdsTrace::DeltaDone { sn: end_sn });
                }
                PoolResp::Failed { error: PoolError::DeltaChain { .. }, .. } => {
                    // The pool's chain moved under us (another writer's
                    // checkpoint, a lost ack): our anchor is stale. Restart
                    // the chain with a full image.
                    ctx.trace(|| MdsTrace::DeltaRechain);
                    self.chain = None;
                    self.start_checkpoint(r, ctx);
                }
                // Refused — fenced, or ahead of the pool's journal because
                // an append it covers has not landed: the chain stays as it
                // was, and the next tick tries again.
                _ if chain.deltas == 0 => {}
                other => ctx.trace(|| MdsTrace::DeltaFailed(other)),
            }
            return false;
        }
        let Some((&sn, inf)) = self.inflight.iter_mut().find(|(_, inf)| inf.pool_req == Some(req))
        else {
            return false;
        };
        match resp {
            PoolResp::AppendOk { .. } => {
                inf.pool_req = None;
                self.try_complete(r, ctx);
            }
            PoolResp::Failed { error: PoolError::Fenced { .. }, .. } => {
                // IO fencing in action.
                ctx.trace(|| MdsTrace::AppendFenced { sn });
                return true;
            }
            // The batch keeps its request: `retry_pool_appends` sends it
            // again, and whichever reply comes next is matched the same way.
            other => ctx.trace(|| MdsTrace::AppendFailed(other)),
        }
        false
    }
}

/// Batch `sn` has the vote of every member that votes on it: acks are
/// cumulative, so "has `m` voted for `sn`" is `m.acked ≥ sn`, and `m` votes
/// on `sn` when it joined the sync set before `sn` was sealed.
pub(crate) fn voted(members: &std::collections::BTreeMap<NodeId, MemberPos>, sn: Sn) -> bool {
    members.values().all(|m| m.acked >= sn || m.votes_from.is_none_or(|from| sn < from))
}

impl Replica {
    /// Participant: admit a structural transaction leg from another group's
    /// active. Legs go through the same ingress queue as client operations:
    /// synchronizing the directory skeleton consumes real capacity on every
    /// group, which is why the paper's distributed transactions do not
    /// scale with the number of actives. (Only an active is handed one: a
    /// coordinator's resend finds our group's active once it has one.)
    pub(crate) fn admit_leg(&mut self, ctx: &mut Ctx<'_>, from: NodeId, xid: Xid, txn: Txn) {
        match self.xg_seen.get(&xid) {
            // Already acknowledged (the ack may have been lost): re-ack.
            Some(&Some(ok)) => {
                ctx.send(from, GroupMsg::XGroupAck { xid, group: self.cfg.group, ok });
                return;
            }
            // Still in flight: the coordinator's retry timer resends every
            // outstanding leg whatever its age. Acknowledging here would
            // release the client's reply before the leg is durable in this
            // group; its own ack goes out when it is.
            Some(None) => return,
            None => {}
        }
        let op = match txn {
            Txn::Mkdir { path } => FsOp::Mkdir { path },
            Txn::Delete { path, recursive } => FsOp::Delete { path, recursive },
            Txn::Rename { src, dst } => FsOp::Rename { src, dst },
            other => {
                debug_assert!(false, "non-structural xgroup txn {other:?}");
                return;
            }
        };
        // A leg refused by a full queue leaves no entry: the coordinator's
        // retry must run it, not be told it already ran.
        if self.ingress.push_item(IngressItem::Leg { coordinator: from, xid, op }) {
            self.xg_seen.insert(xid, None);
        }
    }
}

/// Reply-release buckets: a held reply holds the later replies of its
/// buckets, a bit each in [`ClientReply::buckets`].
const RELEASE_BUCKETS: u64 = 16;

/// The release bucket of an op on `p`: its parent directory's FNV-1a hash,
/// so that ops under one directory share a bucket.
fn release_bucket(p: &str) -> u64 {
    let dir = path::parent(p).unwrap_or("/");
    fnv1a64(dir.as_bytes()) & (RELEASE_BUCKETS - 1)
}

/// The buckets a journaled transaction touched, a bit each (a rename spans
/// its source and destination parents). Client replies release in
/// per-bucket FIFO order, so ops whose bucket sets are disjoint ack
/// independently.
fn release_buckets(txn: &Txn) -> u16 {
    match txn {
        Txn::Rename { src, dst } => (1 << release_bucket(src)) | (1 << release_bucket(dst)),
        other => 1 << release_bucket(other.primary_path()),
    }
}

/// Tell a leg's coordinator whether it applied, and remember it for resends.
fn ack_leg(r: &mut Replica, ctx: &mut Ctx<'_>, coordinator: NodeId, xid: Xid, ok: bool) {
    r.xg_seen.insert(xid, Some(ok));
    ctx.send(coordinator, GroupMsg::XGroupAck { xid, group: r.cfg.group, ok });
}

/// A held reply ready to go out: only a success waits (see `enqueue_mutation`).
pub(crate) type ReadyReply = (ReplyTo, OpOutput);

/// The ascending release walk over the inflight window (the out-of-order
/// ack core, see `try_complete`), `complete` saying which batches wait for
/// nothing any more: a *complete* batch releases its client
/// replies unless an earlier still-held reply shares one of their release
/// buckets; an *incomplete* batch blocks every bucket its replies touch.
/// Returns the replies to send, in release order, the sns whose reply lists
/// fully drained, and how many replies released *past* an earlier
/// still-incomplete batch (the out-of-order count, for observability).
///
/// Kept as a free function over the window so the ordering contract —
/// same-directory ops never reorder, disjoint directories may — is pinned
/// by unit tests without standing up a cluster.
pub(crate) fn release_walk(
    inflight: &mut std::collections::BTreeMap<Sn, Inflight>,
    complete: impl Fn(Sn, &Inflight) -> bool,
) -> (Vec<ReadyReply>, Vec<Sn>, u64) {
    // The buckets some held reply touches.
    let mut blocked = 0u16;
    let mut released: Vec<ReadyReply> = Vec::new();
    let mut drained: Vec<Sn> = Vec::new();
    let mut held = false;
    let mut ooo = 0u64;
    for (&sn, inf) in inflight.iter_mut() {
        if complete(sn, inf) {
            let mut kept = Vec::new();
            for cr in inf.client_replies.drain(..) {
                if cr.buckets & blocked != 0 {
                    // An earlier reply in this bucket is still held: keep
                    // FIFO within the bucket, and hold everything behind
                    // this reply's buckets too.
                    blocked |= cr.buckets;
                    kept.push(cr);
                } else {
                    if held {
                        ooo += 1;
                    }
                    released.push((cr.reply, cr.output));
                }
            }
            if !kept.is_empty() {
                held = true;
            }
            inf.client_replies = kept;
            if inf.client_replies.is_empty() {
                drained.push(sn);
            }
        } else {
            held = true;
            for cr in &inf.client_replies {
                blocked |= cr.buckets;
            }
        }
    }
    (released, drained, ooo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InitialRole, MdsConfig};
    use crate::server::{MdsServer, RenewDriver, RoleState};
    use mams_namespace::Partitioner;
    use mams_sim::{DetRng, LatencyModel, Message, Node, Sim, SimConfig, SimTime};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Arc, Mutex};

    fn reply(seq: u64, buckets: &[u64]) -> ClientReply {
        ClientReply {
            reply: ReplyTo::Client { node: 1, seq },
            output: OpOutput::Done,
            buckets: buckets.iter().fold(0, |set, b| set | 1 << b),
        }
    }

    fn complete(replies: Vec<ClientReply>) -> Inflight {
        Inflight { client_replies: replies, ..Default::default() }
    }

    fn incomplete(replies: Vec<ClientReply>) -> Inflight {
        Inflight { pool_req: Some(0), client_replies: replies, ..Default::default() }
    }

    /// Completeness as these tests model it: the append was acknowledged.
    fn appended(_: Sn, inf: &Inflight) -> bool {
        inf.pool_req.is_none()
    }

    fn seqs(released: &[ReadyReply]) -> Vec<u64> {
        released
            .iter()
            .map(|(r, _)| match r {
                ReplyTo::Client { seq, .. } => *seq,
                other => panic!("unexpected reply target {other:?}"),
            })
            .collect()
    }

    /// Same release bucket = same parent directory: a later batch's reply
    /// must never overtake an earlier incomplete batch in that bucket, while
    /// a disjoint-bucket reply in the same later batch releases immediately.
    #[test]
    fn same_bucket_replies_hold_behind_an_incomplete_batch() {
        let mut w = BTreeMap::new();
        w.insert(1, incomplete(vec![reply(1, &[3])]));
        w.insert(2, complete(vec![reply(2, &[3]), reply(3, &[7])]));
        let (released, drained, ooo) = release_walk(&mut w, appended);
        assert_eq!(seqs(&released), vec![3], "disjoint bucket releases out of order");
        assert_eq!(ooo, 1, "that release overtook the incomplete sn 1");
        assert!(drained.is_empty(), "sn 2 still holds the blocked reply");
        assert_eq!(w[&2].client_replies.len(), 1, "same-bucket reply stays held");

        // Once sn 1 turns durable, both release — in batch (txid) order.
        w.get_mut(&1).unwrap().pool_req = None;
        let (released, drained, ooo) = release_walk(&mut w, appended);
        assert_eq!(seqs(&released), vec![1, 2], "per-bucket FIFO preserved");
        assert_eq!(ooo, 0, "nothing overtaken once the window is complete");
        assert_eq!(drained, vec![1, 2]);
    }

    /// Blocking is transitive through bucket *sets*: a held rename spanning
    /// two parents extends the block to its second parent, so a later op
    /// under that parent cannot slip past the rename.
    #[test]
    fn a_held_rename_blocks_both_of_its_parents() {
        let mut w = BTreeMap::new();
        w.insert(1, incomplete(vec![reply(1, &[0])]));
        w.insert(2, complete(vec![reply(2, &[1, 0])])); // rename /b/x -> /a/y
        w.insert(3, complete(vec![reply(3, &[1])]));
        let (released, drained, _) = release_walk(&mut w, appended);
        assert!(released.is_empty(), "rename held on bucket 0 must also hold bucket 1");
        assert!(drained.is_empty());
    }

    /// Batches whose bucket sets are fully disjoint from everything earlier
    /// ack independently, whatever the completion order was.
    #[test]
    fn disjoint_directories_release_independently() {
        let mut w = BTreeMap::new();
        w.insert(1, incomplete(vec![reply(1, &[0]), reply(2, &[4])]));
        w.insert(2, complete(vec![reply(3, &[2])]));
        w.insert(3, complete(vec![reply(4, &[5]), reply(5, &[4])]));
        let (released, _, ooo) = release_walk(&mut w, appended);
        assert_eq!(seqs(&released), vec![3, 4], "only bucket-4 reply waits for sn 1");
        assert_eq!(ooo, 2, "both releases overtook the incomplete sn 1");
        assert_eq!(w[&3].client_replies.len(), 1);
    }

    /// Buckets group by parent directory — two files in one directory share
    /// a release bucket, which is what makes the walk's per-bucket FIFO mean
    /// "same-directory ops never reorder" — and a rename touches both of its
    /// parents' buckets.
    #[test]
    fn same_directory_ops_share_a_release_bucket() {
        assert_eq!(release_bucket("/jobs/out/part-0"), release_bucket("/jobs/out/part-1"));
        let t1 = Txn::Create { path: "/jobs/out/part-0".into(), replication: 3 };
        let t2 = Txn::Create { path: "/jobs/out/part-1".into(), replication: 3 };
        assert_eq!(release_buckets(&t1), release_buckets(&t2));
        assert_eq!(release_buckets(&t1).count_ones(), 1);
        let rename = Txn::Rename { src: "/w/d0/f1".into(), dst: "/w/d1/f1".into() };
        assert_eq!(release_buckets(&rename), 1 << 8 | 1 << 11);
    }

    /// The buckets are the ones these paths had when the namespace's
    /// sixteen shards picked them, so the drain serves, and replies release,
    /// in the order they always have.
    #[test]
    fn paths_keep_the_buckets_they_always_had() {
        let recorded = [
            ("/", 14),
            ("/a", 14),
            ("/jobs/out/part-0", 13),
            ("/w/d0/f1", 8),
            ("/w/d1/f1", 11),
            ("/w/d17/r3", 4),
            ("/bench/dir7/file123", 13),
            ("/x/y/z", 10),
        ];
        for (p, bucket) in recorded {
            assert_eq!(release_bucket(p), bucket, "{p}");
        }
    }

    // ---------------------------------------------------------------------
    // The tenure's bookkeeping against a reference that keeps, per sealed
    // batch, the set of members and the set of legs it still waits for.

    /// What leaves the active for a client or another group's coordinator.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Out {
        Reply(u64),
        LegAck(Xid),
    }

    /// Who a served mutation answers: a client (coordinating legs on groups
    /// 1 and 2 under `xid` when set), or another group's coordinator.
    #[derive(Debug, Clone, Copy)]
    enum Target {
        Client { seq: u64, xid: Option<Xid> },
        Leg { xid: Xid },
    }

    /// One thing that happens to a tenure.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// A served create under `/d<dir>` waits in `pending`.
        Enqueue {
            dir: u8,
            reply: Target,
        },
        Seal,
        SyncAck {
            from: NodeId,
            sn: Sn,
        },
        /// The pool answers batch `sn`'s append.
        PoolReply {
            sn: Sn,
            ok: bool,
        },
        LegAck {
            xid: Xid,
            group: u32,
        },
        Register {
            from: NodeId,
            sn: Sn,
        },
        /// A junior registers at `sn`, behind the tail but close enough
        /// to enter the final stage of its renewing at its first report.
        FinalStage {
            from: NodeId,
            sn: Sn,
        },
        Gone {
            node: NodeId,
        },
    }

    /// Node ids of the rig's world: sinks first, the active last.
    const CLIENT: NodeId = 0;
    const MEMBERS: std::ops::RangeInclusive<NodeId> = 1..=4;
    const COORDINATOR: NodeId = 5;
    const ACTIVE: NodeId = 6;

    fn path(dir: u8) -> String {
        format!("/d{dir}/f")
    }

    /// An active's tenure on a bare replica, driven through its handlers.
    struct Rig {
        s: MdsServer,
        script: Vec<Step>,
    }

    impl Rig {
        fn apply(&mut self, ctx: &mut Ctx<'_>, step: Step) {
            let (t, r) = self.s.active().expect("the rig is an active");
            match step {
                Step::Enqueue { dir, reply } => {
                    let txn = Txn::Create { path: path(dir), replication: 3 };
                    let (reply, xid) = match reply {
                        Target::Client { seq, xid } => (ReplyTo::Client { node: CLIENT, seq }, xid),
                        Target::Leg { xid } => {
                            (ReplyTo::XGroup { coordinator: COORDINATOR, xid }, None)
                        }
                    };
                    if let Some(xid) = xid {
                        let legs =
                            XgOutstanding { txn: txn.clone(), groups: [1, 2].into(), sn: None };
                        t.xg_outstanding.insert(xid, legs);
                    }
                    t.pending.push(PendingOp { txn, reply, output: OpOutput::Done, xid });
                }
                Step::Seal => t.flush_batch(r, ctx),
                Step::SyncAck { from, sn } => t.on_sync_ack(r, ctx, from, sn),
                Step::PoolReply { sn, ok } => {
                    let Some(req) = t.inflight.get(&sn).and_then(|inf| inf.pool_req) else {
                        return;
                    };
                    let resp = if ok {
                        PoolResp::AppendOk { group: 0, sn, duplicate: false, req }
                    } else {
                        PoolResp::Failed { group: 0, error: PoolError::Journal("gap".into()), req }
                    };
                    assert!(!t.on_pool_reply(r, ctx, resp), "nothing fences the rig");
                }
                Step::LegAck { xid, group } => t.on_xgroup_ack(r, ctx, xid, group, true),
                Step::Register { from, sn } => t.on_register(r, ctx, from, sn),
                Step::FinalStage { from, sn } => {
                    t.on_register(r, ctx, from, sn);
                    t.renew_driver = Some(RenewDriver { junior: from, stale_scans: 0 });
                    t.on_renew_progress(r, ctx, from, sn);
                }
                Step::Gone { node } => t.on_member_gone(r, ctx, node),
            }
        }
    }

    impl Node for Rig {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // One callback, one instant: with a jitter-free network, what
            // is sent in order is delivered in order.
            for step in std::mem::take(&mut self.script) {
                self.apply(ctx, step);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
    }

    /// Everyone the active talks to: records replies and leg acks in
    /// arrival order, drops the rest (syncs, appends, verdicts).
    struct Sink(Arc<Mutex<Vec<Out>>>);

    impl Node for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, msg: Message) {
            let out = match MdsResp::from_message(msg) {
                Ok(MdsResp::Reply { seq, .. }) => Out::Reply(seq),
                Ok(_) => return,
                Err(msg) => match msg.downcast::<GroupMsg>() {
                    Ok(GroupMsg::XGroupAck { xid, .. }) => Out::LegAck(xid),
                    _ => return,
                },
            };
            self.0.lock().unwrap().push(out);
        }
    }

    /// Run `script` through a fresh tenure; what left it, in order.
    fn run(script: Vec<Step>) -> Vec<Out> {
        let latency = LatencyModel { jitter: Duration::ZERO, ..LatencyModel::lan() };
        let mut sim = Sim::new(SimConfig { seed: 1, trace: false, latency });
        let seen = Arc::new(Mutex::new(Vec::new()));
        for id in CLIENT..=COORDINATOR {
            sim.add_node(format!("sink{id}"), Box::new(Sink(seen.clone())));
        }
        let mut s = MdsServer::new(MdsConfig {
            group: 0,
            members: MEMBERS.chain([ACTIVE]).collect(),
            coord: CLIENT,
            pool: vec![CLIENT],
            partitioner: Partitioner::new(1),
            initial_role: InitialRole::Standby,
            timing: Default::default(),
        });
        s.role = RoleState::Active(Box::new(Tenure::new(1, s.r.prefix.window())));
        assert_eq!(sim.add_node("active", Box::new(Rig { s, script })), ACTIVE);
        sim.run_until(SimTime(1_000_000));
        let seen = seen.lock().unwrap().clone();
        seen
    }

    /// What a sealed batch waits for, kept the way the tenure used to: a
    /// copy of the sync set taken at the seal and the xids still out, each
    /// ticked down by hand.
    #[derive(Default)]
    struct Waits {
        appended: bool,
        members: BTreeSet<NodeId>,
        legs: BTreeSet<Xid>,
    }

    #[derive(Default)]
    struct Reference {
        tail: Sn,
        pending: Vec<(u8, Target)>,
        window: BTreeMap<Sn, Inflight>,
        waits: BTreeMap<Sn, Waits>,
        standbys: BTreeSet<NodeId>,
        acked: BTreeMap<NodeId, Sn>,
        /// Groups yet to acknowledge, and the batch the op was sealed in.
        legs: BTreeMap<Xid, (BTreeSet<u32>, Option<Sn>)>,
        out: Vec<Out>,
    }

    impl Reference {
        fn apply(&mut self, step: Step) {
            match step {
                Step::Enqueue { dir, reply } => {
                    if let Target::Client { xid: Some(xid), .. } = reply {
                        self.legs.insert(xid, ([1, 2].into(), None));
                    }
                    self.pending.push((dir, reply));
                }
                Step::Seal if self.pending.is_empty() => {}
                Step::Seal => {
                    self.tail += 1;
                    let mut inf = Inflight::default();
                    let mut waits = Waits { members: self.standbys.clone(), ..Waits::default() };
                    for (dir, target) in self.pending.drain(..) {
                        match target {
                            Target::Leg { xid } => {
                                inf.xg_replies.push((COORDINATOR, xid));
                            }
                            Target::Client { seq, xid } => {
                                // Only legs still out hold the replies.
                                if let Some((xid, leg)) =
                                    xid.and_then(|x| Some((x, self.legs.get_mut(&x)?)))
                                {
                                    waits.legs.insert(xid);
                                    leg.1 = Some(self.tail);
                                }
                                inf.client_replies.push(reply(seq, &[release_bucket(&path(dir))]));
                            }
                        }
                    }
                    self.window.insert(self.tail, inf);
                    self.waits.insert(self.tail, waits);
                }
                Step::SyncAck { from, sn } => {
                    self.acked.insert(from, sn);
                    for (_, w) in self.waits.range_mut(..=sn) {
                        w.members.remove(&from);
                    }
                }
                Step::PoolReply { sn, ok } => self.waits.get_mut(&sn).unwrap().appended |= ok,
                Step::LegAck { xid, group } => {
                    let Some((groups, sn)) = self.legs.get_mut(&xid) else { return };
                    groups.remove(&group);
                    if groups.is_empty() {
                        if let Some(w) = sn.and_then(|sn| self.waits.get_mut(&sn)) {
                            w.legs.remove(&xid);
                        }
                        self.legs.remove(&xid);
                    }
                }
                Step::Register { from, sn } => {
                    self.acked.insert(from, sn);
                    if sn == self.tail {
                        self.standbys.insert(from);
                    }
                }
                Step::FinalStage { from, sn } => {
                    self.acked.insert(from, sn);
                    self.standbys.insert(from);
                }
                Step::Gone { node } => {
                    self.standbys.remove(&node);
                    self.acked.remove(&node);
                    for w in self.waits.values_mut() {
                        w.members.remove(&node);
                    }
                }
            }
            // `try_complete`, over the copies.
            let waits = &self.waits;
            let durable = |sn: Sn| waits[&sn].appended && waits[&sn].members.is_empty();
            for (&sn, inf) in self.window.iter_mut() {
                if durable(sn) {
                    self.out.extend(inf.xg_replies.drain(..).map(|(_, xid)| Out::LegAck(xid)));
                }
            }
            let complete = |sn: Sn, _: &Inflight| durable(sn) && waits[&sn].legs.is_empty();
            let (released, drained, _) = release_walk(&mut self.window, complete);
            self.out.extend(seqs(&released).into_iter().map(Out::Reply));
            for sn in drained {
                self.window.remove(&sn);
                self.waits.remove(&sn);
            }
        }
    }

    /// A random walk over what can happen to a tenure, drawn from the
    /// reference's state so that every step is one both readings define:
    /// acks in order, members that join as strangers.
    fn random_script(rng: &mut DetRng) -> (Vec<Step>, Vec<Out>) {
        fn pick<T>(rng: &mut DetRng, from: impl Iterator<Item = T>) -> Option<T> {
            let mut all: Vec<T> = from.collect();
            (!all.is_empty()).then(|| all.swap_remove(rng.index(all.len())))
        }
        let mut model = Reference::default();
        let mut script = Vec::new();
        let mut ops = 0;
        for _ in 0..rng.range(20, 120) {
            let tail = model.tail;
            let strangers = MEMBERS.filter(|m| !model.acked.contains_key(m));
            let step = match rng.below(16) {
                0..=3 => {
                    ops += 1;
                    let reply = match rng.below(4) {
                        0 => Target::Leg { xid: (1, 1, ops) },
                        1 => Target::Client { seq: ops, xid: Some((0, 1, ops)) },
                        _ => Target::Client { seq: ops, xid: None },
                    };
                    Some(Step::Enqueue { dir: rng.below(4) as u8, reply })
                }
                4..=5 => Some(Step::Seal),
                6..=8 => {
                    let behind = model.standbys.iter().filter(|m| model.acked[m] < tail);
                    let from = pick(rng, behind.copied());
                    let sn = from.map(|from| rng.range(model.acked[&from], tail) + 1);
                    from.zip(sn).map(|(from, sn)| Step::SyncAck { from, sn })
                }
                9..=10 => {
                    // In any order: a later batch's ack may come first.
                    let unappended = model.waits.iter().filter(|(_, w)| !w.appended);
                    let sn = pick(rng, unappended.map(|(&sn, _)| sn));
                    sn.map(|sn| Step::PoolReply { sn, ok: true })
                }
                11..=12 => {
                    let out = model.legs.iter().flat_map(|(&xid, (groups, _))| {
                        groups.iter().map(move |&group| Step::LegAck { xid, group })
                    });
                    pick(rng, out)
                }
                13 => pick(rng, strangers).map(|from| Step::Register { from, sn: tail }),
                14 if tail > 0 => {
                    pick(rng, strangers).map(|from| Step::FinalStage { from, sn: tail - 1 })
                }
                _ => pick(rng, model.acked.keys().copied()).map(|node| Step::Gone { node }),
            };
            if let Some(step) = step {
                model.apply(step);
                script.push(step);
            }
        }
        (script, model.out)
    }

    /// `PARITY_CASES` scales the case count, as in the other suites.
    fn cases() -> u64 {
        std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    }

    #[test]
    fn derived_votes_release_what_the_per_batch_sets_released() {
        for case in 0..cases() {
            let mut rng = DetRng::seed_from_u64(0x7e9_0000 + case);
            let (script, expected) = random_script(&mut rng);
            assert_eq!(run(script.clone()), expected, "case {case}: {script:#?}");
        }
    }

    /// A member that joins at tail `T` holds no batch up to `T`, and holds
    /// `T + 1` until it acknowledges it.
    #[test]
    fn a_member_joining_at_the_tail_votes_from_the_next_batch_on() {
        let client = |seq| Step::Enqueue { dir: 0, reply: Target::Client { seq, xid: None } };
        let appended = |sn| Step::PoolReply { sn, ok: true };
        let mut script = vec![Step::Register { from: 1, sn: 0 }];
        for seq in 1..=3 {
            script.extend([client(seq), Step::Seal]);
        }
        // Tail 3: member 2 joins, and none of 1..=3 waits for it.
        script.push(Step::Register { from: 2, sn: 3 });
        script.extend([appended(1), appended(2), appended(3), Step::SyncAck { from: 1, sn: 3 }]);
        script.extend([client(4), Step::Seal, appended(4), Step::SyncAck { from: 1, sn: 4 }]);
        let held = run(script.clone());
        assert_eq!(held, [1, 2, 3].map(Out::Reply), "batch 4 waits for the member that joined");
        script.push(Step::SyncAck { from: 2, sn: 4 });
        assert_eq!(run(script), [1, 2, 3, 4].map(Out::Reply));

        for tail in [0, 3, 17] {
            let joined = MemberPos { acked: tail, votes_from: Some(tail + 1) };
            let members = BTreeMap::from([(1, joined)]);
            assert!((0..=tail).all(|sn| voted(&members, sn)), "joined at {tail}");
            assert!(!voted(&members, tail + 1), "joined at {tail}");
        }
    }

    /// Where the derived reading parts from the copies, on purpose.
    #[test]
    fn the_corners_decided_on_purpose() {
        let client = |seq| Step::Enqueue { dir: 0, reply: Target::Client { seq, xid: None } };
        let start = [Step::Register { from: 1, sn: 0 }, client(1), Step::Seal];

        // A reordered ack lowers nothing: acks are cumulative.
        let mut t = start.to_vec();
        t.extend([client(2), Step::Seal]);
        t.extend([Step::SyncAck { from: 1, sn: 2 }, Step::SyncAck { from: 1, sn: 1 }]);
        t.extend([Step::PoolReply { sn: 1, ok: true }, Step::PoolReply { sn: 2, ok: true }]);
        assert_eq!(run(t), [1, 2].map(Out::Reply));

        // A voter that registers again behind the tail lost what it held:
        // it is a junior, and the batch it never acknowledged stops waiting.
        let mut t = start.to_vec();
        t.extend([Step::PoolReply { sn: 1, ok: true }, Step::Register { from: 1, sn: 0 }]);
        assert_eq!(run(t), [Out::Reply(1)]);

        // An append's reply is matched by its batch, so the acknowledgement
        // of a resend counts even right after an error reply.
        let mut t = start.to_vec();
        t.extend([Step::SyncAck { from: 1, sn: 1 }, Step::PoolReply { sn: 1, ok: false }]);
        assert_eq!(run(t.clone()), []);
        t.push(Step::PoolReply { sn: 1, ok: true });
        assert_eq!(run(t), [Out::Reply(1)]);
    }
}
