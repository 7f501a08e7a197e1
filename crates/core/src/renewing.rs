//! The renewing protocol: upgrading juniors back to hot standbys.
//!
//! "During the runtime, the active scans the global view periodically and
//! tries to launch the renewing process when there are juniors. It selects
//! one server with the least gap in namespace state and creates a session
//! for recovery at each time." (Section III-D.)
//!
//! The junior drives its own catch-up against the SSP — image first when
//! the `sn` gap is large (resumable, chunked), then journal pages — and
//! reports progress. When the gap is small the active launches the final
//! synchronization stage: it adds the junior to the live sync set and ships
//! the remaining batches directly; once the junior acknowledges the tail
//! `sn`, the active promotes it and the junior announces itself a standby.
//!
//! That catch-up is the one ladder by which any member reads the pool
//! (manifest → chain → journal → final). Its other user is the elected
//! member inside the switch (`failover.rs`), which enters it once the pool
//! is fenced and becomes the active where a junior would wait for the final
//! stage; which role value holds the `Session` says which of the two is
//! running. No other role pulls: a standby that misses a batch is repaired
//! by the active's re-push (`retry_pool_appends`).

use mams_journal::{SharedBatch, Sn};
use mams_namespace::{ImageError, StreamingImageDecoder};
use mams_sim::{Ctx, NodeId};
use mams_storage::proto::{PoolReq, PoolResp, ReqId};
use mams_storage::{ArtifactId, ArtifactKind, ManifestEntry, PoolError};

use crate::prefix::Prefix;
use crate::proto::GroupMsg;
use crate::server::{
    CatchupStage, MdsServer, Member, RenewDriver, Replica, RoleState, Session, SessionReq, Tenure,
};
use crate::trace::MdsTrace;

/// Journal-sn gap at or below which the renewing protocol enters its final
/// synchronization stage. Must stay below `MdsTiming::renew_image_gap`.
pub(crate) const RENEW_FINAL_GAP: u64 = 8;
/// Batches per journal page read from the pool.
const CATCHUP_PAGE: usize = 64;
/// Journal catch-up pages kept in flight against the pool at once, so
/// network RTT overlaps replay instead of serializing with it.
pub(crate) const CATCHUP_WINDOW: usize = 4;

impl Tenure {
    // ---------------------------------------------------- active side

    /// Periodic scan for juniors needing renewal (one session at a time).
    /// A session that makes no progress for several scans (lost messages,
    /// silently dead junior) is abandoned so another can start.
    pub(crate) fn renew_scan(&mut self, r: &Replica, ctx: &mut Ctx<'_>) {
        if let Some(d) = self.renew_driver.as_mut() {
            d.stale_scans += 1;
            if d.stale_scans > 5 {
                ctx.trace(|| MdsTrace::RenewStalled { junior: d.junior });
                self.renew_driver = None;
            } else {
                return;
            }
        }
        // Registered members currently in junior state, by least gap
        // (highest sn) first.
        let juniors = r.members_in_state("J");
        let candidate = juniors.filter_map(|n| Some((self.members.get(&n)?.acked, n))).max();
        if let Some((sn, junior)) = candidate {
            let tip = r.prefix.tail_sn();
            ctx.trace(|| MdsTrace::RenewStarted { junior, sn, tip });
            self.renew_driver = Some(RenewDriver { junior, stale_scans: 0 });
            ctx.send(junior, GroupMsg::RenewStart { tip_sn: tip });
        }
    }

    /// Junior progress report. When the gap is small, enter the final
    /// synchronization stage.
    pub(crate) fn on_renew_progress(
        &mut self,
        r: &mut Replica,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        sn: Sn,
    ) {
        let Some(driver) = self.renew_driver.as_mut().filter(|d| d.junior == from) else { return };
        // A session's junior registered, and is dropped with its entry.
        let Some(pos) = self.members.get_mut(&from) else { return };
        driver.stale_scans = 0;
        pos.acked = sn;
        let tail = r.prefix.tail_sn();
        if tail.saturating_sub(sn) > RENEW_FINAL_GAP {
            return;
        }
        let Some(missing) = r.prefix.log().read_after(sn) else {
            // The range was compacted from our local log (rare: checkpoint
            // raced the session). Let the junior keep pulling from the
            // pool, voting on nothing: whatever waited for it can go.
            pos.votes_from = None;
            self.try_complete(r, ctx);
            return;
        };
        // Final stage: live-sync from now on + ship the missing range.
        pos.votes_from.get_or_insert(tail + 1);
        if !missing.is_empty() {
            // Shared handles into our log — shipping the range is
            // reference-count bumps, not a copy of the records.
            let batches: Vec<SharedBatch> = missing.iter().map(SharedBatch::share).collect();
            ctx.trace(|| MdsTrace::FinalSync { junior: from, batches: batches.len(), tail });
            ctx.send(from, GroupMsg::RenewJournal { epoch: self.epoch, batches });
        } else if sn == tail {
            // Already at the tail; promote on its next ack (or now).
            self.promote_junior(r, ctx, from);
        }
    }

    /// A renewing junior acknowledged our tail (or reported in at it): it is
    /// fully synchronized — flip it to standby in the view.
    pub(crate) fn promote_junior(&mut self, r: &Replica, ctx: &mut Ctx<'_>, junior: NodeId) {
        ctx.trace(|| MdsTrace::JuniorPromoted { junior });
        self.renew_driver = None;
        let tail_sn = r.prefix.tail_sn();
        if let Some(pos) = self.members.get_mut(&junior) {
            pos.votes_from.get_or_insert(tail_sn + 1);
        }
        ctx.send(junior, GroupMsg::RegisterAck { as_standby: true, epoch: self.epoch, tail_sn });
    }
}

impl MdsServer {
    // ---------------------------------------------------- junior side

    /// The active opened a renewing session with us.
    pub(crate) fn on_renew_start(&mut self, ctx: &mut Ctx<'_>, from: NodeId, tip_sn: Sn) {
        let RoleState::Member(m @ Member { junior: true, .. }) = &self.role else { return };
        self.r.active_hint = Some(from);
        let gap = tip_sn.saturating_sub(self.r.prefix.tail_sn());
        ctx.trace(|| MdsTrace::RenewBegin { gap });
        if let Some(CatchupStage::Chain { idx, offset, .. }) = &m.session.stage {
            // Resume an interrupted session from its checkpoint instead of
            // retransmitting everything. Re-resolving the manifest first
            // confirms the planned artifacts still exist (a newer image may
            // have superseded them while we were away).
            ctx.trace(|| MdsTrace::RenewResumed { idx: *idx, offset: *offset });
            self.start_image_fetch(ctx);
        } else if gap > self.r.cfg.timing.renew_image_gap {
            self.start_image_fetch(ctx);
        } else {
            // The session start tells us the active's tip, so the request
            // window can open fully on the first pump.
            self.enter_journal_stage(ctx, tip_sn);
        }
    }

    /// Begin (or resume) fetching checkpoint state from the pool. The
    /// manifest decides what actually moves: the full base image only when
    /// our state predates it, otherwise just the deltas past our sn —
    /// recovery bytes proportional to churn, not namespace size.
    /// A chain in progress is kept (the fresh manifest decides whether it
    /// can resume); anything else restarts from the manifest.
    pub(crate) fn start_image_fetch(&mut self, ctx: &mut Ctx<'_>) {
        let stage = self.role.session().and_then(|s| s.stage.take());
        let chain = stage.filter(|c| matches!(c, CatchupStage::Chain { .. }));
        self.set_catchup(Some(chain.unwrap_or(CatchupStage::Manifest)));
        self.session_send(ctx, SessionReq::Manifest);
    }

    // ------------------------------------------- the session's pool reads

    /// Start, move or end (`None`) the catch-up session: a new `Session`,
    /// awaiting nothing the one before did.
    pub(crate) fn set_catchup(&mut self, stage: Option<CatchupStage>) {
        if let Some(session) = self.role.session() {
            *session = Session::at(stage);
        }
    }

    /// Issue a request of the catch-up session: at most its one fence,
    /// manifest or chunk read, or its window of journal pages.
    pub(crate) fn session_send(&mut self, ctx: &mut Ctx<'_>, why: SessionReq) {
        let Some(session) = self.role.session() else { return };
        let req = self.r.next_req();
        session.awaited.insert(req, why);
        debug_assert!(session.awaited.len() <= CATCHUP_WINDOW, "{:?}", session.awaited);
        self.resend_session_request(ctx, req);
    }

    /// Send (again) the request an entry of the session stands for — the
    /// only place a member reads the pool. A resend is the same request, not
    /// a new one: whichever reply arrives first settles it, so neither a
    /// slow pool nor a lossy link costs an entry.
    fn resend_session_request(&mut self, ctx: &mut Ctx<'_>, req: ReqId) {
        let group = self.r.cfg.group;
        let read = match self.role.session().and_then(|s| s.awaited.get(&req)) {
            Some(&SessionReq::EpochAdvance { to }) => PoolReq::AdvanceEpoch { group, to, req },
            Some(SessionReq::Manifest) => PoolReq::ReadManifest { group, req },
            Some(&SessionReq::ArtifactChunk { artifact, offset }) => {
                let len = self.r.cfg.timing.image_chunk;
                PoolReq::ReadArtifactChunk { group, artifact, offset, len, req }
            }
            Some(&SessionReq::CatchupPage { after }) => {
                PoolReq::ReadJournal { group, after_sn: after, max: CATCHUP_PAGE, req }
            }
            None => return,
        };
        self.r.pool_deliver(ctx, read);
    }

    /// Send every awaited request of the session again (the switch's retry
    /// timer). `false` when the session awaits nothing.
    pub(crate) fn resend_session_requests(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let awaited: Vec<ReqId> =
            self.role.session().map(|s| s.awaited.keys().copied().collect()).unwrap_or_default();
        for &req in &awaited {
            self.resend_session_request(ctx, req);
        }
        !awaited.is_empty()
    }

    /// Switch the catch-up session into the journal stage and start the
    /// request window. `tail_hint` is the highest journal sn we know the
    /// pool holds (0 when unknown — the first response teaches us).
    pub(crate) fn enter_journal_stage(&mut self, ctx: &mut Ctx<'_>, tail_hint: Sn) {
        let next_after = self.r.prefix.tail_sn();
        self.set_catchup(Some(CatchupStage::Journal { inflight: 0, next_after, tail_hint }));
        self.pump_journal_pages(ctx);
    }

    /// Top up the journal-page request window: keep up to `CATCHUP_WINDOW`
    /// page reads in flight, each asking for the page after the previous
    /// request's range, so the pool RTT overlaps local replay. Responses
    /// may arrive out of order; the prefix's stash reassembles them
    /// contiguously. This is the only place
    /// a member reads the pool's journal.
    fn pump_journal_pages(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let applied = self.r.prefix.tail_sn();
            let after = {
                let Some(CatchupStage::Journal { inflight, next_after, tail_hint }) =
                    self.role.stage()
                else {
                    return;
                };
                if *inflight >= CATCHUP_WINDOW {
                    return;
                }
                if *inflight == 0 {
                    // The window drained: anchor speculation back to the
                    // contiguously applied position. This re-requests any
                    // range whose response was lost instead of stalling on
                    // the hole forever.
                    *next_after = applied;
                } else if *next_after >= *tail_hint {
                    // Nothing known beyond this point; the in-flight
                    // responses will refresh the tail hint.
                    return;
                }
                let after = *next_after;
                *next_after = after.saturating_add(CATCHUP_PAGE as u64);
                *inflight += 1;
                after
            };
            self.session_send(ctx, SessionReq::CatchupPage { after });
        }
    }

    /// The pool's manifest chain arrived: plan which artifacts we need.
    pub(crate) fn on_manifest(&mut self, ctx: &mut Ctx<'_>, resp: PoolResp) {
        let manifest = match resp {
            PoolResp::ManifestInfo { manifest, .. } => manifest,
            other => {
                ctx.trace(|| MdsTrace::ManifestFailed(other));
                return;
            }
        };
        // Mid-chain resume: if everything we still need is listed in the
        // fresh manifest, continue from the checkpointed offset instead of
        // replanning (no image superseded the chain under us).
        if let Some(CatchupStage::Chain { plan, idx, offset, .. }) = self.role.stage() {
            if *idx < plan.len()
                && plan[*idx..].iter().all(|e| manifest.chain.iter().any(|m| m.id == e.id))
            {
                let (artifact, offset) = (plan[*idx].id, *offset);
                self.session_send(ctx, SessionReq::ArtifactChunk { artifact, offset });
                return;
            }
        }
        let applied = self.r.prefix.tail_sn();
        if manifest.is_empty() || manifest.end_sn() <= applied {
            // Nothing checkpointed past our state: journal replay only.
            self.enter_journal_stage(ctx, 0);
            return;
        }
        let base_sn = manifest.base().expect("non-empty manifest").end_sn;
        // The base moves only when our state predates it; a delta covering
        // `(N, M]` applies from any applied sn in `[N, M]`
        // (`mams_namespace::delta`'s apply-anywhere invariant), so every
        // delta ending past our sn is both needed and applicable.
        let plan: Vec<ManifestEntry> = manifest
            .chain
            .iter()
            .filter(|e| match e.kind {
                ArtifactKind::Base => applied < base_sn,
                ArtifactKind::Delta => e.end_sn > applied,
            })
            .cloned()
            .collect();
        if plan.is_empty() {
            self.enter_journal_stage(ctx, 0);
            return;
        }
        ctx.trace(|| MdsTrace::ChainPlanned {
            artifacts: plan.len(),
            bytes: plan.iter().map(|e| e.bytes).sum(),
            applied,
            chain_end: manifest.end_sn(),
        });
        let first = plan[0].clone();
        let decoder =
            (first.kind == ArtifactKind::Base).then(|| Box::new(StreamingImageDecoder::new()));
        self.set_catchup(Some(CatchupStage::Chain {
            plan,
            idx: 0,
            offset: 0,
            decoder,
            buf: Vec::new(),
        }));
        self.session_send(ctx, SessionReq::ArtifactChunk { artifact: first.id, offset: 0 });
    }

    /// A chunk of the current chain artifact arrived.
    pub(crate) fn on_artifact_chunk(&mut self, ctx: &mut Ctx<'_>, resp: PoolResp) {
        let (artifact, chunk_offset, data, total) = match resp {
            PoolResp::ArtifactChunk { artifact, offset, data, total, .. } => {
                (artifact, offset, data, total)
            }
            PoolResp::Failed { error: PoolError::NoSuchArtifact { id }, .. } => {
                // Our manifest went stale: the active's next image superseded
                // the chain between the plan and this read. Re-resolve and
                // replan against the new chain.
                ctx.trace(|| MdsTrace::ManifestStale { artifact: id });
                if let Some(CatchupStage::Chain { plan, .. }) = self.role.stage() {
                    plan.clear(); // force a replan; resume check can't hold
                }
                self.session_send(ctx, SessionReq::Manifest);
                return;
            }
            other => {
                ctx.trace(|| MdsTrace::ChunkFailed(other));
                self.session_send(ctx, SessionReq::Manifest);
                return;
            }
        };
        // Feed the chunk into the current artifact's sink: the base goes
        // straight into the streaming decoder (the table is loaded as
        // bytes arrive, no whole-image buffer); a delta accumulates in `buf`.
        enum Step {
            More(ArtifactId, u64),
            BaseDone,
            DeltaDone,
            Corrupt(ImageError),
        }
        let step = {
            let Some(CatchupStage::Chain { plan, idx, offset, decoder, buf }) = self.role.stage()
            else {
                return;
            };
            let Some(entry) = plan.get(*idx) else { return };
            // Exactly one stream advances the offset: the session awaits
            // one chunk at a time, and a restart forgets the one before.
            debug_assert_eq!((entry.id, *offset), (artifact, chunk_offset));
            let done = *offset + data.len() as u64 >= total || data.is_empty();
            match entry.kind {
                ArtifactKind::Base => {
                    let d = decoder.get_or_insert_with(|| Box::new(StreamingImageDecoder::new()));
                    match d.push(&data) {
                        Ok(()) => {
                            *offset += data.len() as u64;
                            if done {
                                Step::BaseDone
                            } else {
                                Step::More(entry.id, *offset)
                            }
                        }
                        Err(e) => Step::Corrupt(e),
                    }
                }
                ArtifactKind::Delta => {
                    buf.extend_from_slice(&data);
                    *offset += data.len() as u64;
                    if done {
                        Step::DeltaDone
                    } else {
                        Step::More(entry.id, *offset)
                    }
                }
            }
        };
        match step {
            Step::More(artifact, offset) => {
                self.session_send(ctx, SessionReq::ArtifactChunk { artifact, offset })
            }
            Step::BaseDone => self.finish_base_artifact(ctx),
            Step::DeltaDone => self.finish_delta_artifact(ctx),
            Step::Corrupt(e) => {
                ctx.trace(|| MdsTrace::ImageCorrupt(e));
                // A corrupt *base* has no cheaper fallback: restart the
                // whole resolve (a fresh checkpoint will replace it).
                self.set_catchup(Some(CatchupStage::Manifest));
                self.session_send(ctx, SessionReq::Manifest);
            }
        }
    }

    /// The base image is fully transferred: verify, adopt, move down the
    /// plan.
    fn finish_base_artifact(&mut self, ctx: &mut Ctx<'_>) {
        let decoder = match self.role.stage() {
            Some(CatchupStage::Chain { decoder, .. }) => decoder.take(),
            _ => return,
        };
        let Some(decoder) = decoder else { return };
        match decoder.finish() {
            Ok(image) => {
                ctx.trace(|| MdsTrace::ImageLoaded { sn: image.sn });
                // The image's retry window is the writer's window at its
                // sn: the prefix it stands for, though we never saw the
                // batches.
                self.r.prefix = Prefix::from_image(image);
                self.advance_chain(ctx);
            }
            Err(e) => {
                ctx.trace(|| MdsTrace::ImageCorrupt(e));
                self.set_catchup(Some(CatchupStage::Manifest));
                self.session_send(ctx, SessionReq::Manifest);
            }
        }
    }

    /// A delta artifact is fully buffered: decode, verify, apply.
    fn finish_delta_artifact(&mut self, ctx: &mut Ctx<'_>) {
        let buf = match self.role.stage() {
            Some(CatchupStage::Chain { buf, .. }) => std::mem::take(buf),
            _ => return,
        };
        let adopted = mams_namespace::decode_delta(&buf)
            .map_err(|e| e.to_string())
            .and_then(|delta| self.r.prefix.adopt_delta(delta));
        match adopted {
            Ok(()) => {
                ctx.trace(|| MdsTrace::DeltaApplied { sn: self.r.prefix.tail_sn() });
                self.advance_chain(ctx);
            }
            Err(e) => {
                // Corrupt (or unexpectedly disjoint) delta: drop the rest
                // of the chain and fall back one rung — windowed journal
                // catch-up from our applied sn. The pool retains the
                // journal from the base checkpoint, so the range is there;
                // if a newer image truncates it meanwhile, the `compacted`
                // reply re-resolves a fresh manifest.
                ctx.trace(|| MdsTrace::DeltaCorrupt(e));
                self.enter_journal_stage(ctx, 0);
            }
        }
    }

    /// Move to the next planned artifact, or into journal catch-up when the
    /// chain is exhausted.
    fn advance_chain(&mut self, ctx: &mut Ctx<'_>) {
        // Progress is reported even while large artifacts stream.
        self.report_progress(ctx);
        let next = {
            let Some(CatchupStage::Chain { plan, idx, offset, decoder, buf }) = self.role.stage()
            else {
                return;
            };
            *idx += 1;
            *offset = 0;
            buf.clear();
            *decoder = None;
            plan.get(*idx).map(|e| e.id)
        };
        match next {
            Some(artifact) => {
                self.session_send(ctx, SessionReq::ArtifactChunk { artifact, offset: 0 })
            }
            None => self.enter_journal_stage(ctx, 0),
        }
    }

    /// Renewing only (the elected member has no active to tell): report how
    /// far we are, so the active's session sees movement.
    fn report_progress(&mut self, ctx: &mut Ctx<'_>) {
        if self.role.grant().is_some() {
            return;
        }
        if let Some(active) = self.r.active_hint.filter(|&a| a != ctx.id()) {
            ctx.send(active, GroupMsg::RenewProgress { sn: self.r.prefix.tail_sn() });
        }
    }

    pub(crate) fn on_catchup_page(&mut self, ctx: &mut Ctx<'_>, resp: PoolResp) {
        // Account the response against the request window (a reply awaited
        // at all belongs to the current session, see `set_catchup`).
        let Some(CatchupStage::Journal { inflight, tail_hint, .. }) = self.role.stage() else {
            return;
        };
        *inflight = inflight.saturating_sub(1);
        let (batches, tail_sn, compacted) = match resp {
            PoolResp::Journal { batches, tail_sn, compacted, .. } => (batches, tail_sn, compacted),
            other => {
                ctx.trace(|| MdsTrace::PageFailed(other));
                // Keep the pipeline moving despite the failed read.
                self.pump_journal_pages(ctx);
                return;
            }
        };
        if compacted {
            // We are behind the shared journal's base (a checkpoint raced
            // us, or we were elected that far back): load the image first.
            self.start_image_fetch(ctx);
            return;
        }
        *tail_hint = (*tail_hint).max(tail_sn);
        self.r.ingest(ctx, batches);
        let caught_up = self.r.prefix.tail_sn() >= tail_sn;
        if matches!(self.role, RoleState::Upgrading(_)) {
            // The switch: once everything durable is applied, take over.
            if caught_up {
                self.finish_upgrade(ctx, tail_sn);
            } else {
                self.pump_journal_pages(ctx);
            }
            return;
        }
        // Renewing: report progress; keep paging until we reach the
        // shared journal's tail. The session ends there: the final
        // synchronization range is the active's to push.
        self.report_progress(ctx);
        if caught_up {
            self.set_catchup(None);
        } else {
            self.pump_journal_pages(ctx);
        }
    }
}
