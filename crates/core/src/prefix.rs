//! What a member derives from the journal, as one value.
//!
//! Everything here is a function of the journal prefix a node has applied:
//! the namespace, the block registry, the log of applied batches, the
//! replicated retry window and the two id high-water marks. A [`Prefix`] is
//! made empty ([`Prefix::new`]) or from a checkpoint image
//! ([`Prefix::from_image`]) and moves forward three ways only — executing a
//! client operation ([`exec`](Prefix::exec)) and sealing what was executed
//! ([`seal`](Prefix::seal)) on the node that writes the journal, replaying
//! a batch ([`ingest`](Prefix::ingest)) on the nodes that read it, adopting
//! a checkpoint delta ([`adopt_delta`](Prefix::adopt_delta)) on a node that
//! catches up from the pool. Giving the prefix up is dropping the value, so
//! nothing of it can be left behind.
//!
//! The retry window is a view of the log: it is folded through
//! `window_sn`, and every way to read it ([`window`](Prefix::window),
//! [`encode_image`](Prefix::encode_image), [`fold_delta`](Prefix::fold_delta))
//! first folds the acks of the batches past that mark, in sn order. So is
//! every way to drop batches ([`compact_log`](Prefix::compact_log),
//! [`adopt_delta`](Prefix::adopt_delta)): an ack leaves the log only once
//! it is in the window. The window a reader sees is the one an eager fold
//! at every apply would have built, byte for byte, but a standby that is
//! never promoted never folds at all.
//!
//! The MAMS member holds one beside its process state, and so does every
//! comparator in `mams-baselines`: one executor and one replay for all.

use std::collections::BTreeMap;

use mams_journal::{AckRecord, JournalBatch, JournalLog, SharedBatch, Sn, Txn, TxnId};
use mams_namespace::{
    apply_delta, fold_delta_with_window, replay_outcome, BlockMap, DecodedDelta, DecodedImage,
    DeltaImage, DeltaOp, NamespaceImage, RetryEntry, RetryOutcome, RetryWindow, ShardedNamespace,
    ShardedReplaySession,
};

use crate::proto::{FsOp, OpOutput};

/// The state a node derives from the journal prefix it has applied.
pub struct Prefix {
    pub(crate) ns: ShardedNamespace,
    /// Block lengths come from the journal; locations from the data
    /// servers' periodic reports, which rebuild them after a reset.
    pub(crate) blocks: BlockMap,
    /// Every applied batch since the last compaction. Its tail is the
    /// applied position, whatever wrote it: a seal, an ingest, an adopted
    /// image or delta.
    log: JournalLog,
    /// Batches that arrived ahead of the tail, drained contiguously onto
    /// the log; holds shared handles, so stashing never copies records.
    stash: BTreeMap<Sn, SharedBatch>,
    /// Replicated retry-outcome window: the `(client, seq) → outcome`
    /// bindings of every journaled batch through `window_sn` (or adopted
    /// from an image/delta). The writer and every reader of a journal agree
    /// on it byte for byte once folded to the tail, so a tenure seeds its
    /// response cache from it and keeps at-most-once across the switch.
    window: RetryWindow,
    /// The sn the window is folded through; never below the log's base, so
    /// the batches past it are all on the log.
    window_sn: Sn,
    /// Journal replay fast path (validate-skip + cached parent handle). Its
    /// handles are good only while replay is the sole writer of `ns`.
    replay: ShardedReplaySession,
    next_txid: TxnId,
    /// Next block id to allocate (replay advances it past any seen id).
    next_block_id: u64,
}

impl Default for Prefix {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefix {
    /// The empty prefix: nothing applied, sn 0.
    pub fn new() -> Self {
        Prefix {
            ns: ShardedNamespace::new(),
            blocks: BlockMap::new(),
            log: JournalLog::new(),
            stash: BTreeMap::new(),
            window: RetryWindow::new(),
            window_sn: 0,
            replay: ShardedReplaySession::new(),
            next_txid: 1,
            next_block_id: 1,
        }
    }

    /// The prefix a checkpoint image stands for, installed as decoded: the
    /// namespace and retry window as of its sn, the log restarting there.
    /// Replay would have advanced the block-id mark past every `AddBlock` it
    /// saw; the highest id the image holds does it here, or a member elected
    /// after catching up this way hands out ids its files already hold. No
    /// image carries a txid and nothing keys on one — replay ignores it, the
    /// pool and the members deduplicate by `sn`, the retry window by
    /// `(client, seq)`.
    pub fn from_image(image: DecodedImage) -> Self {
        let DecodedImage { ns, sn, window, highest_block } = image;
        Prefix {
            ns,
            blocks: BlockMap::new(),
            log: JournalLog::with_base(sn),
            stash: BTreeMap::new(),
            window,
            window_sn: sn,
            replay: ShardedReplaySession::new(),
            next_txid: 1,
            next_block_id: highest_block + 1,
        }
    }

    /// Advance by a checkpoint delta — records never seen as batches, so
    /// the log restarts at the delta's end like after an image. An empty
    /// window section means no ack was ever journaled in the writer's
    /// window: keep what we have, folded before the log that holds it goes.
    pub fn adopt_delta(&mut self, delta: DecodedDelta) -> Result<(), String> {
        let applied = self.tail_sn();
        if applied < delta.base_sn {
            // A hole in front of this delta (should not happen on a
            // well-formed chain): applying it would skip records.
            return Err(format!("delta chains onto {} but we are at {applied}", delta.base_sn));
        }
        self.replay.reset();
        apply_delta(&mut self.ns, &delta).map_err(|e| e.to_string())?;
        let highest_block = delta.entries.iter().filter_map(|e| match &e.op {
            DeltaOp::UpsertFile { blocks, .. } => blocks.iter().max().copied(),
            _ => None,
        });
        self.next_block_id = self.next_block_id.max(highest_block.max().unwrap_or(0) + 1);
        if delta.window.is_empty() {
            self.fold_window();
        } else {
            self.window = delta.window;
        }
        self.log = JournalLog::with_base(delta.end_sn);
        self.window_sn = delta.end_sn;
        self.stash.clear();
        Ok(())
    }

    pub fn ns(&self) -> &ShardedNamespace {
        &self.ns
    }

    pub fn log(&self) -> &JournalLog {
        &self.log
    }

    /// The retry window as of the tail.
    pub fn window(&mut self) -> &RetryWindow {
        self.fold_window();
        &self.window
    }

    /// A checkpoint image of the applied prefix, encoded from the table at
    /// a pinned epoch, with the window as of the tail.
    pub fn encode_image(&mut self) -> NamespaceImage {
        self.fold_window();
        self.ns.pin().encode_image(self.tail_sn(), &self.window)
    }

    /// A checkpoint delta from `anchor` to the tail: the log's records past
    /// `anchor` folded into changed paths, with the window as of the tail.
    /// `None` when the log was compacted past `anchor`.
    pub fn fold_delta(&mut self, anchor: Sn) -> Option<DeltaImage> {
        self.fold_window();
        let txns = self.log.read_after(anchor)?.iter().flat_map(|b| b.records.iter());
        Some(fold_delta_with_window(&self.ns, anchor, self.tail_sn(), txns, &self.window))
    }

    /// Drop the log's batches through `sn` (after an image checkpoint),
    /// once their acks are in the window.
    pub fn compact_log(&mut self, sn: Sn) {
        self.fold_window();
        self.log.compact_through(sn);
    }

    /// Fold the acks of the log's batches past `window_sn` into the window.
    /// A batch's acks are sorted by record (the seal emits them in op
    /// order), so one forward scan pairs each with its record — the pairing
    /// `apply_records` checks at each record's apply point.
    fn fold_window(&mut self) {
        let batches =
            self.log.read_after(self.window_sn).expect("the window is never behind the log");
        for batch in batches {
            let mut acks = batch.acks.iter().peekable();
            for (i, txn) in batch.records.iter().enumerate() {
                while let Some(ack) = acks.next_if(|a| a.record as usize == i) {
                    let entry = RetryEntry { outcome: RetryOutcome::of(txn), token: None };
                    self.window.record(ack.client, ack.seq, entry);
                }
            }
        }
        self.window_sn = self.log.tail_sn();
    }

    /// The applied position.
    pub fn tail_sn(&self) -> Sn {
        self.log.tail_sn()
    }

    /// The next txid a seal assigns and the next block id `exec` allocates.
    pub fn id_marks(&self) -> (TxnId, u64) {
        (self.next_txid, self.next_block_id)
    }

    // ------------------------------------------------------------- writing

    /// Execute one client operation: a read answers from the newest state, a
    /// mutation is validated and applied and yields its journal record. A
    /// refused mutation changes nothing and is never journaled. Consumes the
    /// op so its paths move into the record instead of being cloned — on a
    /// create/rename-heavy mix the journal's strings are allocated exactly
    /// once, at request decode.
    ///
    /// The namespace has one owner, this prefix's node, so its newest state
    /// is the published one: a read takes no pin and never sees a mutation
    /// mid-apply.
    pub fn exec(&mut self, op: FsOp) -> Result<(Option<Txn>, OpOutput), String> {
        // A mutation writes `ns` past the replay session's cached handles.
        self.replay.reset();
        let done = |txn| (Some(txn), OpOutput::Done);
        match op {
            FsOp::GetFileInfo { path } => {
                self.ns.getfileinfo(&path).map(|info| (None, OpOutput::Info(info)))
            }
            FsOp::List { path } => self.ns.list(&path).map(|l| (None, OpOutput::Listing(l))),
            FsOp::Create { path, replication } => self
                .ns
                .create(&path, replication)
                .map(|info| (Some(Txn::Create { path, replication }), OpOutput::Info(info))),
            FsOp::Mkdir { path } => self.ns.mkdir(&path).map(|()| done(Txn::Mkdir { path })),
            FsOp::Delete { path, recursive } => {
                self.ns.delete(&path, recursive).map(|_| done(Txn::Delete { path, recursive }))
            }
            FsOp::Rename { src, dst } => {
                self.ns.rename(&src, &dst).map(|()| done(Txn::Rename { src, dst }))
            }
            FsOp::AddBlock { path, len } => {
                let block_id = self.next_block_id;
                self.ns.add_block(&path, block_id).map(|()| {
                    self.next_block_id += 1;
                    self.blocks.register(block_id, len);
                    (Some(Txn::AddBlock { path, block_id, len }), OpOutput::Block(block_id))
                })
            }
            FsOp::CloseFile { path } => {
                self.ns.close_file(&path).map(|()| done(Txn::CloseFile { path }))
            }
            FsOp::SetPerm { path, perm } => {
                self.ns.set_perm(&path, perm).map(|()| done(Txn::SetPerm { path, perm }))
            }
        }
        .map_err(|e| e.to_string())
    }

    /// Seal executed records into the next `⟨sn, txid⟩` batch and append it
    /// to the log. `acks` names the records that answer a client request,
    /// ascending by record: the batch carries each binding, so the window
    /// of every node that holds the batch — this one included — folds it
    /// when it is read.
    ///
    /// The batch is encoded to its wire form exactly once, here; every
    /// holder (this log, each sync, the pool append, later resends) shares
    /// the sealed allocation.
    pub fn seal(&mut self, records: Vec<Txn>, acks: Vec<AckRecord>) -> SharedBatch {
        let sn = self.tail_sn() + 1;
        let batch = SharedBatch::sealed(JournalBatch::with_acks(sn, self.next_txid, records, acks));
        self.next_txid = batch.last_txid() + 1;
        self.log.append(batch.share()).expect("own batch is contiguous");
        batch
    }

    // ------------------------------------------------------------- reading

    /// Offer a batch from any source (live sync, re-push, renewing, pool
    /// catch-up). Step 4 of the switch: one at or below the tail is a
    /// duplicate and dropped; any other is stashed, and the stash drains in
    /// sn order onto the log. What stays stashed waits for a hole to be
    /// filled (a batch lost on the wire, re-pushed by the writer). Returns
    /// how many records failed to re-apply — journaled records were
    /// validated before logging, so anything but 0 means this prefix has
    /// diverged from its journal.
    pub fn ingest(&mut self, batch: SharedBatch) -> u64 {
        if batch.sn <= self.tail_sn() {
            return 0;
        }
        self.stash.insert(batch.sn, batch);
        let mut failed = 0;
        while let Some(next) = self.stash.remove(&(self.tail_sn() + 1)) {
            failed += self.apply_records(&next);
            // Keep the handle (a reader serves renewing reads and may
            // become the writer) — same allocation, no copy.
            self.log.append(next).expect("the stash drains in sn order onto the log's tail");
        }
        failed
    }

    /// Apply a batch's records to the namespace and block map and advance
    /// the id marks. The batch's ack records wait on the log for the window
    /// fold; debug builds check here, *at each acked record's apply point*,
    /// that the outcome the fold will reconstruct from the record (e.g. the
    /// `FileInfo` a `Create` answered) is what the namespace says.
    fn apply_records(&mut self, batch: &JournalBatch) -> u64 {
        let mut failed = 0;
        let mut acks = batch.acks.iter().peekable();
        for (i, (txid, txn)) in batch.entries().enumerate() {
            if let Txn::AddBlock { block_id, len, .. } = txn {
                self.blocks.register(*block_id, *len);
                self.next_block_id = self.next_block_id.max(*block_id + 1);
            }
            // The session skips re-validation and reuses the previous
            // record's parent-directory resolution.
            if self.replay.apply(&self.ns, txn).is_err() {
                failed += 1;
            }
            self.next_txid = self.next_txid.max(txid + 1);
            while cfg!(debug_assertions) && acks.next_if(|a| a.record as usize == i).is_some() {
                replay_outcome(|p| self.ns.getfileinfo(p).ok(), txn);
            }
        }
        failed
    }
}
