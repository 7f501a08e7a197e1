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
//! The MAMS member holds one beside its process state, and so does every
//! comparator in `mams-baselines`: one executor and one replay for all.

use std::collections::BTreeMap;

use mams_journal::{AckRecord, JournalBatch, JournalLog, SharedBatch, Sn, Txn, TxnId};
use mams_namespace::inode::ROOT_ID;
use mams_namespace::{
    apply_delta, replay_outcome, BlockMap, DecodedDelta, DeltaOp, Inode, InodeSource,
    NamespaceTree, RetryEntry, RetryOutcome, RetryWindow, ShardedNamespace, ShardedReplaySession,
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
    pub(crate) log: JournalLog,
    /// Batches that arrived ahead of the tail, drained contiguously onto
    /// the log; holds shared handles, so stashing never copies records.
    stash: BTreeMap<Sn, SharedBatch>,
    /// Replicated retry-outcome window: the `(client, seq) → outcome`
    /// bindings of every journaled batch applied (or adopted from an
    /// image/delta). The writer and every reader of a journal agree on it
    /// byte for byte, so a tenure seeds its response cache from it and
    /// keeps at-most-once across the switch.
    pub(crate) window: RetryWindow,
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
            replay: ShardedReplaySession::new(),
            next_txid: 1,
            next_block_id: 1,
        }
    }

    /// The prefix a checkpoint image stands for: the namespace and retry
    /// window as of `sn`, the log restarting there. Replay would have
    /// advanced the block-id mark past every `AddBlock` it saw; the highest
    /// id the image holds does it here, or a member elected after catching
    /// up this way hands out ids its files already hold. No image carries a
    /// txid and nothing keys on one — replay ignores it, the pool and the
    /// members deduplicate by `sn`, the retry window by `(client, seq)`.
    pub fn from_image(tree: NamespaceTree, sn: Sn, window: RetryWindow) -> Self {
        let next_block_id = highest_block_id(&tree) + 1;
        Prefix {
            ns: ShardedNamespace::from_tree(tree),
            blocks: BlockMap::new(),
            log: JournalLog::with_base(sn),
            stash: BTreeMap::new(),
            window,
            replay: ShardedReplaySession::new(),
            next_txid: 1,
            next_block_id,
        }
    }

    /// Advance by a checkpoint delta — records never seen as batches, so
    /// the log restarts at the delta's end like after an image. An empty
    /// window section means no ack was ever journaled in the writer's
    /// window: keep what we have.
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
        if !delta.window.is_empty() {
            self.window = delta.window;
        }
        self.log = JournalLog::with_base(delta.end_sn);
        self.stash.clear();
        Ok(())
    }

    pub fn ns(&self) -> &ShardedNamespace {
        &self.ns
    }

    pub fn log(&self) -> &JournalLog {
        &self.log
    }

    pub fn window(&self) -> &RetryWindow {
        &self.window
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

    /// Execute one client operation: a read answers from a pinned snapshot,
    /// a mutation is validated and applied and yields its journal record. A
    /// refused mutation changes nothing and is never journaled. Consumes the
    /// op so its paths move into the record instead of being cloned — on a
    /// create/rename-heavy mix the journal's strings are allocated exactly
    /// once, at request decode.
    ///
    /// The simulated server is single-threaded, so a read's pin is vacuous
    /// here — but it is the path a threaded deployment uses (see
    /// `shard.rs`'s `pinned_reader_concurrent_with_writer`), and going
    /// through it keeps the snapshot machinery under the full protocol test
    /// surface: a pinned read observes exactly the applied-and-published
    /// prefix, never a mutation mid-apply.
    pub fn exec(&mut self, op: FsOp) -> Result<(Option<Txn>, OpOutput), String> {
        // A mutation writes `ns` past the replay session's cached handles.
        self.replay.reset();
        let done = |txn| (Some(txn), OpOutput::Done);
        match op {
            FsOp::GetFileInfo { path } => {
                self.ns.pin().getfileinfo(&path).map(|info| (None, OpOutput::Info(info)))
            }
            FsOp::List { path } => self.ns.pin().list(&path).map(|l| (None, OpOutput::Listing(l))),
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
    /// to the log. `settled` names the records that answer a client request
    /// (ascending by record), each with the outcome that request was
    /// answered: the batch carries the binding as an ack record, so every
    /// node that replays it rebuilds the retry window, and the same binding
    /// is folded into our own window here — the outcome straight from the
    /// executed op is byte-identical to what replay reconstructs.
    ///
    /// The batch is encoded to its wire form exactly once, here; every
    /// holder (this log, each sync, the pool append, later resends) shares
    /// the sealed allocation.
    pub fn seal(
        &mut self,
        records: Vec<Txn>,
        settled: Vec<(AckRecord, RetryOutcome)>,
    ) -> SharedBatch {
        let mut acks = Vec::with_capacity(settled.len());
        for (ack, outcome) in settled {
            self.window.record(ack.client, ack.seq, RetryEntry { outcome, token: None });
            acks.push(ack);
        }
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
    /// the id marks. Ack records riding on the batch are folded into the
    /// retry window *at each record's apply point*, so the reconstructed
    /// outcome (e.g. the `FileInfo` a `Create` answered) is exactly what
    /// the writer sent.
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
            // Acks are sorted by record index (the seal emits them in op
            // order), so a single forward scan pairs them up.
            while let Some(ack) = acks.next_if(|a| a.record as usize == i) {
                let outcome = replay_outcome(|p| self.ns.getfileinfo(p).ok(), txn);
                self.window.record(ack.client, ack.seq, RetryEntry { outcome, token: None });
            }
        }
        failed
    }
}

/// The highest block id any file of `tree` holds (0: none).
fn highest_block_id(tree: &impl InodeSource) -> u64 {
    let (mut highest, mut stack) = (0, vec![ROOT_ID]);
    while let Some(id) = stack.pop() {
        match tree.inode(id) {
            Some(Inode::Directory { children, .. }) => stack.extend(children.values()),
            Some(Inode::File { blocks, .. }) => {
                highest = blocks.iter().fold(highest, |h, &b| h.max(b))
            }
            None => {}
        }
    }
    highest
}
