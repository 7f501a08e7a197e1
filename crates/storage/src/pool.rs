//! Pool contents: per-replica-group journal segments, checkpoint artifacts
//! (base images and delta chains), and fencing.
//!
//! The pool stores bytes. It never decodes an artifact: the active formats
//! every image and delta, and decides when a full image restarts the chain.
//! What the pool checks is what it can see from its own files — the writer's
//! fence, that a delta chains onto the manifest's end, and that no artifact
//! runs ahead of the journal it stands for.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use mams_journal::{AppendOutcome, JournalLog, SharedBatch, Sn};
use mams_namespace::{DeltaImage, NamespaceImage};
use parking_lot::Mutex;

/// Replica-group index (matches `mams_namespace::partition::GroupId`).
pub type GroupId = u32;

/// Fencing epoch: monotonically increasing per group; granted alongside the
/// distributed lock at election time.
pub type Epoch = u64;

/// Pool-unique checkpoint artifact id (never reused; a manifest entry
/// naming a dropped id is how a consumer learns its manifest is stale).
pub type ArtifactId = u64;

/// Pool operation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Writer presented an epoch older than one the pool has seen: it has
    /// been deposed and must stop (IO fencing).
    Fenced { current: Epoch, presented: Epoch },
    /// Journal gap or divergence.
    Journal(String),
    /// The named artifact is gone (a newer image superseded its chain after
    /// the caller cached the manifest): re-resolve the manifest and retry.
    NoSuchArtifact { id: ArtifactId },
    /// A delta was offered that does not chain onto the manifest's end.
    DeltaChain { expected: Sn, offered: Sn },
    /// An image or delta reaches past the journal's tail: it holds effects
    /// of batches the pool never got, and a reader adopting it could never
    /// append after it. The writer retries once its appends have landed.
    AheadOfJournal { tail: Sn, offered: Sn },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Fenced { current, presented } => {
                write!(f, "fenced: pool epoch {current}, writer presented {presented}")
            }
            PoolError::Journal(s) => write!(f, "journal: {s}"),
            PoolError::NoSuchArtifact { id } => write!(f, "no such artifact {id}"),
            PoolError::DeltaChain { expected, offered } => {
                write!(f, "delta chains onto sn {offered}, manifest ends at {expected}")
            }
            PoolError::AheadOfJournal { tail, offered } => {
                write!(f, "artifact ends at sn {offered}, journal tail is {tail}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// What a checkpoint artifact holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A full namespace image (a snapshot *at* `end_sn`).
    Base,
    /// A delta image covering `(base_sn, end_sn]`.
    Delta,
}

/// One link of the manifest chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub id: ArtifactId,
    pub kind: ArtifactKind,
    /// Sn the artifact chains onto (for a base, equal to `end_sn`).
    pub base_sn: Sn,
    /// Sn the artifact advances a consumer to.
    pub end_sn: Sn,
    /// Encoded size, so consumers can plan transfers.
    pub bytes: u64,
}

/// The resolvable checkpoint chain `base@N ← delta@(N,M] ← delta@(M,K] …`.
///
/// Invariants (enforced by the writers): the first entry, if any, is a
/// base; every subsequent entry is a delta whose `base_sn` equals the
/// previous entry's `end_sn`. A consumer at applied sn `S` fetches the base
/// only when `S` predates it, then every delta with `end_sn > S` — bytes
/// proportional to churn, not namespace size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    pub chain: Vec<ManifestEntry>,
}

impl Manifest {
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// The base entry (always first when present).
    pub fn base(&self) -> Option<&ManifestEntry> {
        self.chain.first()
    }

    /// The delta links, in chain order.
    pub fn deltas(&self) -> &[ManifestEntry] {
        if self.chain.is_empty() {
            &[]
        } else {
            &self.chain[1..]
        }
    }

    /// Highest sn the chain reaches (0 when empty).
    pub fn end_sn(&self) -> Sn {
        self.chain.last().map(|e| e.end_sn).unwrap_or(0)
    }
}

/// One replica group's shared files.
#[derive(Debug, Default)]
pub struct GroupStore {
    /// Highest writer epoch observed.
    epoch: Epoch,
    /// The shared journal segment.
    journal: JournalLog,
    /// Checkpoint artifacts by id (base images and deltas): exactly the
    /// ones the manifest references.
    artifacts: HashMap<ArtifactId, Bytes>,
    /// The current resolvable chain.
    manifest: Manifest,
    next_artifact: ArtifactId,
}

impl GroupStore {
    fn check_epoch(&mut self, presented: Epoch) -> Result<(), PoolError> {
        if presented < self.epoch {
            return Err(PoolError::Fenced { current: self.epoch, presented });
        }
        self.epoch = presented;
        Ok(())
    }

    /// Refuse an artifact reaching past what the journal holds.
    fn check_behind_journal(&self, offered: Sn) -> Result<(), PoolError> {
        let tail = self.journal.tail_sn();
        if offered > tail {
            return Err(PoolError::AheadOfJournal { tail, offered });
        }
        Ok(())
    }

    /// Append a batch under the writer's epoch. The pool retains the shared
    /// handle the writer sealed — no re-copy of records on the way in.
    pub fn append_journal(
        &mut self,
        epoch: Epoch,
        batch: impl Into<SharedBatch>,
    ) -> Result<AppendOutcome, PoolError> {
        self.check_epoch(epoch)?;
        self.journal.append(batch).map_err(|e| PoolError::Journal(e.to_string()))
    }

    /// Journal tail after `after_sn` (up to `max` batches). `None` means the
    /// range was compacted away and the reader needs the image. Returned
    /// batches share the stored allocations (reference-count bumps only).
    pub fn read_journal(&self, after_sn: Sn, max: usize) -> Option<Vec<SharedBatch>> {
        self.journal
            .read_after(after_sn)
            .map(|s| s.iter().take(max).map(SharedBatch::share).collect())
    }

    /// Tail sn of the shared journal.
    pub fn tail_sn(&self) -> Sn {
        self.journal.tail_sn()
    }

    fn alloc_artifact(&mut self, data: Bytes) -> ArtifactId {
        self.next_artifact += 1;
        let id = self.next_artifact;
        self.artifacts.insert(id, data);
        id
    }

    /// Store a checkpoint image, start a fresh manifest chain on it, and
    /// compact the journal through its sn. The superseded chain's artifacts
    /// are dropped: a reader still holding the old manifest gets
    /// `NoSuchArtifact` and re-resolves. An image past the journal's tail is
    /// refused.
    pub fn write_image(&mut self, epoch: Epoch, image: NamespaceImage) -> Result<(), PoolError> {
        self.check_epoch(epoch)?;
        let sn = image.checkpoint_sn;
        self.check_behind_journal(sn)?;
        let bytes = image.size_bytes();
        self.artifacts.clear();
        let id = self.alloc_artifact(image.data);
        let base = ManifestEntry { id, kind: ArtifactKind::Base, base_sn: sn, end_sn: sn, bytes };
        self.manifest = Manifest { chain: vec![base] };
        self.journal.compact_through(sn);
        Ok(())
    }

    /// Append a delta to the manifest chain. The delta must chain exactly
    /// onto the current end (`delta.base_sn == manifest.end_sn()`); anything
    /// else — no base yet, a gap, a stale producer after failover — is
    /// rejected so the chain can never silently fork, and so is a delta past
    /// the journal's tail. The journal is *not* compacted: it stays retained
    /// from the base checkpoint, so journal catch-up from any sn at or past
    /// the base keeps working even if every delta turns out corrupt (the
    /// recovery ladder's last rung).
    pub fn append_delta(&mut self, epoch: Epoch, delta: DeltaImage) -> Result<Sn, PoolError> {
        self.check_epoch(epoch)?;
        self.check_behind_journal(delta.end_sn)?;
        let expected = self.manifest.end_sn();
        if self.manifest.is_empty() || delta.base_sn != expected {
            return Err(PoolError::DeltaChain { expected, offered: delta.base_sn });
        }
        let end_sn = delta.end_sn;
        let bytes = delta.size_bytes();
        let id = self.alloc_artifact(delta.data);
        self.manifest.chain.push(ManifestEntry {
            id,
            kind: ArtifactKind::Delta,
            base_sn: delta.base_sn,
            end_sn,
            bytes,
        });
        Ok(end_sn)
    }

    /// The current manifest chain (empty when no checkpoint exists).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// A chunk of an artifact's encoded bytes, with the artifact's total
    /// size. `NoSuchArtifact` means the id was dropped with a superseded chain
    /// (or never existed): the caller re-resolves the manifest.
    pub fn artifact_chunk(
        &self,
        id: ArtifactId,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, u64), PoolError> {
        let data = self.artifacts.get(&id).ok_or(PoolError::NoSuchArtifact { id })?;
        let size = data.len() as u64;
        let start = offset.min(size) as usize;
        let end = offset.saturating_add(len).min(size) as usize;
        Ok((data.slice(start..end), size))
    }

    /// Flip one byte in the middle of a stored artifact; `false` when there
    /// is nothing to damage.
    fn corrupt_artifact(&mut self, id: Option<ArtifactId>) -> bool {
        let Some((id, data)) = id.and_then(|id| Some((id, self.artifacts.get(&id)?))) else {
            return false;
        };
        if data.is_empty() {
            return false;
        }
        let mut raw = data.to_vec();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        self.artifacts.insert(id, Bytes::from(raw));
        true
    }

    /// Chaos hook: flip one byte in the middle of the manifest's base
    /// image, simulating silent on-disk corruption. Returns whether an
    /// image was present to corrupt. Readers must detect the damage (the
    /// image decoder validates) rather than build a divergent namespace.
    pub fn corrupt_image(&mut self) -> bool {
        self.corrupt_artifact(self.manifest.base().map(|e| e.id))
    }

    /// Chaos hook: flip one byte in the middle of a mid-chain delta
    /// artifact. Returns whether a delta was present to corrupt. A junior
    /// streaming the chain must detect the damage and fall back down the
    /// recovery ladder instead of applying a divergent delta.
    pub fn corrupt_delta(&mut self) -> bool {
        let deltas = self.manifest.deltas();
        self.corrupt_artifact(deltas.get(deltas.len() / 2).map(|e| e.id))
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Observe a new epoch without writing (called on lock grant so the old
    /// active is fenced even before the new one writes).
    pub fn advance_epoch(&mut self, to: Epoch) {
        self.epoch = self.epoch.max(to);
    }
}

/// All groups' shared files.
#[derive(Debug, Default)]
pub struct PoolState {
    groups: HashMap<GroupId, GroupStore>,
}

impl PoolState {
    pub fn new() -> Self {
        PoolState::default()
    }

    /// The store for `group`, created on first touch.
    pub fn group_mut(&mut self, group: GroupId) -> &mut GroupStore {
        self.groups.entry(group).or_default()
    }

    pub fn group(&self, group: GroupId) -> Option<&GroupStore> {
        self.groups.get(&group)
    }
}

/// Handle shared by every pool node (the pool's contents are replicated
/// across nodes and survive any single crash).
pub type SharedPool = Arc<Mutex<PoolState>>;

/// Create an empty shared pool.
pub fn new_shared_pool() -> SharedPool {
    Arc::new(Mutex::new(PoolState::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_journal::{JournalBatch, Txn};
    use mams_namespace::{
        apply_delta, decode_delta, encode_image, fold_delta, NamespaceTree, ShardedNamespace,
    };

    fn batch(sn: Sn) -> JournalBatch {
        JournalBatch::new(sn, sn, vec![Txn::Mkdir { path: format!("/d{sn}") }])
    }

    /// A store whose journal holds batches `1..=tail`: what any artifact
    /// written to it may stand for.
    fn journal_through(tail: Sn) -> GroupStore {
        let mut g = GroupStore::default();
        for sn in 1..=tail {
            g.append_journal(1, batch(sn)).unwrap();
        }
        g
    }

    #[test]
    fn append_and_read_tail() {
        let mut g = GroupStore::default();
        for sn in 1..=5 {
            assert_eq!(g.append_journal(1, batch(sn)).unwrap(), AppendOutcome::Appended);
        }
        assert_eq!(g.tail_sn(), 5);
        let tail = g.read_journal(3, 10).unwrap();
        assert_eq!(tail.iter().map(|b| b.sn).collect::<Vec<_>>(), vec![4, 5]);
        let capped = g.read_journal(0, 2).unwrap();
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn stale_epoch_is_fenced() {
        let mut g = GroupStore::default();
        g.append_journal(5, batch(1)).unwrap();
        let err = g.append_journal(4, batch(2)).unwrap_err();
        assert_eq!(err, PoolError::Fenced { current: 5, presented: 4 });
        // Same epoch continues to work; higher epoch takes over.
        g.append_journal(5, batch(2)).unwrap();
        g.append_journal(6, batch(3)).unwrap();
        assert_eq!(g.epoch(), 6);
    }

    #[test]
    fn advance_epoch_fences_before_first_write() {
        let mut g = GroupStore::default();
        g.append_journal(1, batch(1)).unwrap();
        g.advance_epoch(2);
        let err = g.append_journal(1, batch(2)).unwrap_err();
        assert!(matches!(err, PoolError::Fenced { current: 2, presented: 1 }));
    }

    /// A stored image and its artifact id.
    fn stored_image() -> (GroupStore, ArtifactId, Bytes) {
        let mut t = NamespaceTree::new();
        t.mkdir_p("/a/b/c").unwrap();
        for i in 0..20 {
            t.create(&format!("/a/b/c/f{i}"), 3).unwrap();
        }
        let img = encode_image(&t, 1);
        let mut g = journal_through(1);
        g.write_image(1, img.clone()).unwrap();
        let id = g.manifest().base().unwrap().id;
        (g, id, img.data)
    }

    #[test]
    fn chunks_cover_exactly_the_image() {
        let (g, id, data) = stored_image();
        let mut reassembled = Vec::new();
        let mut off = 0u64;
        loop {
            let (c, total) = g.artifact_chunk(id, off, 37).unwrap();
            assert_eq!(total, data.len() as u64);
            if c.is_empty() {
                break;
            }
            reassembled.extend_from_slice(&c);
            off += c.len() as u64;
        }
        assert_eq!(Bytes::from(reassembled), data);
        // Past-the-end chunks are empty, not panics.
        assert!(g.artifact_chunk(id, data.len() as u64 + 100, 10).unwrap().0.is_empty());
    }

    #[test]
    fn chunk_survives_u64_overflow_offsets() {
        let (g, id, data) = stored_image();
        // Regression: `offset + len` used to overflow u64 and panic.
        assert!(g.artifact_chunk(id, u64::MAX, 10).unwrap().0.is_empty());
        assert!(g.artifact_chunk(id, u64::MAX, u64::MAX).unwrap().0.is_empty());
        let (tail, _) = g.artifact_chunk(id, 1, u64::MAX).unwrap();
        assert_eq!(tail.len(), data.len() - 1);
    }

    #[test]
    fn image_checkpoint_compacts_journal() {
        let mut g = journal_through(10);
        let mut t = NamespaceTree::new();
        for sn in 1..=7 {
            t.mkdir(&format!("/d{sn}")).unwrap();
        }
        g.write_image(1, encode_image(&t, 7)).unwrap();
        assert_eq!(g.manifest().base().unwrap().end_sn, 7);
        // Journal before sn 7 is gone; readers fall back to the image.
        assert!(g.read_journal(3, 10).is_none());
        let tail = g.read_journal(7, 10).unwrap();
        assert_eq!(tail.iter().map(|b| b.sn).collect::<Vec<_>>(), vec![8, 9, 10]);
    }

    /// An image encoded at a sealed tail the pool's journal has not reached
    /// would be advertised as the base, and a reader adopting it could
    /// never append after it: its next sn lands past a hole in the journal.
    #[test]
    fn an_artifact_ahead_of_the_journal_is_refused() {
        let mut g = journal_through(3);
        let mut t = NamespaceTree::new();
        t.mkdir("/d").unwrap();
        let err = g.write_image(1, encode_image(&t, 5)).unwrap_err();
        assert_eq!(err, PoolError::AheadOfJournal { tail: 3, offered: 5 });
        assert!(g.manifest().is_empty(), "a refused image is never the base");
        assert_eq!(g.read_journal(0, 10).map(|b| b.len()), Some(3), "nor compacts the journal");

        // The writer retries once its appends have landed; a delta is held
        // to the same tail.
        g.write_image(1, encode_image(&t, 3)).unwrap();
        let txn = Txn::Mkdir { path: "/d/e".into() };
        t.apply(&txn).unwrap();
        let err = g.append_delta(1, fold_delta(&t, 3, 4, [&txn])).unwrap_err();
        assert_eq!(err, PoolError::AheadOfJournal { tail: 3, offered: 4 });
        g.append_journal(1, batch(4)).unwrap();
        assert_eq!(g.append_delta(1, fold_delta(&t, 3, 4, [&txn])), Ok(4));
        assert_eq!(g.append_journal(1, batch(5)), Ok(AppendOutcome::Appended));
    }

    #[test]
    fn duplicate_appends_are_idempotent() {
        let mut g = GroupStore::default();
        g.append_journal(1, batch(1)).unwrap();
        assert_eq!(g.append_journal(1, batch(1)).unwrap(), AppendOutcome::Duplicate);
    }

    #[test]
    fn pool_state_isolates_groups() {
        let mut p = PoolState::new();
        p.group_mut(0).append_journal(1, batch(1)).unwrap();
        assert_eq!(p.group(0).unwrap().tail_sn(), 1);
        assert!(p.group(1).is_none());
        p.group_mut(1);
        assert_eq!(p.group(1).unwrap().tail_sn(), 0);
    }

    // ------------------------------------------------------ manifest chain

    /// Build a group holding a base at `base_sn` plus `n_deltas` chained
    /// deltas, each creating one file, over a journal reaching the chain's
    /// end. Returns the final expected tree.
    fn chained_group(base_sn: Sn, n_deltas: usize) -> (GroupStore, NamespaceTree) {
        let mut g = journal_through(base_sn + n_deltas as u64);
        let mut t = NamespaceTree::new();
        t.mkdir("/d").unwrap();
        g.write_image(1, encode_image(&t, base_sn)).unwrap();
        for (i, sn) in (base_sn..base_sn + n_deltas as u64).enumerate() {
            let txn = Txn::Create { path: format!("/d/f{i}"), replication: 3 };
            // Fold reads the *final* state of touched paths, so apply first.
            t.apply(&txn).unwrap();
            let delta = fold_delta(&t, sn, sn + 1, [&txn]);
            g.append_delta(1, delta).unwrap();
        }
        (g, t)
    }

    /// Decode base + deltas from the manifest like a consumer would.
    fn resolve_chain(g: &GroupStore) -> ShardedNamespace {
        let m = g.manifest().clone();
        let base = m.base().expect("base");
        let (data, _) = g.artifact_chunk(base.id, 0, u64::MAX).unwrap();
        let mut ns = mams_namespace::decode_image(data).unwrap().ns;
        for e in m.deltas() {
            let (data, _) = g.artifact_chunk(e.id, 0, u64::MAX).unwrap();
            let d = decode_delta(&data).unwrap();
            apply_delta(&mut ns, &d).unwrap();
        }
        ns
    }

    #[test]
    fn deltas_chain_onto_manifest_end() {
        let (mut g, t) = chained_group(5, 3);
        let m = g.manifest();
        assert_eq!(m.base().unwrap().end_sn, 5);
        assert_eq!(m.deltas().len(), 3);
        assert_eq!(m.end_sn(), 8);
        assert_eq!(resolve_chain(&g).fingerprint(), t.fingerprint());
        // A gap is refused: the chain never silently forks.
        for sn in 9..=11 {
            g.append_journal(1, batch(sn)).unwrap();
        }
        let mut t2 = t.clone();
        let txn = Txn::Mkdir { path: "/gap".into() };
        t2.apply(&txn).unwrap();
        let bad = fold_delta(&t2, 10, 11, [&txn]);
        assert_eq!(
            g.append_delta(1, bad).unwrap_err(),
            PoolError::DeltaChain { expected: 8, offered: 10 }
        );
    }

    #[test]
    fn delta_without_base_is_rejected() {
        let mut g = journal_through(1);
        let t = NamespaceTree::new();
        let txn = Txn::Mkdir { path: "/x".into() };
        let delta = fold_delta(&t, 0, 1, [&txn]);
        assert!(matches!(g.append_delta(1, delta), Err(PoolError::DeltaChain { .. })));
    }

    #[test]
    fn stale_epoch_delta_is_fenced() {
        let (mut g, t) = chained_group(1, 1);
        g.advance_epoch(9);
        let txn = Txn::Mkdir { path: "/late".into() };
        let delta = fold_delta(&t, 2, 3, [&txn]);
        assert!(matches!(g.append_delta(1, delta), Err(PoolError::Fenced { .. })));
    }

    #[test]
    fn deltas_leave_journal_retained_from_base() {
        let mut g = GroupStore::default();
        let mut t = NamespaceTree::new();
        for sn in 1..=4 {
            g.append_journal(1, batch(sn)).unwrap();
            t.mkdir(&format!("/d{sn}")).unwrap();
        }
        g.write_image(1, encode_image(&t, 4)).unwrap();
        for sn in 5..=6 {
            g.append_journal(1, batch(sn)).unwrap();
            let txn = Txn::Mkdir { path: format!("/d{sn}") };
            t.apply(&txn).unwrap();
            let delta = fold_delta(&t, sn - 1, sn, [&txn]);
            g.append_delta(1, delta).unwrap();
        }
        // Journal from the base checkpoint is still there (the ladder's
        // last rung), even though the chain reaches sn 6.
        assert_eq!(g.manifest().end_sn(), 6);
        let tail = g.read_journal(4, 10).unwrap();
        assert_eq!(tail.iter().map(|b| b.sn).collect::<Vec<_>>(), vec![5, 6]);
    }
}
