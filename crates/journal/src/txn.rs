//! Namespace transactions and journal batches.

/// Journal serial number. Assigned by the active when it writes a batch;
/// strictly increasing by 1 within a replica group's log, starting at 1.
/// `sn = 0` means "nothing applied yet" (the paper gives juniors loading an
/// image a default sn of 0).
pub type Sn = u64;

/// Transaction id, unique per replica group, increasing.
pub type TxnId = u64;

/// A single logged namespace mutation.
///
/// These are exactly the metadata operations the paper benchmarks (`create`,
/// `mkdir`, `delete`, `rename`; `getfileinfo` is read-only and never logged)
/// plus the block-level records an HDFS-style namenode journals so that a
/// promoted standby can serve file reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Txn {
    /// Create an (empty) file at `path`.
    Create { path: String, replication: u8 },
    /// Create a directory (parents must exist).
    Mkdir { path: String },
    /// Delete a file, or a directory (recursively when `recursive`).
    Delete { path: String, recursive: bool },
    /// Rename `src` to `dst`.
    Rename { src: String, dst: String },
    /// Append a new block of `len` bytes to the file at `path`.
    AddBlock { path: String, block_id: u64, len: u32 },
    /// Seal the file at `path` (no more blocks).
    CloseFile { path: String },
    /// Change permission bits (extension op, exercised by tests).
    SetPerm { path: String, perm: u16 },
}

impl Txn {
    /// Stable discriminant used by the binary encoding.
    pub fn tag(&self) -> u8 {
        match self {
            Txn::Create { .. } => 1,
            Txn::Mkdir { .. } => 2,
            Txn::Delete { .. } => 3,
            Txn::Rename { .. } => 4,
            Txn::AddBlock { .. } => 5,
            Txn::CloseFile { .. } => 6,
            Txn::SetPerm { .. } => 7,
        }
    }

    /// Whether this transaction mutates directory structure (the paper's
    /// "distributed transaction" class in CFS: delete, mkdir, rename).
    pub fn is_structural(&self) -> bool {
        matches!(self, Txn::Mkdir { .. } | Txn::Delete { .. } | Txn::Rename { .. })
    }

    /// Approximate encoded size in bytes.
    pub fn weight(&self) -> u64 {
        let paths = match self {
            Txn::Rename { src, dst } => src.len() + dst.len(),
            other => other.primary_path().len(),
        };
        8 + paths as u64
    }

    /// Primary path the transaction touches (for partition routing).
    pub fn primary_path(&self) -> &str {
        match self {
            Txn::Create { path, .. }
            | Txn::Mkdir { path }
            | Txn::Delete { path, .. }
            | Txn::AddBlock { path, .. }
            | Txn::CloseFile { path }
            | Txn::SetPerm { path, .. } => path,
            Txn::Rename { src, .. } => src,
        }
    }
}

/// Marks a journaled record as owed to a client: record `record` of the
/// batch answers request `(client, seq)`. Riding with the batch makes the
/// retry-outcome window replicated state — every replica that replays the
/// batch learns which requests it settles, so a freshly promoted active can
/// answer retries from cache instead of re-executing. The reply payload is
/// *not* stored: it is reconstructed deterministically at replay (the
/// namespace state at the record's apply point is exactly the state the
/// original reply observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecord {
    /// Index into `records` of the mutation this ack settles.
    pub record: u32,
    /// Requesting client (node id).
    pub client: u32,
    /// The client's per-session request sequence number.
    pub seq: u64,
    /// Reserved; see ROADMAP item 2. Written `false`, read only by the codec.
    pub spec: bool,
}

/// A batch of log records: the `⟨sn, transactionid⟩` unit of the paper.
///
/// `first_txid` is the txid of `records[0]`; record `i` has txid
/// `first_txid + i`. The active aggregates several client operations into a
/// batch before flushing ("multiple metadata modifications are aggregated
/// before being submitted and written back to journals in an asynchronous
/// way", Section IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalBatch {
    pub sn: Sn,
    pub first_txid: TxnId,
    pub records: Vec<Txn>,
    /// Which records answer which client requests (ascending by `record`).
    pub acks: Vec<AckRecord>,
}

impl JournalBatch {
    pub fn new(sn: Sn, first_txid: TxnId, records: Vec<Txn>) -> Self {
        Self::with_acks(sn, first_txid, records, Vec::new())
    }

    pub fn with_acks(sn: Sn, first_txid: TxnId, records: Vec<Txn>, acks: Vec<AckRecord>) -> Self {
        assert!(sn >= 1, "sn 0 is the 'nothing applied' sentinel");
        assert!(!records.is_empty(), "empty journal batch");
        debug_assert!(
            acks.iter().all(|a| (a.record as usize) < records.len()),
            "ack references a record outside the batch"
        );
        JournalBatch { sn, first_txid, records, acks }
    }

    /// Txid of the last record in the batch.
    pub fn last_txid(&self) -> TxnId {
        self.first_txid + self.records.len() as TxnId - 1
    }

    /// Iterate `(txid, txn)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (TxnId, &Txn)> {
        let first = self.first_txid;
        self.records.iter().enumerate().map(move |(i, t)| (first + i as TxnId, t))
    }

    /// Approximate encoded size in bytes (header + per-record payloads),
    /// used by disk/network latency models without paying for a real
    /// encode.
    pub fn weight(&self) -> u64 {
        34 + self.records.iter().map(Txn::weight).sum::<u64>() + 8 * self.acks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Txn> {
        vec![
            Txn::Create { path: "/a/f1".into(), replication: 3 },
            Txn::Mkdir { path: "/a/d".into() },
            Txn::Rename { src: "/a/f1".into(), dst: "/a/d/f1".into() },
        ]
    }

    #[test]
    fn tags_are_distinct() {
        let txns = [
            Txn::Create { path: "p".into(), replication: 1 },
            Txn::Mkdir { path: "p".into() },
            Txn::Delete { path: "p".into(), recursive: false },
            Txn::Rename { src: "a".into(), dst: "b".into() },
            Txn::AddBlock { path: "p".into(), block_id: 1, len: 2 },
            Txn::CloseFile { path: "p".into() },
            Txn::SetPerm { path: "p".into(), perm: 0o755 },
        ];
        let mut tags: Vec<u8> = txns.iter().map(Txn::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 7);
    }

    #[test]
    fn structural_classification_matches_paper() {
        assert!(Txn::Mkdir { path: "p".into() }.is_structural());
        assert!(Txn::Delete { path: "p".into(), recursive: true }.is_structural());
        assert!(Txn::Rename { src: "a".into(), dst: "b".into() }.is_structural());
        assert!(!Txn::Create { path: "p".into(), replication: 1 }.is_structural());
        assert!(!Txn::CloseFile { path: "p".into() }.is_structural());
    }

    #[test]
    fn batch_txid_accounting() {
        let b = JournalBatch::new(5, 100, sample());
        assert_eq!(b.last_txid(), 102);
        let ids: Vec<TxnId> = b.entries().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![100, 101, 102]);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sn_zero_rejected() {
        JournalBatch::new(0, 0, sample());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_batch_rejected() {
        JournalBatch::new(1, 0, vec![]);
    }

    #[test]
    fn primary_path_routes_rename_by_source() {
        let t = Txn::Rename { src: "/x".into(), dst: "/y".into() };
        assert_eq!(t.primary_path(), "/x");
    }
}
