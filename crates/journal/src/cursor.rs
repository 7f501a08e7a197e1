//! Duplicate-suppressing replay.
//!
//! "Each standby will decide whether to commit logs by comparing values of
//! `sn`. Only if `sn` from the active is larger than the current maximum
//! serial number, the standby applies journals and responds to it."
//! (failover protocol, step 4). [`ReplayCursor`] encodes exactly that rule.

use crate::txn::{JournalBatch, Sn, Txn, TxnId};

/// A sink that applies journalled transactions to some state (the namespace
/// tree, a metrics collector, …).
pub trait Apply {
    fn apply_txn(&mut self, txid: TxnId, txn: &Txn);
}

impl<F: FnMut(TxnId, &Txn)> Apply for F {
    fn apply_txn(&mut self, txid: TxnId, txn: &Txn) {
        self(txid, txn)
    }
}

/// What happened when a batch was offered to the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The batch was applied; the cursor advanced to its sn.
    Applied,
    /// `sn` was not larger than the cursor's maximum: skipped.
    Duplicate,
    /// The batch skips ahead of the expected `max_sn + 1`; the caller must
    /// fetch the missing range first (junior renewing does this).
    Gap { expected: Sn },
}

/// Tracks the highest applied `sn` and applies batches idempotently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCursor {
    max_sn: Sn,
}

impl ReplayCursor {
    /// Cursor that has applied nothing (sn 0, the paper's default for a
    /// freshly loaded image with no associated sn).
    pub fn new() -> Self {
        ReplayCursor { max_sn: 0 }
    }

    /// Cursor positioned after `sn` (e.g. an image checkpointed at `sn`).
    pub fn at(sn: Sn) -> Self {
        ReplayCursor { max_sn: sn }
    }

    /// Highest applied serial number.
    pub fn max_sn(&self) -> Sn {
        self.max_sn
    }

    /// Offer one batch.
    pub fn offer(&mut self, batch: &JournalBatch, sink: &mut impl Apply) -> ReplayOutcome {
        if batch.sn <= self.max_sn {
            return ReplayOutcome::Duplicate;
        }
        if batch.sn != self.max_sn + 1 {
            return ReplayOutcome::Gap { expected: self.max_sn + 1 };
        }
        for (txid, txn) in batch.entries() {
            sink.apply_txn(txid, txn);
        }
        self.max_sn = batch.sn;
        ReplayOutcome::Applied
    }

    /// Offer a contiguous run of batches; returns how many were applied.
    /// Accepts owned batches or shared handles (`&[JournalBatch]`,
    /// `&[SharedBatch]`) alike.
    pub fn offer_all<B: std::borrow::Borrow<JournalBatch>>(
        &mut self,
        batches: &[B],
        sink: &mut impl Apply,
    ) -> usize {
        let mut applied = 0;
        for b in batches {
            if self.offer(b.borrow(), sink) == ReplayOutcome::Applied {
                applied += 1;
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(sn: Sn, n: usize) -> JournalBatch {
        let records =
            (0..n).map(|i| Txn::Create { path: format!("/{sn}/{i}"), replication: 1 }).collect();
        JournalBatch::new(sn, sn * 100, records)
    }

    #[test]
    fn applies_in_order_and_counts_records() {
        let mut cur = ReplayCursor::new();
        let mut seen: Vec<TxnId> = Vec::new();
        let mut sink = |txid: TxnId, _t: &Txn| seen.push(txid);
        assert_eq!(cur.offer(&batch(1, 2), &mut sink), ReplayOutcome::Applied);
        assert_eq!(cur.offer(&batch(2, 1), &mut sink), ReplayOutcome::Applied);
        assert_eq!(seen, vec![100, 101, 200]);
        assert_eq!(cur.max_sn(), 2);
    }

    #[test]
    fn duplicates_never_reapplied() {
        let mut cur = ReplayCursor::new();
        let mut count = 0usize;
        let mut sink = |_: TxnId, _: &Txn| count += 1;
        cur.offer(&batch(1, 3), &mut sink);
        assert_eq!(cur.offer(&batch(1, 3), &mut sink), ReplayOutcome::Duplicate);
        assert_eq!(count, 3, "records applied exactly once");
    }

    #[test]
    fn gap_reported_not_applied() {
        let mut cur = ReplayCursor::at(5);
        let mut count = 0usize;
        let mut sink = |_: TxnId, _: &Txn| count += 1;
        assert_eq!(cur.offer(&batch(8, 1), &mut sink), ReplayOutcome::Gap { expected: 6 });
        assert_eq!(count, 0);
        assert_eq!(cur.max_sn(), 5);
    }

    #[test]
    fn offer_all_mixed() {
        let mut cur = ReplayCursor::new();
        let mut sink = |_: TxnId, _: &Txn| {};
        let batches = vec![batch(1, 1), batch(1, 1), batch(2, 1), batch(4, 1)];
        assert_eq!(cur.offer_all(&batches, &mut sink), 2);
        assert_eq!(cur.max_sn(), 2);
    }
}
