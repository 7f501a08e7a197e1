//! The in-memory journal log: an sn-contiguous sequence of batches.
//!
//! Both the active's own log and the shared files in the SSP use this
//! structure. Appends are idempotent: re-offering a batch with `sn` at or
//! below the current tail is reported as a duplicate and ignored — this is
//! the mechanism step 4 of the failover protocol relies on when the new
//! active re-flushes the last cached journals and the deposed active (now a
//! standby) sees them again.

use crate::shared::SharedBatch;
use crate::txn::Sn;

/// Result of offering a batch to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The batch extended the log.
    Appended,
    /// `sn` was at or below the tail and the batch was ignored.
    Duplicate,
}

/// Append failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The batch would leave a hole (`sn` is more than tail + 1).
    Gap { tail: Sn, offered: Sn },
    /// A duplicate sn arrived with *different* contents — a protocol bug or
    /// a split-brain writer; never silently ignored.
    Divergent { sn: Sn },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Gap { tail, offered } => {
                write!(f, "journal gap: tail sn {tail}, offered sn {offered}")
            }
            JournalError::Divergent { sn } => {
                write!(f, "divergent journal content at sn {sn}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// An sn-contiguous journal segment.
///
/// `base_sn` is the sn *before* the first retained batch (0 for a log that
/// holds everything since the beginning); compaction after a checkpoint
/// advances it.
#[derive(Debug, Clone, Default)]
pub struct JournalLog {
    base_sn: Sn,
    batches: Vec<SharedBatch>,
}

impl JournalLog {
    /// Empty log starting from sn 1.
    pub fn new() -> Self {
        JournalLog::default()
    }

    /// Empty log whose next expected sn is `base_sn + 1` (e.g. after loading
    /// an image checkpointed at `base_sn`).
    pub fn with_base(base_sn: Sn) -> Self {
        JournalLog { base_sn, batches: Vec::new() }
    }

    /// Highest sn present (or the base if empty).
    pub fn tail_sn(&self) -> Sn {
        self.base_sn + self.batches.len() as Sn
    }

    /// Sn before the first retained batch.
    pub fn base_sn(&self) -> Sn {
        self.base_sn
    }

    /// Number of retained batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Offer a batch. Contiguous appends extend the log; stale sn values are
    /// ignored (after verifying they match what we already hold); gaps are
    /// errors.
    ///
    /// Accepts anything convertible into a [`SharedBatch`], so call sites
    /// may pass a plain [`crate::JournalBatch`] or an already-shared handle;
    /// the log retains the handle (no deep copy in either case beyond the
    /// one-time wrap).
    pub fn append(&mut self, batch: impl Into<SharedBatch>) -> Result<AppendOutcome, JournalError> {
        let batch = batch.into();
        let tail = self.tail_sn();
        if batch.sn == tail + 1 {
            self.batches.push(batch);
            Ok(AppendOutcome::Appended)
        } else if batch.sn <= tail {
            if batch.sn > self.base_sn {
                let existing = &self.batches[(batch.sn - self.base_sn - 1) as usize];
                if *existing != batch {
                    return Err(JournalError::Divergent { sn: batch.sn });
                }
            }
            Ok(AppendOutcome::Duplicate)
        } else {
            Err(JournalError::Gap { tail, offered: batch.sn })
        }
    }

    /// Batches with sn strictly greater than `after_sn`, in order. Returns
    /// `None` when `after_sn` is older than the compaction base (the caller
    /// must fall back to an image). The returned handles are shared — a
    /// caller fanning them out bumps reference counts, it does not copy
    /// records.
    pub fn read_after(&self, after_sn: Sn) -> Option<&[SharedBatch]> {
        if after_sn < self.base_sn {
            return None;
        }
        let from = (after_sn - self.base_sn) as usize;
        if from > self.batches.len() {
            return Some(&[]);
        }
        Some(&self.batches[from..])
    }

    /// The batch with exactly this sn, if retained.
    pub fn get(&self, sn: Sn) -> Option<&SharedBatch> {
        if sn <= self.base_sn || sn > self.tail_sn() {
            return None;
        }
        Some(&self.batches[(sn - self.base_sn - 1) as usize])
    }

    /// Drop batches with sn ≤ `through_sn` (after an image checkpoint).
    pub fn compact_through(&mut self, through_sn: Sn) {
        if through_sn <= self.base_sn {
            return;
        }
        let new_base = through_sn.min(self.tail_sn());
        let cut = (new_base - self.base_sn) as usize;
        self.batches.drain(..cut);
        self.base_sn = new_base;
    }

    /// Iterate retained batches in sn order.
    pub fn iter(&self) -> impl Iterator<Item = &SharedBatch> {
        self.batches.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{JournalBatch, Txn};

    fn batch(sn: Sn) -> JournalBatch {
        JournalBatch::new(
            sn,
            sn * 10,
            vec![Txn::Create { path: format!("/f{sn}"), replication: 1 }],
        )
    }

    #[test]
    fn contiguous_appends() {
        let mut log = JournalLog::new();
        for sn in 1..=5 {
            assert_eq!(log.append(batch(sn)).unwrap(), AppendOutcome::Appended);
        }
        assert_eq!(log.tail_sn(), 5);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn duplicates_ignored_but_verified() {
        let mut log = JournalLog::new();
        log.append(batch(1)).unwrap();
        log.append(batch(2)).unwrap();
        assert_eq!(log.append(batch(2)).unwrap(), AppendOutcome::Duplicate);
        assert_eq!(log.tail_sn(), 2);
        // Same sn, different payload: loud failure.
        let divergent = JournalBatch::new(2, 999, vec![Txn::Mkdir { path: "/x".into() }]);
        assert_eq!(log.append(divergent).unwrap_err(), JournalError::Divergent { sn: 2 });
    }

    #[test]
    fn gaps_rejected() {
        let mut log = JournalLog::new();
        log.append(batch(1)).unwrap();
        assert_eq!(log.append(batch(3)).unwrap_err(), JournalError::Gap { tail: 1, offered: 3 });
    }

    #[test]
    fn read_after_returns_suffix() {
        let mut log = JournalLog::new();
        for sn in 1..=4 {
            log.append(batch(sn)).unwrap();
        }
        let tail = log.read_after(2).unwrap();
        assert_eq!(tail.iter().map(|b| b.sn).collect::<Vec<_>>(), vec![3, 4]);
        assert!(log.read_after(4).unwrap().is_empty());
        assert!(log.read_after(99).unwrap().is_empty());
    }

    #[test]
    fn compaction_moves_base_and_read_after_falls_back() {
        let mut log = JournalLog::new();
        for sn in 1..=6 {
            log.append(batch(sn)).unwrap();
        }
        log.compact_through(4);
        assert_eq!(log.base_sn(), 4);
        assert_eq!(log.tail_sn(), 6);
        assert_eq!(log.len(), 2);
        // Reads from before the base require an image.
        assert!(log.read_after(2).is_none());
        assert_eq!(log.read_after(4).unwrap().len(), 2);
        // Appends continue contiguously.
        log.append(batch(7)).unwrap();
        assert_eq!(log.tail_sn(), 7);
        assert_eq!(log.get(5).unwrap().sn, 5);
        assert!(log.get(4).is_none());
    }

    #[test]
    fn with_base_starts_after_checkpoint() {
        let mut log = JournalLog::with_base(10);
        assert_eq!(log.tail_sn(), 10);
        assert_eq!(
            log.append(batch(10)).unwrap(),
            AppendOutcome::Duplicate,
            "pre-base sn treated as duplicate"
        );
        log.append(batch(11)).unwrap();
        assert_eq!(log.tail_sn(), 11);
    }

    #[test]
    fn compact_past_tail_clamps() {
        let mut log = JournalLog::new();
        for sn in 1..=3 {
            log.append(batch(sn)).unwrap();
        }
        log.compact_through(10);
        assert_eq!(log.len(), 0);
        assert_eq!(log.tail_sn(), log.base_sn());
    }
}
