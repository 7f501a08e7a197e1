//! Reference-counted journal batches with an encode-once wire form.
//!
//! The active seals a pending batch exactly once per flush; after that the
//! batch is immutable and every consumer — the active's own log, each
//! standby's `SyncJournal` message, the SSP append, the retry and renewing
//! paths — holds the *same* allocation. [`SharedBatch`] makes that sharing
//! explicit: it is a cheap `Arc` handle around the decoded
//! [`JournalBatch`] plus a lazily-computed [`Bytes`] wire encoding that is
//! produced at most once per batch, no matter how many replicas it is
//! shipped to.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::encode::encode_batch;
use crate::txn::JournalBatch;

#[derive(Debug)]
struct Inner {
    batch: JournalBatch,
    /// Wire/disk encoding, computed on first use and reused for every
    /// subsequent ship or durable write of this batch.
    wire: OnceLock<Bytes>,
}

/// An immutable, shareable journal batch.
///
/// Dereferences to [`JournalBatch`], so read-only call sites (`batch.sn`,
/// `batch.entries()`, `batch.weight()`) are unchanged. Fan-out call sites
/// use [`SharedBatch::share`] — a reference-count bump — instead of deep
/// cloning records and path strings.
#[derive(Debug, Clone)]
pub struct SharedBatch {
    inner: Arc<Inner>,
}

impl SharedBatch {
    /// Wrap a freshly built batch. The wire form is computed lazily on the
    /// first [`wire`](Self::wire) call.
    pub fn new(batch: JournalBatch) -> Self {
        SharedBatch { inner: Arc::new(Inner { batch, wire: OnceLock::new() }) }
    }

    /// Wrap and immediately seal: the batch is encoded here, exactly once,
    /// and never again for its lifetime. This is what `flush_batch` uses.
    pub fn sealed(batch: JournalBatch) -> Self {
        let shared = SharedBatch::new(batch);
        shared.wire();
        shared
    }

    /// Another handle to the same batch — a reference-count bump, not a
    /// copy. Named distinctly from `clone` so hot-path code reads as
    /// sharing.
    pub fn share(&self) -> SharedBatch {
        SharedBatch { inner: Arc::clone(&self.inner) }
    }

    /// The wire encoding, computed at most once per batch.
    pub fn wire(&self) -> &Bytes {
        self.inner.wire.get_or_init(|| encode_batch(&self.inner.batch))
    }

    /// The decoded batch.
    pub fn batch(&self) -> &JournalBatch {
        &self.inner.batch
    }

    /// Whether two handles point at the same allocation.
    pub fn ptr_eq(a: &SharedBatch, b: &SharedBatch) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

impl Deref for SharedBatch {
    type Target = JournalBatch;

    fn deref(&self) -> &JournalBatch {
        &self.inner.batch
    }
}

impl From<JournalBatch> for SharedBatch {
    fn from(batch: JournalBatch) -> Self {
        SharedBatch::new(batch)
    }
}

/// Equality is over batch *contents* (divergence detection compares
/// payloads, not handles); identical handles short-circuit.
impl PartialEq for SharedBatch {
    fn eq(&self, other: &SharedBatch) -> bool {
        SharedBatch::ptr_eq(self, other) || self.inner.batch == other.inner.batch
    }
}

impl Eq for SharedBatch {}

impl PartialEq<JournalBatch> for SharedBatch {
    fn eq(&self, other: &JournalBatch) -> bool {
        self.inner.batch == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode_batch;
    use crate::txn::Txn;

    fn sample(sn: u64) -> JournalBatch {
        JournalBatch::new(
            sn,
            sn * 10,
            vec![
                Txn::Create { path: format!("/a/f{sn}"), replication: 3 },
                Txn::Rename { src: format!("/a/f{sn}"), dst: format!("/b/f{sn}") },
            ],
        )
    }

    #[test]
    fn share_is_the_same_allocation() {
        let a = SharedBatch::new(sample(1));
        let b = a.share();
        assert!(SharedBatch::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(b.sn, 1, "deref reaches batch fields");
    }

    #[test]
    fn sealed_encodes_once_and_wire_round_trips() {
        let shared = SharedBatch::sealed(sample(7));
        let w1 = shared.wire().clone();
        let w2 = shared.share().wire().clone();
        // Bytes clones of the same encoding share the same buffer.
        assert_eq!(w1.as_ptr(), w2.as_ptr(), "wire computed exactly once");
        assert_eq!(decode_batch(w1).unwrap(), *shared.batch());
    }

    #[test]
    fn equality_is_by_content_across_allocations() {
        let a = SharedBatch::new(sample(4));
        let b = SharedBatch::new(sample(4));
        assert!(!SharedBatch::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let c = SharedBatch::new(sample(5));
        assert_ne!(a, c);
    }
}
