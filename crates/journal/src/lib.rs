//! # mams-journal — edit-log transactions, batches, and the log
//!
//! The MAMS active serializes every namespace mutation into a journal. Log
//! records are grouped into batches described by the pair `⟨sn, txid⟩`
//! (Section III-A of the paper): `sn` is a monotonically increasing serial
//! number assigned by the active when it writes journals, and `txid` numbers
//! individual transactions. Standbys replay batches to stay hot; juniors
//! compare `sn` values to discover how far behind they are; the failover
//! protocol suppresses duplicate batches by comparing `sn` (step 4 of the
//! active-standby switch).
//!
//! This crate owns:
//! * [`Txn`] — the namespace operation vocabulary,
//! * [`JournalBatch`] — a `⟨sn, txid⟩`-described group of records,
//! * [`encode`] — a compact binary wire/disk format with checksums,
//! * [`JournalLog`] — an in-memory segment enforcing sn contiguity and
//!   idempotent appends,
//! * [`SharedBatch`] — a reference-counted batch handle with an encode-once
//!   wire form, so fan-out to standbys and the SSP never deep-copies.
//!
//! Applying batches to a namespace — step 4's "only if `sn` is larger than
//! the current maximum" included — is `mams_core::Prefix::ingest`, the one
//! replay every node of every deployment runs.

pub mod encode;
pub mod hash;
pub mod log;
pub mod shared;
pub mod txn;

pub use encode::{decode_batch, encode_batch, EncodeError};
pub use hash::{fnv1a64, peek_varint, Fnv1a64, HashingBuf, Varint};
pub use log::{AppendOutcome, JournalError, JournalLog};
pub use shared::SharedBatch;
pub use txn::{AckRecord, JournalBatch, Sn, Txn, TxnId};
