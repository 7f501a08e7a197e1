//! Per-client operation histories for linearizability checking.
//!
//! Each [`FsClient`](crate::client::FsClient) built with a [`Recorder`]
//! logs every operation's invocation and completion (virtual-time stamped)
//! into a shared [`History`]. The chaos checker replays these records
//! against a sequential model of the metadata service.
//!
//! Clients are closed-loop (one outstanding operation), so each client's
//! records form a sequential sub-history; an operation still outstanding
//! when the run ends keeps `completed_us: None` — the checker treats such
//! mutations as "may or may not have executed".

use std::sync::Arc;

use mams_core::{FsOp, NsError, OpOutput};
use parking_lot::Mutex;

/// One invocation (and, usually, its completion) as the client saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Recorder-assigned client id (dense, not the sim node id).
    pub client: u32,
    pub op: FsOp,
    pub invoked_us: u64,
    /// `None` = still outstanding when the run ended.
    pub completed_us: Option<u64>,
    /// What the client accepted. `Some(true)` beside an `Err` is a retry
    /// reconciled with its own earlier, half-acked execution (or the setup
    /// mkdir finding its directory).
    pub ok: Option<bool>,
    /// The server's reply as it arrived, `None` while outstanding; the
    /// checker sees a reconciled retry's real response.
    pub result: Option<Result<OpOutput, NsError>>,
    /// Send attempts made (1 = no retry; >1 means the op may have executed
    /// more than once server-side across a failover).
    pub attempts: u32,
    /// The private-directory setup mkdir (idempotent by construction).
    pub is_setup: bool,
}

/// Shared, append-only history. Indexes returned by [`History::invoke`] are
/// stable — completions patch records in place.
#[derive(Debug, Default)]
pub struct History {
    records: Mutex<Vec<OpRecord>>,
}

impl History {
    pub fn new() -> Arc<History> {
        Arc::new(History::default())
    }

    /// Record an invocation; returns the index to complete later.
    pub fn invoke(&self, client: u32, op: FsOp, is_setup: bool, at_us: u64) -> usize {
        let mut r = self.records.lock();
        r.push(OpRecord {
            client,
            op,
            invoked_us: at_us,
            completed_us: None,
            ok: None,
            result: None,
            attempts: 0,
            is_setup,
        });
        r.len() - 1
    }

    /// Patch the completion side of record `idx`.
    pub fn complete(
        &self,
        idx: usize,
        at_us: u64,
        result: Result<OpOutput, NsError>,
        ok: bool,
        attempts: u32,
    ) {
        let mut r = self.records.lock();
        let rec = &mut r[idx];
        rec.completed_us = Some(at_us);
        rec.ok = Some(ok);
        rec.attempts = attempts;
        rec.result = Some(result);
    }

    /// Snapshot of all records (invocation order).
    pub fn records(&self) -> Vec<OpRecord> {
        self.records.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

/// A client's handle into a shared history.
#[derive(Debug, Clone)]
pub struct Recorder {
    pub client: u32,
    pub log: Arc<History>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_then_complete_round_trip() {
        let h = History::new();
        let i = h.invoke(3, FsOp::Mkdir { path: "/x".into() }, false, 100);
        h.complete(i, 250, Ok(OpOutput::Done), true, 1);
        let r = h.records();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].client, 3);
        assert_eq!(r[0].invoked_us, 100);
        assert_eq!(r[0].completed_us, Some(250));
        assert_eq!((r[0].ok, &r[0].result), (Some(true), &Some(Ok(OpOutput::Done))));
    }

    #[test]
    fn reconciled_errors_keep_the_raw_error() {
        let h = History::new();
        let i = h.invoke(0, FsOp::Delete { path: "/f".into(), recursive: false }, false, 1);
        let missing = NsError::NotFound("/f".into());
        h.complete(i, 9, Err(missing.clone()), true, 3);
        let r = &h.records()[0];
        assert_eq!(r.ok, Some(true));
        assert_eq!(r.attempts, 3);
        assert_eq!(r.result, Some(Err(missing)));
    }

    #[test]
    fn outstanding_ops_stay_incomplete() {
        let h = History::new();
        h.invoke(1, FsOp::Create { path: "/f".into(), replication: 1 }, false, 5);
        let r = &h.records()[0];
        assert_eq!(r.completed_us, None);
        assert_eq!(r.ok, None);
    }
}
