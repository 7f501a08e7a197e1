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

use mams_core::{FsOp, OpOutput};
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
    /// What the client accepted (`true` includes reconciled retries).
    pub ok: Option<bool>,
    /// Successful output, when the server replied `Ok`.
    pub output: Option<OpOutput>,
    /// Raw error string, when the server replied `Err` — kept even for
    /// reconciled retries so the checker sees the real response.
    pub error: Option<String>,
    /// Send attempts made (1 = no retry; >1 means the op may have executed
    /// more than once server-side across a failover).
    pub attempts: u32,
    /// The client turned an `Err` reply into a success because it matched
    /// its own earlier half-acked execution (retry reconciliation).
    pub reconciled: bool,
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
            output: None,
            error: None,
            attempts: 0,
            reconciled: false,
            is_setup,
        });
        r.len() - 1
    }

    /// Patch the completion side of record `idx`.
    pub fn complete(
        &self,
        idx: usize,
        at_us: u64,
        result: &Result<OpOutput, String>,
        ok: bool,
        attempts: u32,
    ) {
        let mut r = self.records.lock();
        let rec = &mut r[idx];
        rec.completed_us = Some(at_us);
        rec.ok = Some(ok);
        rec.attempts = attempts;
        match result {
            Ok(out) => rec.output = Some(out.clone()),
            Err(e) => {
                rec.error = Some(e.clone());
                rec.reconciled = ok;
            }
        }
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
        h.complete(i, 250, &Ok(OpOutput::Done), true, 1);
        let r = h.records();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].client, 3);
        assert_eq!(r[0].invoked_us, 100);
        assert_eq!(r[0].completed_us, Some(250));
        assert_eq!(r[0].ok, Some(true));
        assert!(!r[0].reconciled);
    }

    #[test]
    fn reconciled_errors_keep_the_raw_error() {
        let h = History::new();
        let i = h.invoke(0, FsOp::Delete { path: "/f".into(), recursive: false }, false, 1);
        h.complete(i, 9, &Err("/f: no such file or directory".into()), true, 3);
        let r = &h.records()[0];
        assert_eq!(r.ok, Some(true));
        assert!(r.reconciled);
        assert_eq!(r.attempts, 3);
        assert!(r.error.as_deref().unwrap().contains("no such file"));
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
