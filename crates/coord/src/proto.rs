//! Coordination protocol messages.

/// Correlates responses with requests.
pub type ReqId = u64;

/// One key mutation inside an atomic multi-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyOp {
    /// Set `key` to `value` (`ephemeral` ties it to the caller's session).
    Set { key: String, value: String, ephemeral: bool },
    /// Delete `key` (no-op if absent).
    Delete { key: String },
    /// Delete `key` only if it currently holds `value`. Cleanup writes from
    /// a deposed active use this so a delayed or duplicated delete can never
    /// clobber a successor's freshly published pointer.
    DeleteIfValue { key: String, value: String },
}

/// Client → server requests.
#[derive(Debug, Clone)]
pub enum CoordReq {
    /// Open (or refresh) a session for the sender.
    Register,
    /// Keep the sender's session alive.
    Heartbeat,
    /// Atomically apply several key operations.
    Multi { ops: Vec<KeyOp>, req: ReqId },
    /// Read one key.
    Get { key: String, req: ReqId },
    /// List `(key, value)` pairs under a prefix.
    List { prefix: String, req: ReqId },
    /// Subscribe to changes under a prefix (persistent watch).
    Watch { prefix: String, req: ReqId },
    /// Try to take the lock at `path`. Grants carry a fencing epoch.
    AcquireLock { path: String, req: ReqId },
    /// Release a held lock. `epoch` must match the grant being released:
    /// a delayed or duplicated release from an earlier tenure carries a
    /// stale epoch and must not free a lock the sender has since
    /// re-acquired.
    ReleaseLock { path: String, epoch: u64, req: ReqId },
    /// Harness-only: drop `victim`'s session ("modifying the global view to
    /// make the active lose the lock", Test A).
    ForceExpire { victim: u32 },
}

/// Server → client responses.
#[derive(Debug, Clone)]
pub enum CoordResp {
    Registered,
    MultiOk {
        req: ReqId,
    },
    Value {
        key: String,
        value: Option<String>,
        req: ReqId,
    },
    Listing {
        prefix: String,
        entries: Vec<(String, String)>,
        req: ReqId,
    },
    Watching {
        prefix: String,
        req: ReqId,
    },
    LockGranted {
        path: String,
        epoch: u64,
        req: ReqId,
    },
    LockBusy {
        path: String,
        holder: u32,
        req: ReqId,
    },
    LockReleased {
        path: String,
        req: ReqId,
    },
    /// The sender has no live session (it must re-register).
    NoSession,
}

/// Server → watcher pushed events.
#[derive(Debug, Clone)]
pub enum CoordEvent {
    /// A watched key changed (`None` value = deleted). `by_expiry` marks
    /// changes caused by a session timeout rather than an explicit request.
    KeyChanged { key: String, value: Option<String>, by_expiry: bool },
    /// A watched lock was released (by request or expiry); watchers may race
    /// to acquire it.
    LockFreed { path: String, by_expiry: bool },
    /// A watched lock was granted to `holder` with `epoch`.
    LockTaken { path: String, holder: u32, epoch: u64 },
    /// The receiver's own session expired (it must re-register and rejoin).
    SessionExpired,
}
