//! Client ↔ MDS and intra-group protocol messages.

use mams_journal::{SharedBatch, Sn};
use mams_namespace::FileInfo;
use mams_sim::NodeId;
use mams_storage::pool::Epoch;

/// A metadata operation as issued by a client. The first five are exactly
/// the operations benchmarked in the paper (Figure 5/6); the rest round out
/// a usable file-system API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    Create { path: String, replication: u8 },
    Mkdir { path: String },
    Delete { path: String, recursive: bool },
    Rename { src: String, dst: String },
    GetFileInfo { path: String },
    List { path: String },
    AddBlock { path: String, len: u32 },
    CloseFile { path: String },
    SetPerm { path: String, perm: u16 },
}

impl FsOp {
    /// Whether this operation mutates the namespace (and therefore must be
    /// journaled and synchronized).
    pub fn is_mutation(&self) -> bool {
        !matches!(self, FsOp::GetFileInfo { .. } | FsOp::List { .. })
    }

    /// Path used for partition routing (the rename source, like
    /// `Txn::primary_path`).
    pub fn primary_path(&self) -> &str {
        match self {
            FsOp::Create { path, .. }
            | FsOp::Mkdir { path }
            | FsOp::Delete { path, .. }
            | FsOp::GetFileInfo { path }
            | FsOp::List { path }
            | FsOp::AddBlock { path, .. }
            | FsOp::CloseFile { path }
            | FsOp::SetPerm { path, .. } => path,
            FsOp::Rename { src, .. } => src,
        }
    }

    /// Whether the op is one of the paper's distributed transactions
    /// (structural: must execute on every replica group).
    pub fn is_structural(&self) -> bool {
        matches!(self, FsOp::Mkdir { .. } | FsOp::Delete { .. } | FsOp::Rename { .. })
    }
}

/// Successful operation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    Done,
    Info(FileInfo),
    Listing(Vec<String>),
    /// Block id allocated by `AddBlock`.
    Block(u64),
}

/// Client → MDS requests.
#[derive(Debug, Clone)]
pub enum MdsReq {
    /// `seq` is a per-client monotonically increasing number; the server
    /// remembers the last replies per client so a retried mutation is
    /// answered from the cache instead of re-executed (duplicate handling;
    /// a retried read is executed again). `acked`
    /// is the client's cumulative receipt watermark — every reply with seq
    /// ≤ `acked` has reached it — letting the server evict exactly the
    /// cache entries the client can never retry, instead of guessing by
    /// age.
    Op { op: FsOp, seq: u64, acked: u64 },
    /// Admin: checkpoint the namespace image to the SSP.
    Checkpoint,
    /// Data-server block report: the complete set of blocks this server
    /// holds. Every member drops it on arrival, since no block location is
    /// modelled; it stays only because `bench_e2e` builds its own data
    /// servers, and goes with them (ROADMAP item 1(g)).
    BlockReport { server: u32, blocks: Vec<u64> },
}

/// MDS → client responses.
#[derive(Debug, Clone)]
pub enum MdsResp {
    Reply {
        seq: u64,
        result: Result<OpOutput, String>,
    },
    /// The receiver is not the active for this group; the client should
    /// re-resolve the active from the global view and retry.
    NotActive {
        seq: u64,
    },
}

impl MdsResp {
    /// Extract a response from a wire message, accepting both the owned
    /// form a read's reply is sent in — taken on the first downcast, with
    /// nothing copied — and the shared `Arc` form of a mutation's reply,
    /// copied while the retry cache still holds it.
    pub fn from_message(msg: mams_sim::Message) -> Result<MdsResp, mams_sim::Message> {
        match msg.downcast::<MdsResp>() {
            Ok(r) => Ok(r),
            Err(m) => match m.downcast::<std::sync::Arc<MdsResp>>() {
                Ok(a) => Ok(std::sync::Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())),
                Err(m) => Err(m),
            },
        }
    }
}

/// A distributed transaction's id: the coordinating group, the fencing
/// epoch of the lock grant its coordinator served under, and a count within
/// that tenure. The grant is state the whole group agrees on, so neither a
/// successor, a zombie nor a later tenure of the same member can mint an id
/// again, and no counter has to outlive a process. (The epoch counts one
/// group's lock grants; 32 bits of it keep an id at the 16 bytes every leg,
/// reply slot and `xg_seen` entry carries.)
pub type Xid = (u32, u32, u64);

/// Intra-replica-group messages.
#[derive(Debug, Clone)]
pub enum GroupMsg {
    /// Active → members: journal synchronization (the "modified two-phase
    /// commit": the SSP append is the durable record, member acks are the
    /// commit votes the active waits for before answering clients). Every
    /// standby's message shares the one batch allocation the active sealed.
    SyncJournal { epoch: Epoch, batch: SharedBatch },
    /// Member → active: applied through `sn` (duplicate-suppressed).
    SyncAck { sn: Sn },
    /// Member → (new) active after a view change: step 5 registration,
    /// carrying the member's journal position.
    Register { sn: Sn },
    /// Active → member: registration verdict.
    RegisterAck { as_standby: bool, epoch: Epoch, tail_sn: Sn },
    /// Active → junior: begin renewing towards `tip_sn`.
    RenewStart { tip_sn: Sn },
    /// Junior → active: catch-up progress (pool phase).
    RenewProgress { sn: Sn },
    /// Active → junior: the final-synchronization journal range (shared
    /// handles into the active's log — no copy per junior).
    RenewJournal { epoch: Epoch, batches: Vec<SharedBatch> },
    /// Coordinator active → other groups' actives: apply a structural
    /// transaction (distributed transaction leg); the participant
    /// suppresses duplicates by `xid`.
    XGroupApply { xid: Xid, txn: mams_journal::Txn },
    /// Reply to `XGroupApply` once the leg is durable in that group.
    XGroupAck { xid: Xid, group: u32, ok: bool },
}

#[allow(unused)]
fn _assert_send() {
    fn is_send<T: Send>() {}
    is_send::<MdsReq>();
    is_send::<MdsResp>();
    is_send::<GroupMsg>();
    let _ = NodeId::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_classification() {
        assert!(FsOp::Create { path: "/f".into(), replication: 1 }.is_mutation());
        assert!(FsOp::Rename { src: "/a".into(), dst: "/b".into() }.is_mutation());
        assert!(!FsOp::GetFileInfo { path: "/f".into() }.is_mutation());
        assert!(!FsOp::List { path: "/".into() }.is_mutation());
    }

    #[test]
    fn structural_matches_paper_distributed_txns() {
        assert!(FsOp::Mkdir { path: "/d".into() }.is_structural());
        assert!(FsOp::Delete { path: "/d".into(), recursive: true }.is_structural());
        assert!(FsOp::Rename { src: "/a".into(), dst: "/b".into() }.is_structural());
        assert!(!FsOp::Create { path: "/f".into(), replication: 1 }.is_structural());
        assert!(!FsOp::AddBlock { path: "/f".into(), len: 1 }.is_structural());
    }

    #[test]
    fn rename_routes_by_source() {
        assert_eq!(FsOp::Rename { src: "/s".into(), dst: "/d".into() }.primary_path(), "/s");
    }
}
