//! Pool protocol: the messages metadata servers exchange with pool nodes.

use bytes::Bytes;
use mams_journal::{DeltaImage, NamespaceImage, SharedBatch, Sn};

use crate::pool::{ArtifactId, Epoch, GroupId, Manifest, PoolError};

/// Correlates a response with its request (caller-chosen).
pub type ReqId = u64;

/// Requests served by a [`crate::PoolNode`].
#[derive(Debug, Clone)]
pub enum PoolReq {
    /// Append a journal batch under the writer's fencing epoch. The batch
    /// is a shared handle to the allocation the active sealed — carrying it
    /// here costs a reference-count bump, not a copy.
    AppendJournal { group: GroupId, epoch: Epoch, batch: SharedBatch, req: ReqId },
    /// Read up to `max` batches with sn > `after_sn`.
    ReadJournal { group: GroupId, after_sn: Sn, max: usize, req: ReqId },
    /// Checkpoint an image (starts a fresh manifest chain, drops the one it
    /// supersedes, and compacts the shared journal through its sn). Refused
    /// past the journal's tail.
    WriteImage { group: GroupId, epoch: Epoch, image: NamespaceImage, req: ReqId },
    /// Append a delta to the manifest chain (must chain onto its end, and
    /// end at or below the journal's tail).
    WriteDelta { group: GroupId, epoch: Epoch, delta: DeltaImage, req: ReqId },
    /// The checkpoint manifest chain (base + deltas).
    ReadManifest { group: GroupId, req: ReqId },
    /// A chunk of one manifest artifact (resumable transfer; base or delta).
    ReadArtifactChunk { group: GroupId, artifact: ArtifactId, offset: u64, len: u64, req: ReqId },
    /// Fence all writers with epoch < `to` (issued on lock grant).
    AdvanceEpoch { group: GroupId, to: Epoch, req: ReqId },
}

/// Responses from a [`crate::PoolNode`].
#[derive(Debug, Clone)]
pub enum PoolResp {
    AppendOk {
        group: GroupId,
        sn: Sn,
        duplicate: bool,
        req: ReqId,
    },
    /// `compacted` means the requested range predates the image checkpoint
    /// and the reader must load the image first.
    Journal {
        group: GroupId,
        batches: Vec<SharedBatch>,
        tail_sn: Sn,
        compacted: bool,
        req: ReqId,
    },
    ImageWritten {
        group: GroupId,
        checkpoint_sn: Sn,
        req: ReqId,
    },
    DeltaWritten {
        group: GroupId,
        end_sn: Sn,
        req: ReqId,
    },
    /// The manifest chain (empty when nothing has been checkpointed).
    ManifestInfo {
        group: GroupId,
        manifest: Manifest,
        req: ReqId,
    },
    ArtifactChunk {
        group: GroupId,
        artifact: ArtifactId,
        offset: u64,
        data: Bytes,
        total: u64,
        req: ReqId,
    },
    EpochAdvanced {
        group: GroupId,
        epoch: Epoch,
        req: ReqId,
    },
    Failed {
        group: GroupId,
        error: PoolError,
        req: ReqId,
    },
}

impl PoolResp {
    /// The request this response answers.
    pub fn req_id(&self) -> ReqId {
        match self {
            PoolResp::AppendOk { req, .. }
            | PoolResp::Journal { req, .. }
            | PoolResp::ImageWritten { req, .. }
            | PoolResp::DeltaWritten { req, .. }
            | PoolResp::ManifestInfo { req, .. }
            | PoolResp::ArtifactChunk { req, .. }
            | PoolResp::EpochAdvanced { req, .. }
            | PoolResp::Failed { req, .. } => *req,
        }
    }
}
