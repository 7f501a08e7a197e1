//! What a metadata server records in the protocol trace. Figure 7 reads
//! the failover stages back from it, the campaign its divergence invariant,
//! and the tests the renewing and checkpoint paths a run went through.

use mams_journal::Sn;
use mams_namespace::ImageError;
use mams_sim::{Duration, Event, NodeId};
use mams_storage::pool::{ArtifactId, Epoch};
use mams_storage::proto::PoolResp;

use crate::proto::Xid;

/// One metadata-server event. `FailureDetected` is where Figure 7's clock
/// starts: the member saw the active vanish from the view. `Diverged` is a
/// failed replay of an acknowledged record (recorded once per replica);
/// `ResetDivergent` is the legitimate discard of a suffix past the pool's
/// tail that no client was acknowledged for. `Registered` is the active's
/// verdict as the member hears it, `MemberRegistered` the active's side.
/// `SwitchAborted`: a junior won the lock while standbys exist and gives it
/// back. `PoolResync`: a batch the deposed active synced to us is offered to
/// the pool again. `DeltaRechain`: the pool's chain moved under us, so the
/// next artifact is a full image.
#[derive(Debug)]
pub enum MdsTrace {
    // ---- failover, on the member that takes over (DESIGN §13)
    FailureDetected,
    ElectionStarted { bid: u64 },
    BidWon { bid: u64 },
    SwitchAborted,
    LockAcquired { epoch: Epoch },
    SwitchDone { sn: Sn },
    PoolResync { sn: Sn },
    UpgradeRetry,
    SelfFenced { silent: Duration },
    Degraded { reason: &'static str },
    SpeculativeDiscarded { pending: usize, inflight: usize },

    // ---- membership
    Registered { as_standby: bool },
    ResetDivergent { sn: Sn, tail: Sn },
    Diverged { count: u64 },
    MemberRegistered { member: NodeId, sn: Sn, tail: Sn, as_standby: bool },

    // ---- the active's commit pipeline
    OooRelease { replies: u64 },
    LegFailed { xid: Xid, group: u32 },
    AppendFenced { sn: Sn },
    AppendFailed(PoolResp),
    CheckpointStarted { sn: Sn, bytes: u64 },
    CheckpointDone { sn: Sn },
    DeltaStarted { anchor: Sn, end: Sn, entries: u64, bytes: u64 },
    DeltaDone { sn: Sn },
    DeltaRechain,
    DeltaFailed(PoolResp),

    // ---- renewing, the active's side (DESIGN §14)
    RenewStarted { junior: NodeId, sn: Sn, tip: Sn },
    RenewStalled { junior: NodeId },
    FinalSync { junior: NodeId, batches: usize, tail: Sn },
    JuniorPromoted { junior: NodeId },

    // ---- renewing, the junior's side
    RenewBegin { gap: Sn },
    RenewResumed { idx: usize, offset: u64 },
    ChainPlanned { artifacts: usize, bytes: u64, applied: Sn, chain_end: Sn },
    ManifestFailed(PoolResp),
    ManifestStale { artifact: ArtifactId },
    ChunkFailed(PoolResp),
    ImageCorrupt(ImageError),
    ImageLoaded { sn: Sn },
    DeltaApplied { sn: Sn },
    DeltaCorrupt(String),
    PageFailed(PoolResp),
}

impl Event for MdsTrace {}
