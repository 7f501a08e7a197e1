//! # mams-storage — the shared storage pool (SSP)
//!
//! The paper's SSP is "built on existing active or backup servers and needs
//! no additional device or third-party software support" (Section III-A):
//! the active writes metadata modifications and namespace images
//! sequentially as shared files in the pool; standbys synchronize journals
//! through it; juniors read images and journal tails from it during
//! renewing, preferably from a local pool replica.
//!
//! The model here:
//!
//! * [`PoolState`] — the durable, pool-wide contents (per-replica-group
//!   journal segments, the checkpoint chain, fencing epoch). It survives any
//!   single node crash, exactly like the paper's replicated pool, and is
//!   shared by every [`PoolNode`]. It stores bytes: the active formats every
//!   image and delta, and the pool never decodes one.
//! * [`PoolNode`] — a cluster node serving the pool protocol with a disk
//!   latency model, so access costs show up in virtual time.
//! * [`proto`] — the request/response vocabulary.
//! * Fencing — every write carries the writer's view epoch; writes from a
//!   deposed active (stale epoch) are refused, implementing the paper's "no
//!   scenario that two metadata servers access the same shared file
//!   simultaneously" IO-fencing guarantee.

pub mod disk;
pub mod node;
pub mod pool;
pub mod proto;

pub use disk::DiskModel;
pub use node::PoolNode;
pub use pool::{
    ArtifactId, ArtifactKind, GroupStore, Manifest, ManifestEntry, PoolError, PoolState, SharedPool,
};
pub use proto::{PoolReq, PoolResp, ReqId};
