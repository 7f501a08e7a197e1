//! # mams-namespace — the metadata server's in-memory file system state
//!
//! A CFS/HDFS-style namespace: an inode tree of directories and files, the
//! metadata operations the paper benchmarks (`create`, `mkdir`, `delete`,
//! `rename`, `getfileinfo`), hash-based namespace partitioning across
//! multiple actives (Section III-A: "Hash-based methods are adopted for
//! namespace partitioning and metadata distribution"), namespace images
//! (checkpoints juniors load during renewing), and the block-location map
//! that data servers keep fresh on actives *and* standbys.
//!
//! Mutations are driven by [`mams_journal::Txn`] records so that live
//! execution on the active and journal replay on a standby run the exact
//! same code — the replay-determinism invariant the property tests check.

pub mod blocks;
pub mod delta;
pub mod image;
pub mod inode;
pub mod partition;
pub mod path;
pub mod retry;
pub mod shard;
pub mod tree;

pub use blocks::{BlockInfo, BlockMap};
pub use delta::{
    apply_delta, decode_delta, fold_delta, fold_delta_with_window, DecodedDelta, DeltaEntry,
    DeltaImage, DeltaNamespace, DeltaOp, DELTA_MAGIC, DELTA_VERSION,
};
pub use image::{
    decode_image, decode_image_with_window, encode_image, encode_image_with_window,
    estimated_image_bytes, DecodedImage, ImageError, NamespaceImage, StreamingImageDecoder,
    VERSION_V2,
};
pub use inode::{FileInfo, Inode, InodeId, InodeSource, Name};
pub use partition::Partitioner;
pub use retry::{replay_outcome, RetryEntry, RetryOutcome, RetryWindow, DEFAULT_WINDOW_CAP};
pub use shard::{CacheStats, InodesAt, ShardedNamespace, ShardedReplaySession, SnapshotView};
pub use tree::{NamespaceTree, NsError};
