//! Shared machinery for baseline namenodes: operation execution, batching,
//! reply caching, and the scale model.

use mams_core::{FsOp, MdsResp, OpOutput};
use mams_journal::{JournalBatch, ReplayCursor, Sn, Txn};
use mams_namespace::{ImageError, NamespaceImage, NamespaceTree};
use mams_sim::{Ctx, NodeId};

/// File-system scale for experiments that cannot materialize millions of
/// inodes. Derived from the paper's calibration point: a ~1 GB image holds
/// "more than 7 million files" (Section IV-B), i.e. ~150 B of image per
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsScale {
    pub nominal_files: u64,
}

impl FsScale {
    pub const BYTES_PER_FILE: u64 = 150;

    pub fn from_image_bytes(image_bytes: u64) -> Self {
        FsScale { nominal_files: image_bytes / Self::BYTES_PER_FILE }
    }

    pub fn from_image_mb(image_mb: u64) -> Self {
        Self::from_image_bytes(image_mb * 1024 * 1024)
    }

    pub fn image_bytes(&self) -> u64 {
        self.nominal_files * Self::BYTES_PER_FILE
    }
}

/// A namenode checkpoint: the fsimage a restarting or taking-over node
/// reloads (HDFS `-importCheckpoint` style), plus the block-id cursor that
/// rides alongside it. Saved in the current wire format; images saved
/// before the v2 cutover restore through the same call (the decoder
/// dispatches on the version byte).
#[derive(Debug, Clone)]
pub struct SavedCheckpoint {
    pub image: NamespaceImage,
    pub next_block: u64,
}

impl SavedCheckpoint {
    /// Snapshot the namespace as a current-format image.
    pub fn save(ns: &NamespaceTree, next_block: u64, sn: Sn) -> SavedCheckpoint {
        SavedCheckpoint { image: mams_namespace::encode_image(ns, sn), next_block }
    }

    /// Reload the image into a fresh namespace.
    pub fn restore(&self) -> Result<(NamespaceTree, Sn), ImageError> {
        mams_namespace::decode_image(self.image.data.clone())
    }
}

/// Execute one client operation against a namespace, producing the journal
/// record for mutations. Identical semantics to the MAMS active's execution
/// path, so all systems agree on op outcomes.
pub fn exec_op(
    ns: &mut NamespaceTree,
    next_block: &mut u64,
    op: &FsOp,
) -> Result<(Option<Txn>, OpOutput), String> {
    match op {
        FsOp::GetFileInfo { path } => {
            ns.getfileinfo(path).map(|i| (None, OpOutput::Info(i))).map_err(|e| e.to_string())
        }
        FsOp::List { path } => {
            ns.list(path).map(|l| (None, OpOutput::Listing(l))).map_err(|e| e.to_string())
        }
        FsOp::Create { path, replication } => ns
            .create(path, *replication)
            .map(|i| {
                (
                    Some(Txn::Create { path: path.clone(), replication: *replication }),
                    OpOutput::Info(i),
                )
            })
            .map_err(|e| e.to_string()),
        FsOp::Mkdir { path } => ns
            .mkdir(path)
            .map(|()| (Some(Txn::Mkdir { path: path.clone() }), OpOutput::Done))
            .map_err(|e| e.to_string()),
        FsOp::Delete { path, recursive } => ns
            .delete(path, *recursive)
            .map(|_| {
                (Some(Txn::Delete { path: path.clone(), recursive: *recursive }), OpOutput::Done)
            })
            .map_err(|e| e.to_string()),
        FsOp::Rename { src, dst } => ns
            .rename(src, dst)
            .map(|()| (Some(Txn::Rename { src: src.clone(), dst: dst.clone() }), OpOutput::Done))
            .map_err(|e| e.to_string()),
        FsOp::AddBlock { path, len } => {
            let id = *next_block;
            ns.add_block(path, id)
                .map(|()| {
                    *next_block += 1;
                    (
                        Some(Txn::AddBlock { path: path.clone(), block_id: id, len: *len }),
                        OpOutput::Block(id),
                    )
                })
                .map_err(|e| e.to_string())
        }
        FsOp::CloseFile { path } => ns
            .close_file(path)
            .map(|()| (Some(Txn::CloseFile { path: path.clone() }), OpOutput::Done))
            .map_err(|e| e.to_string()),
        FsOp::SetPerm { path, perm } => ns
            .set_perm(path, *perm)
            .map(|()| (Some(Txn::SetPerm { path: path.clone(), perm: *perm }), OpOutput::Done))
            .map_err(|e| e.to_string()),
    }
}

/// Journal replay for a baseline standby: the reference per-record
/// [`NamespaceTree::apply`], plus the block-id high-water mark every
/// namenode keeps alongside its namespace. A baseline's replay CPU is
/// modelled, so the apply loop's own speed is not part of any comparison.
pub struct StandbyReplayer;

impl StandbyReplayer {
    /// Offer one batch to `cursor`, applying the in-order records and
    /// advancing the block-id high-water mark.
    pub fn offer(
        cursor: &mut ReplayCursor,
        ns: &mut NamespaceTree,
        next_block: &mut u64,
        batch: &JournalBatch,
    ) {
        cursor.offer(batch, &mut |_, t: &Txn| {
            let _ = ns.apply(t);
            if let Txn::AddBlock { block_id, .. } = t {
                *next_block = (*next_block).max(*block_id + 1);
            }
        });
    }
}

/// Re-exported duplicate-suppression cache (same type MAMS uses, so every
/// system handles retried requests identically).
pub use mams_core::retry::RetryCache;

/// A client reply waiting on durability: `(client, seq, result)`.
pub type PendingReply = (NodeId, u64, Result<OpOutput, String>);

/// Reply to a client, updating the retry cache. The response is built
/// behind `Arc` once; the cache entry and the wire message share it.
pub fn reply(
    cache: &mut RetryCache,
    ctx: &mut Ctx<'_>,
    to: NodeId,
    seq: u64,
    result: Result<OpOutput, String>,
) {
    let resp = std::sync::Arc::new(MdsResp::Reply { seq, result });
    cache.store(to, seq, resp.clone());
    ctx.send(to, resp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_calibration_matches_paper() {
        let s = FsScale::from_image_mb(1024);
        assert!(
            (6_500_000..8_000_000).contains(&s.nominal_files),
            "1 GB ↔ ~7M files, got {}",
            s.nominal_files
        );
        assert_eq!(FsScale { nominal_files: 10 }.image_bytes(), 1_500);
    }

    #[test]
    fn checkpoint_saves_v2_and_restores_identically() {
        let mut ns = NamespaceTree::new();
        ns.mkdir_p("/srv/data").unwrap();
        for i in 0..10 {
            ns.create(&format!("/srv/data/f{i}"), 3).unwrap();
            ns.add_block(&format!("/srv/data/f{i}"), 100 + i).unwrap();
        }
        let cp = SavedCheckpoint::save(&ns, 111, 42);
        assert_eq!(cp.image.version(), Some(mams_namespace::VERSION_V2));
        let (restored, sn) = cp.restore().unwrap();
        assert_eq!(sn, 42);
        assert_eq!(cp.next_block, 111);
        assert_eq!(restored.fingerprint(), ns.fingerprint());
    }

    #[test]
    fn exec_op_matches_tree_semantics() {
        let mut ns = NamespaceTree::new();
        let mut nb = 1u64;
        let (txn, _) = exec_op(&mut ns, &mut nb, &FsOp::Mkdir { path: "/a".into() }).unwrap();
        assert!(matches!(txn, Some(Txn::Mkdir { .. })));
        let (txn, out) =
            exec_op(&mut ns, &mut nb, &FsOp::Create { path: "/a/f".into(), replication: 2 })
                .unwrap();
        assert!(matches!(txn, Some(Txn::Create { .. })));
        assert!(matches!(out, OpOutput::Info(_)));
        let (txn, _) =
            exec_op(&mut ns, &mut nb, &FsOp::GetFileInfo { path: "/a/f".into() }).unwrap();
        assert!(txn.is_none(), "reads are not journaled");
        let err = exec_op(&mut ns, &mut nb, &FsOp::Mkdir { path: "/a".into() }).unwrap_err();
        assert!(err.contains("already exists"));
        // Block allocation advances the counter.
        exec_op(&mut ns, &mut nb, &FsOp::AddBlock { path: "/a/f".into(), len: 42 }).unwrap();
        assert_eq!(nb, 2);
    }
}
