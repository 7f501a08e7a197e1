//! A pool node: serves the pool protocol over the simulated network with a
//! disk latency model.
//!
//! State mutations are applied at request arrival (so fencing decisions
//! follow arrival order, like a real single-writer shared file) and the
//! response is delayed by the modeled disk time, which is what the
//! requester's clock observes.

use std::collections::HashMap;

use mams_sim::{Ctx, Duration, Message, Node, NodeId};

use crate::disk::DiskModel;
use crate::pool::{PoolError, SharedPool};
use crate::proto::{PoolReq, PoolResp};

/// A member of the shared storage pool.
pub struct PoolNode {
    pool: SharedPool,
    journal_disk: DiskModel,
    image_disk: DiskModel,
    pending: HashMap<u64, (NodeId, PoolResp)>,
    next_token: u64,
}

impl PoolNode {
    pub fn new(pool: SharedPool) -> Self {
        PoolNode {
            pool,
            journal_disk: DiskModel::journal_disk(),
            image_disk: DiskModel::image_disk(),
            pending: HashMap::new(),
            next_token: 0,
        }
    }

    /// Override the disk profiles (ablation benches).
    pub fn with_disks(mut self, journal: DiskModel, image: DiskModel) -> Self {
        self.journal_disk = journal;
        self.image_disk = image;
        self
    }

    fn reply_after(&mut self, ctx: &mut Ctx<'_>, to: NodeId, resp: PoolResp, delay: Duration) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (to, resp));
        ctx.set_timer(delay, token);
    }

    fn serve(&mut self, req: PoolReq) -> (PoolResp, Duration) {
        let mut pool = self.pool.lock();
        match req {
            PoolReq::AppendJournal { group, epoch, batch, req } => {
                let bytes = batch.weight();
                let delay = self.journal_disk.io_time(bytes);
                let resp = match pool.group_mut(group).append_journal(epoch, batch) {
                    Ok(outcome) => PoolResp::AppendOk {
                        group,
                        sn: pool.group(group).expect("touched").tail_sn(),
                        duplicate: outcome == mams_journal::AppendOutcome::Duplicate,
                        req,
                    },
                    Err(error) => PoolResp::Failed { group, error, req },
                };
                (resp, delay)
            }
            PoolReq::ReadJournal { group, after_sn, max, req } => {
                let g = pool.group_mut(group);
                let tail_sn = g.tail_sn();
                let (batches, compacted) = match g.read_journal(after_sn, max) {
                    Some(b) => (b, false),
                    None => (Vec::new(), true),
                };
                let bytes: u64 = batches.iter().map(|b| b.weight()).sum();
                let delay = self.journal_disk.io_time(bytes);
                (PoolResp::Journal { group, batches, tail_sn, compacted, req }, delay)
            }
            PoolReq::WriteImage { group, epoch, image, req } => {
                let bytes = image.size_bytes();
                let sn = image.checkpoint_sn;
                let delay = self.image_disk.io_time(bytes);
                let resp = match pool.group_mut(group).write_image(epoch, image) {
                    Ok(()) => PoolResp::ImageWritten { group, checkpoint_sn: sn, req },
                    Err(error) => PoolResp::Failed { group, error, req },
                };
                (resp, delay)
            }
            PoolReq::WriteDelta { group, epoch, delta, req } => {
                let bytes = delta.size_bytes();
                let delay = self.image_disk.io_time(bytes);
                let resp = match pool.group_mut(group).append_delta(epoch, delta) {
                    Ok(end_sn) => PoolResp::DeltaWritten { group, end_sn, req },
                    Err(error) => PoolResp::Failed { group, error, req },
                };
                (resp, delay)
            }
            PoolReq::ReadManifest { group, req } => {
                let manifest = pool.group(group).map(|g| g.manifest().clone()).unwrap_or_default();
                (PoolResp::ManifestInfo { group, manifest, req }, self.image_disk.op_overhead)
            }
            PoolReq::ReadArtifactChunk { group, artifact, offset, len, req } => {
                let served = pool
                    .group(group)
                    .ok_or(PoolError::NoSuchArtifact { id: artifact })
                    .and_then(|g| g.artifact_chunk(artifact, offset, len));
                match served {
                    Ok((data, total)) => {
                        let delay = self.image_disk.io_time(data.len() as u64);
                        (
                            PoolResp::ArtifactChunk { group, artifact, offset, data, total, req },
                            delay,
                        )
                    }
                    Err(error) => {
                        (PoolResp::Failed { group, error, req }, self.image_disk.op_overhead)
                    }
                }
            }
            PoolReq::AdvanceEpoch { group, to, req } => {
                let g = pool.group_mut(group);
                g.advance_epoch(to);
                let epoch = g.epoch();
                (PoolResp::EpochAdvanced { group, epoch, req }, self.journal_disk.op_overhead)
            }
        }
    }
}

impl Node for PoolNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        match msg.downcast::<PoolReq>() {
            Ok(req) => {
                let (resp, delay) = self.serve(req);
                self.reply_after(ctx, from, resp, delay);
            }
            Err(other) => {
                debug_assert!(false, "pool node received unexpected message {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((to, resp)) = self.pending.remove(&token) {
            ctx.send(to, resp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::new_shared_pool;
    use mams_journal::{JournalBatch, Txn};
    use mams_sim::{Sim, SimConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Test client that fires a fixed request at start and records replies.
    struct OneShot {
        target: NodeId,
        req: Option<PoolReq>,
        got_sn: Arc<AtomicU64>,
        got_at_us: Arc<AtomicU64>,
    }

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(req) = self.req.take() {
                ctx.send(self.target, req);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Ok(PoolResp::AppendOk { sn, .. }) = msg.downcast::<PoolResp>() {
                self.got_sn.store(sn, Ordering::Relaxed);
                self.got_at_us.store(ctx.now().micros(), Ordering::Relaxed);
            }
        }
    }

    fn batch(sn: u64) -> JournalBatch {
        JournalBatch::new(sn, sn, vec![Txn::Mkdir { path: format!("/g{sn}") }])
    }

    #[test]
    fn append_over_the_wire_with_disk_latency() {
        let pool = new_shared_pool();
        let mut sim = Sim::new(SimConfig::default());
        let pn = sim.add_node("pool-0", Box::new(PoolNode::new(pool.clone())));
        let sn = Arc::new(AtomicU64::new(0));
        let at = Arc::new(AtomicU64::new(0));
        sim.add_node(
            "client",
            Box::new(OneShot {
                target: pn,
                req: Some(PoolReq::AppendJournal {
                    group: 0,
                    epoch: 1,
                    batch: batch(1).into(),
                    req: 7,
                }),
                got_sn: sn.clone(),
                got_at_us: at.clone(),
            }),
        );
        sim.run_for(mams_sim::Duration::from_secs(1));
        assert_eq!(sn.load(Ordering::Relaxed), 1);
        // Round trip must include ~1.5ms disk overhead plus two network hops.
        let us = at.load(Ordering::Relaxed);
        assert!(us >= 1_500, "reply too fast: {us}us");
        assert!(us < 50_000, "reply too slow: {us}us");
        assert_eq!(pool.lock().group(0).unwrap().tail_sn(), 1);
    }

    #[test]
    fn all_pool_nodes_see_shared_state() {
        let pool = new_shared_pool();
        let a = PoolNode::new(pool.clone());
        let mut b = PoolNode::new(pool.clone());
        drop(a);
        // Write through the state directly, read through a node's serve().
        pool.lock().group_mut(3).append_journal(1, batch(1)).unwrap();
        let (resp, _) = b.serve(PoolReq::ReadJournal { group: 3, after_sn: 1, max: 1, req: 1 });
        match resp {
            PoolResp::Journal { tail_sn, .. } => assert_eq!(tail_sn, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fenced_append_reports_failure() {
        let pool = new_shared_pool();
        pool.lock().group_mut(0).advance_epoch(9);
        let mut n = PoolNode::new(pool);
        let (resp, _) =
            n.serve(PoolReq::AppendJournal { group: 0, epoch: 3, batch: batch(1).into(), req: 1 });
        match resp {
            PoolResp::Failed { error: PoolError::Fenced { current: 9, presented: 3 }, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Store `img` as group 0's base over the journal it stands for.
    fn write_image_over_journal(pool: &SharedPool, img: mams_namespace::NamespaceImage) {
        let mut pool = pool.lock();
        let g = pool.group_mut(0);
        for sn in 1..=img.checkpoint_sn {
            g.append_journal(1, batch(sn)).unwrap();
        }
        g.write_image(1, img).unwrap();
    }

    /// The base image's artifact id, as a renewing junior learns it.
    fn base_of(n: &mut PoolNode) -> crate::pool::ManifestEntry {
        match n.serve(PoolReq::ReadManifest { group: 0, req: 1 }).0 {
            PoolResp::ManifestInfo { manifest, .. } => manifest.base().expect("a base").clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn image_chunk_flow() {
        let pool = new_shared_pool();
        let mut t = mams_namespace::NamespaceTree::new();
        t.mkdir_p("/a/b").unwrap();
        let img = mams_namespace::encode_image(&t, 5);
        let total = img.size_bytes();
        write_image_over_journal(&pool, img);
        let mut n = PoolNode::new(pool);
        let base = base_of(&mut n);
        assert_eq!((base.end_sn, base.bytes), (5, total));
        let read =
            PoolReq::ReadArtifactChunk { group: 0, artifact: base.id, offset: 0, len: 10, req: 2 };
        match n.serve(read).0 {
            PoolResp::ArtifactChunk { data, total: t2, .. } => {
                assert_eq!(data.len(), 10);
                assert_eq!(t2, total);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Pull a pool-stored image through `ReadArtifactChunk` exactly as a
    /// renewing junior does, feeding each chunk to the streaming decoder.
    fn stream_image_from_pool(n: &mut PoolNode, chunk_len: u64) -> mams_namespace::DecodedImage {
        let artifact = base_of(n).id;
        let mut d = mams_namespace::StreamingImageDecoder::new();
        let mut offset = 0u64;
        loop {
            let read =
                PoolReq::ReadArtifactChunk { group: 0, artifact, offset, len: chunk_len, req: 7 };
            let (data, total) = match n.serve(read).0 {
                PoolResp::ArtifactChunk { data, total, .. } => (data, total),
                other => panic!("unexpected {other:?}"),
            };
            d.push(&data).unwrap();
            offset += data.len() as u64;
            assert_eq!(d.checkpoint().0, offset);
            if offset >= total || data.is_empty() {
                break;
            }
        }
        d.finish().unwrap()
    }

    #[test]
    fn pool_images_are_v2_and_stream_decode() {
        let pool = new_shared_pool();
        let mut t = mams_namespace::NamespaceTree::new();
        t.mkdir_p("/a/b").unwrap();
        for i in 0..50 {
            t.create(&format!("/a/b/f{i}"), 3).unwrap();
        }
        let img = mams_namespace::encode_image(&t, 5);
        assert_eq!(img.version(), Some(mams_namespace::VERSION_V2));
        write_image_over_journal(&pool, img);
        let mut n = PoolNode::new(pool);
        let decoded = stream_image_from_pool(&mut n, 64);
        assert_eq!(decoded.sn, 5);
        assert_eq!(decoded.ns.fingerprint(), t.fingerprint());
    }

    #[test]
    fn missing_image_is_an_error_not_a_panic() {
        let pool = new_shared_pool();
        let mut n = PoolNode::new(pool);
        let read = PoolReq::ReadArtifactChunk { group: 0, artifact: 0, offset: 0, len: 10, req: 1 };
        let (resp, _) = n.serve(read);
        assert!(matches!(resp, PoolResp::Failed { error: PoolError::NoSuchArtifact { .. }, .. }));
        let (meta, _) = n.serve(PoolReq::ReadManifest { group: 0, req: 2 });
        assert!(matches!(meta, PoolResp::ManifestInfo { manifest, .. } if manifest.is_empty()));
    }
}
