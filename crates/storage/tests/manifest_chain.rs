//! The manifest chain seen from a consumer's side of the pool.
//!
//! The unit tests in `pool.rs` pin the producer-side invariants (chaining,
//! fencing, no artifact ahead of the journal). This drives the same API the
//! way a renewing junior does — resolve the manifest, stream artifacts,
//! re-plan on `NoSuchArtifact` — and pins the stale-manifest window: a
//! consumer that cached a manifest *before* a full image superseded the chain
//! must recover by re-resolving, never by erroring out or adopting a wrong
//! state.

use mams_journal::{JournalBatch, Sn, Txn};
use mams_namespace::{
    apply_delta, decode_delta, decode_image, encode_image, fold_delta, NamespaceTree,
};
use mams_storage::{GroupStore, Manifest, PoolError};

/// A group whose journal holds `tail` batches, with a base image at
/// `base_sn` and `n_deltas` single-txn deltas chained on top. Returns the
/// store and the live (end-of-chain) tree.
fn chained_group(tail: Sn, base_sn: Sn, n_deltas: usize) -> (GroupStore, NamespaceTree) {
    let mut g = GroupStore::default();
    for sn in 1..=tail {
        let batch = JournalBatch::new(sn, sn, vec![Txn::Mkdir { path: format!("/j{sn}") }]);
        g.append_journal(1, batch).unwrap();
    }
    let mut t = NamespaceTree::new();
    t.mkdir("/d").unwrap();
    g.write_image(1, encode_image(&t, base_sn)).unwrap();
    for (i, sn) in (base_sn..base_sn + n_deltas as u64).enumerate() {
        let txn = Txn::Create { path: format!("/d/f{i}"), replication: 3 };
        // Fold reads the *final* state of touched paths, so apply first.
        t.apply(&txn).unwrap();
        let delta = fold_delta(&t, sn, sn + 1, [&txn]);
        g.append_delta(1, delta).unwrap();
    }
    (g, t)
}

/// A minimal renewing-junior model: holds a (possibly stale) manifest,
/// streams artifacts whole, and re-resolves the manifest when the pool
/// answers `NoSuchArtifact`. Mirrors the chain-planning the real consumer
/// in `mams-core` does, at the pool API level.
struct SimConsumer {
    manifest: Manifest,
    applied: Sn,
    tree: NamespaceTree,
    /// Manifest re-resolutions forced by `NoSuchArtifact`.
    replans: usize,
}

impl SimConsumer {
    /// Stream the planned chain to completion, re-resolving the manifest on
    /// `NoSuchArtifact` (bounded, so a bug fails the test instead of
    /// looping).
    fn catch_up(&mut self, g: &GroupStore) {
        'replan: for _attempt in 0..8 {
            let plan: Vec<_> =
                self.manifest.chain.iter().filter(|e| e.end_sn > self.applied).cloned().collect();
            for entry in plan {
                let (data, total) = match g.artifact_chunk(entry.id, 0, u64::MAX) {
                    Ok(ok) => ok,
                    Err(PoolError::NoSuchArtifact { .. }) => {
                        // The stale-manifest window: the chain we planned
                        // was superseded underneath us. Re-resolve and
                        // re-plan.
                        self.manifest = g.manifest().clone();
                        self.replans += 1;
                        continue 'replan;
                    }
                    Err(e) => panic!("unexpected pool error: {e:?}"),
                };
                assert_eq!(data.len() as u64, total, "whole-artifact fetch");
                if entry.base_sn == entry.end_sn {
                    let (t, sn) = decode_image(data).expect("base decodes");
                    self.tree = t;
                    self.applied = sn;
                } else {
                    let d = decode_delta(&data).expect("delta decodes");
                    apply_delta(&mut self.tree, &d).expect("delta applies");
                    self.applied = d.end_sn;
                }
            }
            return;
        }
        panic!("consumer did not converge after 8 manifest re-resolutions");
    }
}

/// A consumer that cached the manifest, streamed part of the chain, and
/// then lost the rest to the producer's next full image must finish by
/// re-resolving — and land on the exact state of that image.
#[test]
fn stale_manifest_consumer_re_resolves_after_a_new_image() {
    let (mut g, mut live) = chained_group(16, 10, 4);
    let mut c = SimConsumer {
        manifest: g.manifest().clone(),
        applied: 0,
        tree: NamespaceTree::new(),
        replans: 0,
    };

    // Stream only the base from the cached manifest, then stall.
    let base = c.manifest.base().unwrap().clone();
    let (data, _) = g.artifact_chunk(base.id, 0, u64::MAX).unwrap();
    let (t, sn) = decode_image(data).unwrap();
    c.tree = t;
    c.applied = sn;

    // The producer's chain grew past its limit: its next checkpoint is a
    // full image, which supersedes the chain and drops every artifact the
    // consumer's cached manifest still points at.
    live.apply(&Txn::Mkdir { path: "/d/after".into() }).unwrap();
    g.write_image(1, encode_image(&live, 15)).unwrap();
    for e in &c.manifest.chain {
        assert_eq!(
            g.artifact_chunk(e.id, 0, u64::MAX).unwrap_err(),
            PoolError::NoSuchArtifact { id: e.id },
            "the superseded chain must be gone"
        );
    }
    assert_eq!(g.read_journal(15, 16).map(|b| b.len()), Some(1), "the journal past it stays");

    // The consumer resumes: its first fetch hits NoSuchArtifact, it
    // re-resolves, and streams the new base.
    c.catch_up(&g);
    assert_eq!(c.replans, 1, "exactly one forced re-resolution");
    assert_eq!(c.applied, 15);
    assert_eq!(c.tree.fingerprint(), live.fingerprint(), "state after retry");
}
