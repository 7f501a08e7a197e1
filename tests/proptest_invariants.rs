//! Randomized tests for the core data structures and invariants
//! (DESIGN.md §4): encode/decode round trips, replay determinism, duplicate
//! suppression, partition stability.
//!
//! These are seeded randomized tests, not `proptest` suites (no `proptest`
//! crate resolves offline): property coverage comes from the vendored
//! `rand` with fixed seeds — deterministic, shrink-free, CI-friendly.
//! `PARITY_CASES` overrides the per-test case count (nightly runs more).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mams::core::Prefix;
use mams::journal::{
    decode_batch, encode_batch, AppendOutcome, JournalBatch, JournalLog, SharedBatch, Txn,
};
use mams::namespace::{decode_image, encode_image, NamespaceTree, Partitioner};

/// Cases for a test defaulting to `default`; `PARITY_CASES` overrides.
fn cases(default: u64) -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

// ---------------------------------------------------------- generators

/// `[a-z][a-z0-9]{0,2}` — a small alphabet so paths collide often.
fn path_component(rng: &mut SmallRng) -> String {
    const HEAD: &[u8] = b"abcdefgh";
    const TAIL: &[u8] = b"ab012";
    let mut s = String::new();
    s.push(HEAD[rng.gen_range(0..HEAD.len())] as char);
    for _ in 0..rng.gen_range(0..3u32) {
        s.push(TAIL[rng.gen_range(0..TAIL.len())] as char);
    }
    s
}

fn abs_path(rng: &mut SmallRng, max_depth: usize) -> String {
    let depth = rng.gen_range(1..max_depth as u64 + 1) as usize;
    let comps: Vec<String> = (0..depth).map(|_| path_component(rng)).collect();
    format!("/{}", comps.join("/"))
}

fn rand_txn(rng: &mut SmallRng) -> Txn {
    match rng.gen_range(0..7u32) {
        0 => Txn::Create { path: abs_path(rng, 4), replication: rng.gen_range(1..6u32) as u8 },
        1 => Txn::Mkdir { path: abs_path(rng, 4) },
        2 => Txn::Delete { path: abs_path(rng, 4), recursive: rng.gen_bool(0.5) },
        3 => Txn::Rename { src: abs_path(rng, 4), dst: abs_path(rng, 4) },
        4 => Txn::AddBlock {
            path: abs_path(rng, 4),
            block_id: rng.gen_range(1..1000u64),
            len: rng.gen_range(1..1u32 << 20),
        },
        5 => Txn::CloseFile { path: abs_path(rng, 4) },
        _ => Txn::SetPerm { path: abs_path(rng, 4), perm: rng.gen_range(0..0o777u32) as u16 },
    }
}

fn rand_txns(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<Txn> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| rand_txn(rng)).collect()
}

fn rand_batch(rng: &mut SmallRng, sn: u64) -> JournalBatch {
    let records = rand_txns(rng, 1, 24);
    let txid = rng.gen_range(1..1u64 << 40);
    JournalBatch::new(sn, txid, records)
}

/// A random sequence of *valid* operations: ops are generated blind but
/// only the ones the tree accepts are journaled, exactly like the active.
fn apply_random_ops(tree: &mut NamespaceTree, ops: &[Txn]) -> Vec<Txn> {
    let mut journaled = Vec::new();
    for op in ops {
        if tree.apply(op).is_ok() {
            journaled.push(op.clone());
        }
    }
    journaled
}

// -------------------------------------------------------------- journal

#[test]
fn journal_batch_round_trips() {
    for case in 0..cases(128) {
        let mut rng = SmallRng::seed_from_u64(0x10_0001 ^ (case << 8));
        let batch = rand_batch(&mut rng, 7);
        let encoded = encode_batch(&batch);
        let decoded = decode_batch(encoded).expect("round trip");
        assert_eq!(decoded, batch, "case {case}");
    }
}

#[test]
fn journal_corruption_never_passes_silently() {
    for case in 0..cases(128) {
        let mut rng = SmallRng::seed_from_u64(0x10_0002 ^ (case << 8));
        let batch = rand_batch(&mut rng, 3);
        let encoded = encode_batch(&batch);
        let mut bytes = encoded.to_vec();
        let i = rng.gen_range(0..bytes.len());
        bytes[i] ^= 0x5a;
        // Either an error, or (never) a silently different batch.
        if let Ok(decoded) = decode_batch(bytes::Bytes::from(bytes)) {
            assert_eq!(decoded, batch, "case {case}: corruption yielded a different batch");
        }
    }
}

#[test]
fn log_append_is_idempotent_and_contiguous() {
    for case in 0..cases(128) {
        let mut rng = SmallRng::seed_from_u64(0x10_0003 ^ (case << 8));
        let n = rng.gen_range(1..8usize);
        let batches: Vec<JournalBatch> =
            (0..n).map(|i| rand_batch(&mut rng, i as u64 + 1)).collect();
        let mut log = JournalLog::new();
        for b in &batches {
            assert_eq!(log.append(b.clone()).unwrap(), AppendOutcome::Appended, "case {case}");
        }
        // Every duplicate is ignored.
        for b in &batches {
            assert_eq!(log.append(b.clone()).unwrap(), AppendOutcome::Duplicate, "case {case}");
        }
        assert_eq!(log.tail_sn(), batches.len() as u64);
        // Suffix reads see exactly the right batches.
        for after in 0..=batches.len() {
            let tail = log.read_after(after as u64).unwrap();
            assert_eq!(tail.len(), batches.len() - after, "case {case}");
        }
    }
}

// ---------------------------------------------------- replay determinism

/// Invariant 4: namespace(journal replay) == namespace(live execution).
#[test]
fn replay_reproduces_live_execution() {
    for case in 0..cases(64) {
        let mut rng = SmallRng::seed_from_u64(0x10_0005 ^ (case << 8));
        let ops = rand_txns(&mut rng, 1, 120);
        let mut live = NamespaceTree::new();
        let journaled = apply_random_ops(&mut live, &ops);

        let mut replayed = NamespaceTree::new();
        for txn in &journaled {
            replayed.apply(txn).expect("journaled txns always replay");
        }
        assert_eq!(live.fingerprint(), replayed.fingerprint(), "case {case}");
        assert_eq!(live.num_files(), replayed.num_files(), "case {case}");
        assert_eq!(live.num_dirs(), replayed.num_dirs(), "case {case}");
    }
}

/// Invariant 3: offering batches with duplications and stale repeats to
/// the prefix — the replay every member runs — yields the same state as a
/// clean sequential replay (sn-based duplicate suppression), and that state
/// is the reference tree's.
#[test]
fn cursor_suppresses_duplicates() {
    for case in 0..cases(64) {
        let mut rng = SmallRng::seed_from_u64(0x10_0006 ^ (case << 8));
        let ops = rand_txns(&mut rng, 1, 80);
        let dup_pattern: Vec<usize> = {
            let n = rng.gen_range(1..40usize);
            (0..n).map(|_| rng.gen_range(0..4usize)).collect()
        };
        let mut source = NamespaceTree::new();
        let journaled = apply_random_ops(&mut source, &ops);
        if journaled.is_empty() {
            continue;
        }
        // Pack into batches of 3.
        let batches: Vec<SharedBatch> = journaled
            .chunks(3)
            .enumerate()
            .map(|(i, chunk)| JournalBatch::new(i as u64 + 1, i as u64 * 3 + 1, chunk.to_vec()))
            .map(SharedBatch::new)
            .collect();

        // Clean replay.
        let mut clean = Prefix::new();
        for b in &batches {
            assert_eq!(clean.ingest(b.share()), 0, "case {case}: sn {} diverged", b.sn);
        }

        // Messy replay: after each batch, re-offer some earlier batches.
        let mut messy = Prefix::new();
        for (i, b) in batches.iter().enumerate() {
            messy.ingest(b.share());
            for &d in &dup_pattern {
                if d <= i {
                    assert_eq!(messy.ingest(batches[d].share()), 0, "case {case}");
                    assert_eq!(messy.tail_sn(), i as u64 + 1, "case {case}: a repeat applied");
                }
            }
        }
        assert_eq!(clean.ns().fingerprint(), source.fingerprint(), "case {case}");
        assert_eq!(clean.ns().fingerprint(), messy.ns().fingerprint(), "case {case}");
        assert_eq!(clean.tail_sn(), messy.tail_sn(), "case {case}");
        assert_eq!(clean.id_marks(), messy.id_marks(), "case {case}");
    }
}

// ------------------------------------------------------------- images

/// Invariant: image encode/decode preserves the whole tree, and chunked
/// reassembly (the renewing transfer) is lossless at any chunk size.
#[test]
fn image_round_trips_and_chunks() {
    for case in 0..cases(48) {
        let mut rng = SmallRng::seed_from_u64(0x10_0007 ^ (case << 8));
        let ops = rand_txns(&mut rng, 1, 100);
        let chunk = rng.gen_range(1..512u64);
        let mut tree = NamespaceTree::new();
        apply_random_ops(&mut tree, &ops);
        let img = encode_image(&tree, 42);

        let decoded = decode_image(img.data.clone()).expect("round trip");
        assert_eq!(decoded.sn, 42);
        assert_eq!(decoded.ns.fingerprint(), tree.fingerprint(), "case {case}");

        // Chunked reassembly, sliced as the pool slices a stored image,
        // over the journal the image stands for.
        let mut store = mams::storage::pool::GroupStore::default();
        for sn in 1..=42 {
            let batch = JournalBatch::new(sn, sn, vec![Txn::Mkdir { path: format!("/j{sn}") }]);
            store.append_journal(1, batch).expect("contiguous");
        }
        store.write_image(1, img).expect("the journal reaches the image");
        let id = store.manifest().base().expect("just written").id;
        let mut buf = Vec::new();
        let mut off = 0;
        loop {
            let (c, _) = store.artifact_chunk(id, off, chunk).expect("the base exists");
            if c.is_empty() {
                break;
            }
            off += c.len() as u64;
            buf.extend_from_slice(&c);
        }
        let rebuilt = decode_image(bytes::Bytes::from(buf)).expect("chunked round trip");
        assert_eq!(rebuilt.ns.fingerprint(), tree.fingerprint(), "case {case}");
    }
}

/// Pushing an image through the streaming decoder in arbitrary-sized chunks
/// yields exactly the buffered decode.
#[test]
fn streaming_decode_matches_buffered_at_any_chunk_size() {
    for case in 0..cases(48) {
        use mams::namespace::StreamingImageDecoder;

        let mut rng = SmallRng::seed_from_u64(0x10_0009 ^ (case << 8));
        let ops = rand_txns(&mut rng, 1, 100);
        let chunk = rng.gen_range(1..300usize);
        let mut tree = NamespaceTree::new();
        apply_random_ops(&mut tree, &ops);
        let img = encode_image(&tree, 9);

        let mut dec = StreamingImageDecoder::new();
        let mut pushed = 0u64;
        for piece in img.data.chunks(chunk) {
            dec.push(piece).expect("valid image streams cleanly");
            pushed += piece.len() as u64;
            let off = dec.checkpoint();
            assert_eq!(off, pushed, "case {case}");
        }
        let streamed = dec.finish().expect("stream finish");
        assert_eq!(streamed.sn, 9);

        let buffered = decode_image(img.data.clone()).expect("buffered decode");
        assert_eq!(streamed.ns.fingerprint(), buffered.ns.fingerprint(), "case {case}");
        assert_eq!(streamed.ns.fingerprint(), tree.fingerprint(), "case {case}");
        // Re-encoding both yields the same bytes: the decoded namespaces
        // are structurally identical, not merely fingerprint-equal.
        let reencode = |ns: &mams::namespace::ShardedNamespace| {
            ns.pin().encode_image(9, &mams::namespace::RetryWindow::new()).data
        };
        assert_eq!(reencode(&streamed.ns), reencode(&buffered.ns));
        assert_eq!(reencode(&streamed.ns), img.data);
    }
}

// ------------------------------------------------- replay session parity

/// The validate-skip `ShardedReplaySession` fast path must land on exactly
/// the state the reference per-record `NamespaceTree::apply` produces,
/// across histories whose renames and deletes relocate or remove the
/// cached directories.
#[test]
fn replay_session_matches_naive_apply() {
    for case in 0..cases(64) {
        let mut rng = SmallRng::seed_from_u64(0x10_000b ^ (case << 8));
        let ops = rand_txns(&mut rng, 1, 150);
        let mut live = NamespaceTree::new();
        let journaled = apply_random_ops(&mut live, &ops);

        let mut naive = NamespaceTree::new();
        for t in &journaled {
            naive.apply(t).expect("journaled txns always replay");
        }

        let fast = mams::namespace::ShardedNamespace::new();
        let mut session = mams::namespace::ShardedReplaySession::new();
        for t in &journaled {
            session.apply(&fast, t).expect("journaled txns replay via the session");
        }
        assert_eq!(fast.fingerprint(), naive.fingerprint(), "case {case}");
        assert_eq!(fast.num_files(), naive.num_files(), "case {case}");
        assert_eq!(fast.num_dirs(), naive.num_dirs(), "case {case}");
    }
}

// ------------------------------------------- shared-batch replay parity

/// One sealed batch, two consumption paths: a standby ingesting the very
/// `SyncJournal` handle the active fanned out, and a reader pulling the
/// pool's `read_after` tail. Both must reconstruct byte-identical
/// namespaces — sharing the allocation must not change replay semantics.
#[test]
fn shared_batch_replays_identically_via_sync_and_pool_paths() {
    use mams::storage::pool::GroupStore;

    let txns = vec![
        Txn::Mkdir { path: "/a".into() },
        Txn::Create { path: "/a/f".into(), replication: 3 },
        Txn::Mkdir { path: "/a/b".into() },
        Txn::Create { path: "/a/b/g".into(), replication: 2 },
        Txn::Rename { src: "/a/f".into(), dst: "/a/b/h".into() },
        Txn::AddBlock { path: "/a/b/h".into(), block_id: 9, len: 4096 },
    ];
    let sealed = SharedBatch::sealed(JournalBatch::new(1, 1, txns));

    // Path 1: the standby's SyncJournal ingest — it replays the shared
    // handle itself.
    let standby_copy = sealed.share();
    let mut via_sync = Prefix::new();
    assert_eq!(via_sync.ingest(standby_copy.share()), 0, "valid txns");

    // Path 2: the pool append + read_after tail a recovering node replays.
    let mut store = GroupStore::default();
    store.append_journal(1, sealed.share()).expect("append");
    let tail = store.read_journal(0, 16).expect("not compacted");
    assert_eq!(tail.len(), 1);
    assert!(
        SharedBatch::ptr_eq(&tail[0], &sealed),
        "pool must return the shared allocation, not a copy"
    );
    let mut via_pool = Prefix::new();
    for b in tail {
        assert_eq!(via_pool.ingest(b), 0, "valid txns");
    }

    assert_eq!(via_sync.ns().fingerprint(), via_pool.ns().fingerprint());
    assert_eq!(via_sync.id_marks(), (7, 10), "txids 1..=6 and block 9 were seen");
    let img_sync = via_sync.encode_image();
    let img_pool = via_pool.encode_image();
    assert_eq!(img_sync.data, img_pool.data, "replayed namespaces must be byte-identical");
    // And both logs hold the sealed allocation itself.
    assert!(SharedBatch::ptr_eq(via_sync.log().get(1).expect("applied"), &sealed));
    assert!(SharedBatch::ptr_eq(via_pool.log().get(1).expect("applied"), &sealed));
    // And the wire form both paths would transmit is the single sealed
    // encoding.
    assert_eq!(sealed.wire().as_ptr(), standby_copy.wire().as_ptr());
}

// ----------------------------------------------------------- partition

/// Invariant 8: every path maps to exactly one group, stably, and
/// structural transactions touch every group.
#[test]
fn partitioning_is_stable_and_total() {
    for case in 0..cases(128) {
        let mut rng = SmallRng::seed_from_u64(0x10_000c ^ (case << 8));
        let path = abs_path(&mut rng, 6);
        let groups = rng.gen_range(1..8u32);
        let p = Partitioner::new(groups);
        let owner = p.owner(&path);
        assert!(owner < groups, "case {case}");
        assert_eq!(owner, p.owner(&path), "case {case}");
        let structural = Txn::Mkdir { path: path.clone() };
        assert_eq!(p.groups_for(&structural).len(), groups as usize, "case {case}");
        let file = Txn::Create { path, replication: 1 };
        assert_eq!(p.groups_for(&file), vec![owner], "case {case}");
    }
}
