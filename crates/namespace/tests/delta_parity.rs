//! Randomized fold parity for delta images.
//!
//! A delta folded from a journal range must be *observationally identical*
//! to replaying that range: applying the delta over the base state (or any
//! intermediate state inside the covered range — the apply-anywhere
//! invariant) has to land on exactly the fingerprint a naive full replay
//! reaches. The fold is lossy by design (last-writer-wins, tombstones,
//! severed directories shipped as full subtrees), so these tests are the
//! proof that nothing observable is lost.
//!
//! These are seeded randomized tests, not `proptest` suites (no `proptest`
//! crate resolves offline): property coverage comes from the vendored
//! `rand` with fixed seeds — deterministic, shrink-free, CI-friendly.
//! `PARITY_CASES` scales the number of cases per test (nightly runs more).

use mams_journal::hash::fnv1a64;
use mams_journal::Txn;
use mams_namespace::{
    apply_delta, decode_delta, encode_image_with_window, fold_delta, fold_delta_with_window,
    NamespaceTree, RetryEntry, RetryOutcome, RetryWindow, ShardedNamespace,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per test; override with `PARITY_CASES` (nightly runs elevated).
fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

const TOPS: [&str; 3] = ["a", "b", "c"];
const SUBS: [&str; 3] = ["x", "y", "z"];
const LEAVES: [&str; 8] = ["f0", "f1", "f2", "f3", "g0", "g1", "g2", "g3"];

/// A directory path from the small contended universe ("/" included).
fn rand_dir(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..3u32) {
        0 => "/".to_string(),
        1 => format!("/{}", TOPS[rng.gen_range(0..TOPS.len())]),
        _ => format!(
            "/{}/{}",
            TOPS[rng.gen_range(0..TOPS.len())],
            SUBS[rng.gen_range(0..SUBS.len())]
        ),
    }
}

/// A leaf path under a random universe directory.
fn rand_path(rng: &mut SmallRng) -> String {
    let d = rand_dir(rng);
    let leaf = LEAVES[rng.gen_range(0..LEAVES.len())];
    if d == "/" {
        format!("/{leaf}")
    } else {
        format!("{d}/{leaf}")
    }
}

/// One randomly drawn journal transaction. The mix is collision-heavy on a
/// small universe so folds see repeated writes, delete/recreate identity
/// severing, and renames landing on occupied destinations.
fn rand_txn(rng: &mut SmallRng) -> Txn {
    match rng.gen_range(0..16u32) {
        0..=4 => Txn::Create { path: rand_path(rng), replication: rng.gen_range(1..4u32) as u8 },
        5..=6 => Txn::Mkdir { path: rand_dir(rng) },
        7..=8 => Txn::Delete { path: rand_path(rng), recursive: rng.gen_bool(0.3) },
        9 => Txn::Delete { path: rand_dir(rng), recursive: rng.gen_bool(0.5) },
        10..=11 => Txn::Rename { src: rand_path(rng), dst: rand_path(rng) },
        12 => Txn::Rename { src: rand_dir(rng), dst: rand_dir(rng) },
        13 => Txn::AddBlock {
            path: rand_path(rng),
            block_id: rng.gen_range(0..1u64 << 32),
            len: rng.gen_range(1..1u32 << 20),
        },
        14 => Txn::CloseFile { path: rand_path(rng) },
        _ => Txn::SetPerm { path: rand_path(rng), perm: rng.gen_range(0..0o1000u32) as u16 },
    }
}

/// Grow a tree with `n` *committed* transactions (failed attempts are
/// discarded, as the journal only ever records successful ops) and return
/// the committed sequence.
fn grow(rng: &mut SmallRng, tree: &mut NamespaceTree, n: usize) -> Vec<Txn> {
    let mut journal = Vec::with_capacity(n);
    while journal.len() < n {
        let txn = rand_txn(rng);
        if tree.apply(&txn).is_ok() {
            journal.push(txn);
        }
    }
    journal
}

/// Folding a random journal range and applying the delta over the base
/// state must land on exactly the fingerprint a naive full replay reaches.
#[test]
fn fold_plus_apply_matches_naive_replay() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x000D_E17A_0001 ^ (case << 8));
        let mut live = NamespaceTree::new();
        let base_len = rng.gen_range(0..200usize);
        grow(&mut rng, &mut live, base_len);
        let base = live.clone();
        let base_sn = base_len as u64;

        let range_len = rng.gen_range(1..300usize);
        let journal = grow(&mut rng, &mut live, range_len);
        let end_sn = base_sn + range_len as u64;

        // `live` is now the post state the fold reads final paths from.
        let delta = fold_delta(&live, base_sn, end_sn, journal.iter());
        assert_eq!((delta.base_sn, delta.end_sn), (base_sn, end_sn), "case {case}: range");

        let decoded = decode_delta(&delta.data)
            .unwrap_or_else(|e| panic!("case {case}: decode of a fresh fold failed: {e:?}"));
        let mut patched = base.clone();
        apply_delta(&mut patched, &decoded)
            .unwrap_or_else(|e| panic!("case {case}: apply failed: {e:?}"));
        assert_eq!(
            patched.fingerprint(),
            live.fingerprint(),
            "case {case}: fold+apply diverged from naive replay \
             (base {base_len} ops, range {range_len} ops)"
        );
        assert_eq!(patched.num_files(), live.num_files(), "case {case}: file count");
        assert_eq!(patched.num_dirs(), live.num_dirs(), "case {case}: dir count");
    }
}

/// Apply-anywhere: a delta over `(N, M]` applied at *any* intermediate
/// sn `S ∈ [N, M]` must land on the state at `M`. A renewing junior that
/// crashed mid-range leans on exactly this to skip the base image.
#[test]
fn delta_applies_cleanly_at_every_intermediate_state() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x000D_E17A_0002 ^ (case << 8));
        let mut live = NamespaceTree::new();
        let base_len = rng.gen_range(0..150usize);
        grow(&mut rng, &mut live, base_len);
        let base_sn = base_len as u64;

        // Record every intermediate state across the folded range.
        let range_len = rng.gen_range(1..120usize);
        let mut snapshots = vec![live.clone()]; // state at S = base_sn
        let mut journal = Vec::with_capacity(range_len);
        for txn in grow(&mut rng, &mut live, range_len) {
            journal.push(txn);
            snapshots.push(live.clone());
        }
        let end_sn = base_sn + range_len as u64;
        let delta = fold_delta(&live, base_sn, end_sn, journal.iter());
        let decoded = decode_delta(&delta.data).expect("fresh fold decodes");

        let want = live.fingerprint();
        for (i, snap) in snapshots.into_iter().enumerate() {
            let mut patched = snap;
            apply_delta(&mut patched, &decoded)
                .unwrap_or_else(|e| panic!("case {case}: apply at S = base+{i} failed: {e:?}"));
            assert_eq!(
                patched.fingerprint(),
                want,
                "case {case}: delta applied at S = base+{i} missed the end state"
            );
        }
    }
}

/// The sharded namespace a live replica runs must accept the same deltas
/// the flat tree does and land on the same fingerprint — the renewing
/// consumer applies deltas straight onto its `ShardedNamespace`.
#[test]
fn sharded_apply_matches_tree_apply() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x000D_E17A_0003 ^ (case << 8));
        let mut live = NamespaceTree::new();
        let base_len = rng.gen_range(0..150usize);
        let prefix = grow(&mut rng, &mut live, base_len);
        let base = live.clone();

        let range_len = rng.gen_range(1..200usize);
        let journal = grow(&mut rng, &mut live, range_len);
        let delta =
            fold_delta(&live, base_len as u64, (base_len + range_len) as u64, journal.iter());
        let decoded = decode_delta(&delta.data).expect("fresh fold decodes");

        // Stand a sharded replica up at the base state, then patch it.
        let mut sharded = ShardedNamespace::new();
        for txn in &prefix {
            sharded.apply(txn).unwrap_or_else(|e| {
                panic!("case {case}: sharded replay of committed txn failed: {e:?}")
            });
        }
        apply_delta(&mut sharded, &decoded)
            .unwrap_or_else(|e| panic!("case {case}: sharded apply failed: {e:?}"));

        let mut tree = base;
        apply_delta(&mut tree, &decoded).expect("tree apply");
        assert_eq!(
            sharded.fingerprint(),
            tree.fingerprint(),
            "case {case}: sharded and tree apply diverged"
        );
        assert_eq!(sharded.fingerprint(), live.fingerprint(), "case {case}: vs naive replay");
    }
}

/// Deltas are idempotent: applying the same delta twice is a no-op, since
/// entries carry whole final states and tombstones are remove-if-present.
/// Catch-up retries after a dropped ack depend on this.
#[test]
fn double_apply_is_idempotent() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x000D_E17A_0004 ^ (case << 8));
        let mut live = NamespaceTree::new();
        let base_len = rng.gen_range(0..100usize);
        grow(&mut rng, &mut live, base_len);
        let base = live.clone();

        let range_len = rng.gen_range(1..150usize);
        let journal = grow(&mut rng, &mut live, range_len);
        let delta =
            fold_delta(&live, base_len as u64, (base_len + range_len) as u64, journal.iter());
        let decoded = decode_delta(&delta.data).expect("fresh fold decodes");

        let mut patched = base;
        apply_delta(&mut patched, &decoded).expect("first apply");
        let once = patched.fingerprint();
        apply_delta(&mut patched, &decoded).expect("second apply");
        assert_eq!(patched.fingerprint(), once, "case {case}: double apply drifted");
        assert_eq!(patched.fingerprint(), live.fingerprint(), "case {case}: vs replay");
    }
}

/// Any single flipped byte in the encoded delta must fail decoding loudly —
/// the consumer's fallback ladder (full image, then journal) only engages
/// when corruption is *detected*.
#[test]
fn corruption_anywhere_is_detected() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x000D_E17A_0005 ^ (case << 8));
        let mut live = NamespaceTree::new();
        grow(&mut rng, &mut live, 40);
        let base_sn = 40u64;
        let journal = grow(&mut rng, &mut live, 60);
        let delta = fold_delta(&live, base_sn, base_sn + 60, journal.iter());
        assert!(decode_delta(&delta.data).is_ok(), "case {case}: clean delta decodes");

        for _ in 0..16 {
            let mut bytes = delta.data.to_vec();
            let pos = rng.gen_range(0..bytes.len());
            let flip = rng.gen_range(1..256u32) as u8;
            bytes[pos] ^= flip;
            assert!(
                decode_delta(&bytes).is_err(),
                "case {case}: flipping byte {pos} went undetected"
            );
        }
        // Truncation at any prefix length is also loud.
        let cut = rng.gen_range(0..delta.data.len());
        assert!(decode_delta(&delta.data[..cut]).is_err(), "case {case}: truncation at {cut}");
    }
}

/// `(generator seed, image digest, delta digest)`: FNV-1a-64 of the encoded
/// artifacts, recorded at commit 0cddcc6 — when the image was encoded from a
/// `to_tree` copy and the delta folded through `getfileinfo` per path.
const WIRE_DIGESTS: [(u64, u64, u64); 3] = [
    (0x000D_E17A_0101, 0x7c3e_6323_d795_2fa6, 0x1569_e9c7_d24a_b97b),
    (0x000D_E17A_0202, 0x8bda_bbfc_b51e_5061, 0xa002_6c81_ca9f_8641),
    (0x000D_E17A_0303, 0x6d13_b0d8_dadd_254e, 0x56e9_5f8f_5abd_520f),
];

/// Both checkpoint artifacts are byte for byte what the previous encoders
/// wrote for the same namespace, journal range and retry window — from the
/// reference tree and from the table alike — so a pool written before the
/// encoders read the table directly still loads, and the reverse.
#[test]
fn wire_bytes_are_the_recorded_ones() {
    for (seed, image_digest, delta_digest) in WIRE_DIGESTS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut live = NamespaceTree::new();
        let sharded = ShardedNamespace::new();
        for txn in grow(&mut rng, &mut live, 200) {
            sharded.apply(&txn).expect("committed on the tree");
        }
        let journal = grow(&mut rng, &mut live, 300);
        let mut window = RetryWindow::new();
        for (i, txn) in journal.iter().enumerate() {
            sharded.apply(txn).expect("committed on the tree");
            let outcome = match txn {
                Txn::AddBlock { block_id, .. } => RetryOutcome::Block(*block_id),
                _ => RetryOutcome::Done,
            };
            window.record(i as u32 % 5, i as u64, RetryEntry { outcome, token: None });
        }
        let delta = fold_delta_with_window(&live, 200, 500, journal.iter(), &window);
        assert_eq!(fnv1a64(&delta.data), delta_digest, "seed {seed:#x}: delta off the tree");
        let delta = fold_delta_with_window(&sharded, 200, 500, journal.iter(), &window);
        assert_eq!(fnv1a64(&delta.data), delta_digest, "seed {seed:#x}: delta off the table");
        let image = encode_image_with_window(&live, 500, &window);
        assert_eq!(fnv1a64(&image.data), image_digest, "seed {seed:#x}: image of the tree");
        let image = sharded.pin().encode_image(500, &window);
        assert_eq!(fnv1a64(&image.data), image_digest, "seed {seed:#x}: image of the table");
    }
}

/// FNV-1a-64 of the image of [`mixed_names`]' directory, recorded at commit
/// 2d34f5a — when a directory's keys were `Arc<str>`.
const MIXED_NAMES_IMAGE_DIGEST: u64 = 0x243f_5e52_1429_3cdc;

/// Sibling names of every shape a directory key distinguishes: short, at
/// and around the 22 bytes a key holds inline, far beyond them, one a prefix
/// of another with NULs after it (the inline padding byte), non-ASCII.
fn mixed_names() -> Vec<String> {
    let mut names: Vec<String> =
        ["a", "a\0", "a\0\0", "a\u{1}", "b", "é", "日本語", "f0", "f00", "f1"]
            .map(String::from)
            .into();
    let mut rng = SmallRng::seed_from_u64(0x000D_E17A_0404);
    for len in [1usize, 2, 21, 22, 23, 24, 300] {
        for _ in 0..6 {
            let alphabet = ["a", "b", "\0", "~", "é", "日"];
            let mut name = String::new();
            while name.len() < len {
                let c = alphabet[rng.gen_range(0..alphabet.len())];
                name.push_str(if name.len() + c.len() <= len { c } else { "z" });
            }
            names.push(name);
        }
    }
    names.sort();
    names.dedup();
    names
}

/// The encoder walks a directory's children in key order, so the image of a
/// directory of mixed names pins that order — byte order, which is `str`
/// order — and each name's bytes, off the tree and off the table.
#[test]
fn image_of_a_directory_of_mixed_names_is_the_recorded_one() {
    let mut tree = NamespaceTree::new();
    let sharded = ShardedNamespace::new();
    let mut ops = vec![Txn::Mkdir { path: "/m".into() }];
    // Entered in an order that is not the sorted one.
    for (i, name) in mixed_names().iter().rev().enumerate() {
        let path = format!("/m/{name}");
        ops.push(match i % 3 {
            0 => Txn::Mkdir { path },
            _ => Txn::Create { path, replication: 1 + (i % 3) as u8 },
        });
    }
    for op in &ops {
        tree.apply(op).expect("valid on the tree");
        sharded.apply(op).expect("valid on the table");
    }
    let mut listed = tree.list("/m").expect("a directory");
    assert_eq!(listed, sharded.list("/m").expect("a directory"));
    assert_eq!(listed, mixed_names(), "children list in str order");
    listed.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
    assert_eq!(listed, mixed_names(), "which is byte order");
    let window = RetryWindow::new();
    let image = encode_image_with_window(&tree, 7, &window);
    assert_eq!(fnv1a64(&image.data), MIXED_NAMES_IMAGE_DIGEST, "image of the tree");
    let image = sharded.pin().encode_image(7, &window);
    assert_eq!(fnv1a64(&image.data), MIXED_NAMES_IMAGE_DIGEST, "image of the table");
}
