//! Randomized parity between [`ShardedNamespace`] and the legacy
//! [`NamespaceTree`].
//!
//! The namespace must be *observationally identical* to the legacy
//! tree: same results (including errors) for every operation, same
//! fingerprint after any operation sequence, and snapshot reads pinned
//! mid-sequence must match a quiesced replica that stopped at the pin
//! point. A namespace loaded rather than built by mutations — decoded
//! from an image, or `from_tree` — must behave as its source does.
//!
//! These are seeded randomized tests, not `proptest` suites (no `proptest`
//! crate resolves offline): property coverage here comes from the vendored
//! `rand` with fixed seeds — deterministic, shrink-free, CI-friendly.
//! `PARITY_CASES` scales the number of cases per test (nightly runs more).

use mams_namespace::{
    decode_image, encode_image_with_window, NamespaceTree, NsError, RetryEntry, RetryOutcome,
    RetryWindow, ShardedNamespace,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per test; override with `PARITY_CASES` (nightly runs elevated).
fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

const OPS_PER_CASE: usize = 400;

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

/// One randomly drawn namespace operation.
#[derive(Debug, Clone)]
enum Op {
    Create(String, u8),
    Mkdir(String),
    MkdirP(String),
    Delete(String, bool),
    Rename(String, String),
    AddBlock(String, u64),
    CloseFile(String),
    SetPerm(String, u16),
}

fn rand_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..16u32) {
        // Creation-heavy so the universe fills up and later ops collide.
        0..=4 => Op::Create(rand_path(rng), rng.gen_range(1..4u32) as u8),
        5..=7 => Op::Mkdir(rand_dir(rng)),
        8 => Op::MkdirP(rand_dir(rng)),
        9..=10 => Op::Delete(rand_path(rng), rng.gen_bool(0.3)),
        11 => Op::Delete(rand_dir(rng), rng.gen_bool(0.5)),
        12 => Op::Rename(rand_path(rng), rand_path(rng)),
        13 => Op::AddBlock(rand_path(rng), rng.gen_range(0..1u64 << 32)),
        14 => Op::CloseFile(rand_path(rng)),
        _ => Op::SetPerm(rand_path(rng), rng.gen_range(0..0o1000u32) as u16),
    }
}

impl Op {
    fn apply_legacy(&self, t: &mut NamespaceTree) -> Result<(), NsError> {
        match self {
            Op::Create(p, r) => t.create(p, *r).map(drop),
            Op::Mkdir(p) => t.mkdir(p),
            Op::MkdirP(p) => t.mkdir_p(p),
            Op::Delete(p, rec) => t.delete(p, *rec).map(drop),
            Op::Rename(s, d) => t.rename(s, d),
            Op::AddBlock(p, b) => t.add_block(p, *b),
            Op::CloseFile(p) => t.close_file(p),
            Op::SetPerm(p, m) => t.set_perm(p, *m),
        }
    }

    fn apply_sharded(&self, n: &ShardedNamespace) -> Result<(), NsError> {
        match self {
            Op::Create(p, r) => n.create(p, *r).map(drop),
            Op::Mkdir(p) => n.mkdir(p),
            Op::MkdirP(p) => n.mkdir_p(p),
            Op::Delete(p, rec) => n.delete(p, *rec).map(drop),
            Op::Rename(s, d) => n.rename(s, d),
            Op::AddBlock(p, b) => n.add_block(p, *b),
            Op::CloseFile(p) => n.close_file(p),
            Op::SetPerm(p, m) => n.set_perm(p, *m),
        }
    }
}

/// Every path the universe can name (for read sweeps).
fn universe() -> Vec<String> {
    let mut v = vec!["/".to_string()];
    for t in TOPS {
        v.push(format!("/{t}"));
        for s in SUBS {
            v.push(format!("/{t}/{s}"));
        }
    }
    let dirs = v.clone();
    for d in &dirs {
        for l in LEAVES {
            if d == "/" {
                v.push(format!("/{l}"));
            } else {
                v.push(format!("{d}/{l}"));
            }
        }
    }
    v
}

/// The namespace's results — mutation outcomes, reads, fingerprint,
/// counters — must equal the legacy tree's after every random op.
#[test]
fn random_ops_keep_sharded_and_legacy_identical() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x5AD_0001 ^ (case << 8));
        let mut legacy = NamespaceTree::new();
        let sharded = ShardedNamespace::new();
        for step in 0..OPS_PER_CASE {
            let op = rand_op(&mut rng);
            let a = op.apply_legacy(&mut legacy);
            let b = op.apply_sharded(&sharded);
            assert_eq!(a, b, "case {case} step {step}: {op:?} diverged");
        }
        assert_eq!(legacy.fingerprint(), sharded.fingerprint(), "case {case}: fingerprint");
        assert_eq!(legacy.num_files(), sharded.num_files(), "case {case}: file count");
        assert_eq!(legacy.num_dirs(), sharded.num_dirs(), "case {case}: dir count");
        for p in universe() {
            assert_eq!(
                legacy.getfileinfo(&p),
                sharded.getfileinfo(&p),
                "case {case}: getfileinfo({p})"
            );
            assert_eq!(legacy.list(&p), sharded.list(&p), "case {case}: list({p})");
            assert_eq!(
                legacy.resolve_path(&p).is_some(),
                sharded.resolve_path(&p).is_some(),
                "case {case}: exists({p})"
            );
        }
    }
}

/// A view pinned mid-sequence must read exactly what a replica that
/// quiesced at the pin point reads — later mutations are invisible.
#[test]
fn snapshot_reads_match_a_quiesced_replica() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x5AD_0002 ^ (case << 8));
        let sharded = ShardedNamespace::new();
        let mut quiesced = NamespaceTree::new();
        let prefix = rng.gen_range(40..OPS_PER_CASE);
        for _ in 0..prefix {
            let op = rand_op(&mut rng);
            assert_eq!(op.apply_legacy(&mut quiesced), op.apply_sharded(&sharded), "case {case}");
        }
        let view = sharded.pin();
        // Keep mutating underneath the pinned view.
        let mut live = quiesced.clone();
        for _ in 0..rng.gen_range(40..200) {
            let op = rand_op(&mut rng);
            assert_eq!(op.apply_legacy(&mut live), op.apply_sharded(&sharded), "case {case}");
        }
        assert_eq!(
            view.fingerprint(),
            quiesced.fingerprint(),
            "case {case}: pinned fingerprint must be the quiesced state's"
        );
        for p in universe() {
            assert_eq!(
                quiesced.getfileinfo(&p),
                view.getfileinfo(&p),
                "case {case}: snapshot getfileinfo({p})"
            );
            assert_eq!(quiesced.list(&p), view.list(&p), "case {case}: snapshot list({p})");
            assert_eq!(quiesced.exists(&p), view.exists(&p), "case {case}: snapshot exists({p})");
        }
        drop(view);
        // And the live namespace still matches a full replay elsewhere:
        // fingerprints only need to agree *after* the view is released.
        assert_eq!(sharded.fingerprint(), live.fingerprint(), "case {case}");
    }
}

/// Every path that exists in `ns`, the root included.
fn live_paths(ns: &ShardedNamespace) -> Vec<String> {
    let mut out = vec!["/".to_string()];
    let mut next = 0;
    while next < out.len() {
        for name in ns.list(&out[next]).unwrap_or_default() {
            let dir = out[next].trim_end_matches('/');
            out.push(format!("{dir}/{name}"));
        }
        next += 1;
    }
    out
}

/// [`rand_op`], with one draw in twelve a directory rename: whole subtrees
/// move, also to depths the universe does not name.
fn rand_op_with_dir_renames(rng: &mut SmallRng) -> Op {
    if rng.gen_range(0..12u32) == 0 {
        Op::Rename(rand_dir(rng), rand_dir(rng))
    } else {
        rand_op(rng)
    }
}

/// The active checkpoints by encoding its pinned table. That image must be
/// byte for byte the one the encoder makes of a `to_tree` copy of the same
/// namespace; a pin held while the namespace moves on must keep yielding
/// the image of the pin point; and once the pin is gone, writing an inode
/// must drop the versions it kept for the pin.
#[test]
fn a_pinned_table_encodes_the_image_of_the_pin_point() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x5AD_0003 ^ (case << 8));
        let sharded = ShardedNamespace::new();
        let mut window = RetryWindow::new();
        for step in 0..rng.gen_range(100..OPS_PER_CASE) as u64 {
            if rand_op_with_dir_renames(&mut rng).apply_sharded(&sharded).is_ok() {
                let entry = RetryEntry { outcome: RetryOutcome::Block(step), token: None };
                window.record(step as u32 % 7, step, entry);
            }
        }
        assert!(!window.is_empty(), "case {case}: the image must carry a window section");
        let sn = 1 + case;
        let of_copy = encode_image_with_window(&sharded.to_tree(), sn, &window);

        let view = sharded.pin();
        let at_pin = view.encode_image(sn, &window);
        assert_eq!(at_pin.data, of_copy.data, "case {case}: table and tree copy encode alike");
        assert_eq!((at_pin.files, at_pin.dirs), (of_copy.files, of_copy.dirs), "case {case}");
        let pinned_fingerprint = view.fingerprint();

        let mut mutations = 0;
        while mutations < 1_000 {
            mutations += rand_op_with_dir_renames(&mut rng).apply_sharded(&sharded).is_ok() as u32;
        }
        assert!(sharded.displaced_versions() > 0, "case {case}: the pin preserved nothing");
        let later = view.encode_image(sn, &window);
        assert_eq!(later.data, at_pin.data, "case {case}: the pinned image moved");
        let decoded = decode_image(later.data).expect("own image decodes");
        assert_eq!(decoded.ns.fingerprint(), pinned_fingerprint, "case {case}: decoded state");
        assert_eq!((decoded.sn, &decoded.window), (sn, &window), "case {case}: sn and window");
        drop(view);

        let now = sharded.pin().encode_image(sn, &window);
        let now_of_copy = encode_image_with_window(&sharded.to_tree(), sn, &window);
        assert_eq!(now.data, now_of_copy.data, "case {case}: after the pin");
        for p in live_paths(&sharded) {
            let perm = sharded.getfileinfo(&p).expect("listed").perm;
            sharded.set_perm(&p, perm).expect("listed");
        }
        assert_eq!(sharded.displaced_versions(), 0, "case {case}: history outlived its pin");
    }
}

/// Every live inode of `ns`: its id and its path.
fn live_ids(ns: &ShardedNamespace) -> Vec<(u64, String)> {
    live_paths(ns).into_iter().map(|p| (ns.resolve_path(&p).expect("listed"), p)).collect()
}

/// The table of `ns` holds its `n` live inodes at the indexes `0..n`, each
/// at generation 0. An id is `generation << 32 | index`, so that is a table
/// of `n` slots, the root's among them, of which none was ever freed: an
/// empty free list, and no slot beside the live ones.
fn assert_dense(ns: &ShardedNamespace, what: &str) {
    let mut taken: Vec<u64> = live_ids(ns).into_iter().map(|(id, _)| id).collect();
    taken.sort_unstable();
    assert!(taken.iter().copied().eq(0..taken.len() as u64), "{what}: {taken:?}");
}

/// Load the namespace `history` builds both ways a namespace is built
/// other than by mutations — decoding its image, and `from_tree` of its
/// tree copy — and hold each to the source: the fingerprint, the counts,
/// the image bytes, the highest block id, dense tables; then the same
/// `suffix` on both, with the same result and fingerprint at every step,
/// a pin held across `pinned` so copy-on-write runs on loaded slots.
fn check_loaded(history: &[Op], suffix: &[Op], pinned: std::ops::Range<usize>, what: &str) {
    let grow = || {
        let ns = ShardedNamespace::new();
        for op in history {
            let _ = op.apply_sharded(&ns);
        }
        ns
    };
    let image = grow().pin().encode_image(7, &RetryWindow::new());
    let decoded = decode_image(image.data.clone()).expect("own image decodes");
    let highest_block = live_paths(&decoded.ns)
        .iter()
        .flat_map(|p| decoded.ns.getfileinfo(p).expect("listed").blocks)
        .max()
        .unwrap_or(0);
    assert_eq!(decoded.highest_block, highest_block, "{what}: highest block id");
    let via_tree = ShardedNamespace::from_tree(grow().to_tree());
    for (how, loaded) in [("decoded", decoded.ns), ("from_tree", via_tree)] {
        let what = format!("{what}, {how}");
        let source = grow();
        assert_eq!(loaded.fingerprint(), source.fingerprint(), "{what}: fingerprint");
        assert_eq!(
            (loaded.num_files(), loaded.num_dirs()),
            (source.num_files(), source.num_dirs()),
            "{what}: counts"
        );
        let again = loaded.pin().encode_image(7, &RetryWindow::new());
        assert_eq!(again.data, image.data, "{what}: re-encoded");
        assert_dense(&loaded, &what);
        let mut view = None;
        for (step, op) in suffix.iter().enumerate() {
            if step == pinned.start {
                view = Some((loaded.pin(), loaded.fingerprint()));
            }
            if step == pinned.end {
                let (view, at_pin) = view.take().expect("pinned");
                assert_eq!(view.fingerprint(), at_pin, "{what}: the pin moved");
            }
            assert_eq!(
                op.apply_sharded(&loaded),
                op.apply_sharded(&source),
                "{what} {step}: {op:?}"
            );
            assert_eq!(loaded.fingerprint(), source.fingerprint(), "{what} {step}: fingerprint");
        }
        drop(view);
        assert_eq!(loaded.to_tree().fingerprint(), source.fingerprint(), "{what}: to_tree");
    }
}

/// A namespace loaded from an image, or from a tree, is a live one: see
/// [`check_loaded`]. The histories delete and rename, whole directories
/// too, so their sources free slots and reuse them; the loaded copies
/// start with none freed.
#[test]
fn a_loaded_namespace_is_a_live_one() {
    let mut reused = 0;
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x5AD_0004 ^ (case << 8));
        let history: Vec<Op> = (0..rng.gen_range(100..OPS_PER_CASE))
            .map(|_| rand_op_with_dir_renames(&mut rng))
            .collect();
        let suffix: Vec<Op> = (0..200).map(|_| rand_op_with_dir_renames(&mut rng)).collect();
        let start = rng.gen_range(0..150usize);
        check_loaded(&history, &suffix, start..start + 50, &format!("case {case}"));
        let source = ShardedNamespace::new();
        for op in &history {
            let _ = op.apply_sharded(&source);
        }
        reused += live_ids(&source).iter().filter(|(id, _)| id >> 32 != 0).count();
    }
    assert!(reused > 0, "no history reused a freed slot");
    // A small fixed tree, its root's permissions changed.
    let history = [
        Op::MkdirP("/x/y".into()),
        Op::Create("/x/y/f".into(), 3),
        Op::AddBlock("/x/y/f".into(), 42),
        Op::SetPerm("/x".into(), 0o700),
        Op::SetPerm("/".into(), 0o711),
    ];
    let suffix = [Op::Create("/x/y/g".into(), 1), Op::Rename("/x/y".into(), "/z".into())];
    check_loaded(&history, &suffix, 0..1, "fixed tree");
}
