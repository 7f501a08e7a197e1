//! Wall-clock image-pipeline benchmark: encode, buffered decode and chunked
//! streaming decode of namespace images (wire version 2), plus delta fold
//! and apply — the work that dominates junior catch-up and the Table I MTTR
//! sweep.
//!
//! A fixed-seed generator builds realistic trees sized at 72 nominal bytes
//! per file (HDFS-style full-path records; the parent-id image is ~2.2x
//! smaller) for the 16/64/256 MB classes the paper sweeps, then each stage is
//! timed best-of-5 (identical deterministic work per rep). Results go to
//! `BENCH_image.json` at the repo root so successive PRs can track the
//! perf trajectory.
//!
//! Run from the repo root: `cargo run --release --bin bench_image`
//! (`--quick` runs only the smallest class with fewer reps — the CI smoke).

use std::time::Instant;

use bytes::Bytes;
use mams_journal::Txn;
use mams_namespace::{
    apply_delta, decode_delta, decode_image, encode_image, fold_delta, NamespaceTree,
    StreamingImageDecoder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x4d41_4d53; // "MAMS"
/// Nominal bytes per file for the generated shape as a full-path record
/// (path ~43 chars, fixed attrs, ~2 blocks) — used only to size the tree
/// per class.
const CLASS_BYTES_PER_FILE: u64 = 72;
/// Files per leaf directory.
const FILES_PER_DIR: u64 = 256;
/// Streaming-decode chunk size (the renewing default is the same order).
const CHUNK: usize = 64 * 1024;

/// Deterministic tree with paper-like shape: two directory levels with
/// realistic component names, `FILES_PER_DIR` files per leaf, 0–3 blocks
/// per file.
fn build_tree(target_files: u64, rng: &mut SmallRng) -> (NamespaceTree, Vec<String>) {
    let mut t = NamespaceTree::new();
    let mut paths = Vec::with_capacity(target_files as usize);
    let leaf_dirs = (target_files / FILES_PER_DIR).max(1);
    let tops = ((leaf_dirs as f64).sqrt().ceil() as u64).max(1);
    let subs = leaf_dirs.div_ceil(tops);
    let mut made = 0u64;
    let mut block = 1u64;
    'outer: for d in 0..tops {
        let top = format!("/project{d:04}");
        t.mkdir(&top).unwrap();
        for s in 0..subs {
            let dir = format!("{top}/dataset{s:04}");
            t.mkdir(&dir).unwrap();
            for f in 0..FILES_PER_DIR {
                let p = format!("{dir}/part-{f:05}.data");
                t.create(&p, 3).unwrap();
                for _ in 0..rng.gen_range(0u32..4) {
                    t.add_block(&p, block).unwrap();
                    block += 1;
                }
                if rng.gen_range(0u32..100) < 80 {
                    t.close_file(&p).unwrap();
                }
                paths.push(p);
                made += 1;
                if made >= target_files {
                    break 'outer;
                }
            }
        }
    }
    (t, paths)
}

/// A deterministic churn window: touch ~1% of existing files (perm flips
/// and appended blocks) plus a fresh ingest directory, the shape a few
/// seconds of mutations between delta cuts takes. Returns the journaled
/// txns; `tree` ends at the post state the fold reads from.
fn churn(tree: &mut NamespaceTree, paths: &[String], rng: &mut SmallRng) -> Vec<Txn> {
    let k = (paths.len() / 100).max(64);
    let mut txns = Vec::with_capacity(k + 1);
    let mk = Txn::Mkdir { path: "/ingest".into() };
    tree.apply(&mk).unwrap();
    txns.push(mk);
    let mut block = 1u64 << 40;
    for i in 0..k {
        let txn = match i % 4 {
            0 => Txn::Create { path: format!("/ingest/part-{:06}.data", i / 4), replication: 3 },
            1 => Txn::SetPerm {
                path: paths[(i * 7919) % paths.len()].clone(),
                perm: rng.gen_range(0..0o1000u32) as u16,
            },
            _ => {
                block += 1;
                Txn::AddBlock {
                    path: paths[(i * 104_729) % paths.len()].clone(),
                    block_id: block,
                    len: 1 << 20,
                }
            }
        };
        // AddBlock on a sealed file fails; skip it like the active would.
        if tree.apply(&txn).is_ok() {
            txns.push(txn);
        }
    }
    txns
}

/// Best-of-`reps` wall time of `f` in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct ClassResult {
    class_mb: u64,
    files: u64,
    dirs: u64,
    v2_bytes: u64,
    encode_v2_s: f64,
    decode_v2_s: f64,
    decode_v2_streaming_s: f64,
    churn_txns: u64,
    delta_entries: u64,
    delta_bytes: u64,
    fold_s: f64,
    delta_apply_s: f64,
}

fn run_class(class_mb: u64, reps: usize) -> ClassResult {
    let mut rng = SmallRng::seed_from_u64(SEED ^ class_mb);
    let target_files = (class_mb * 1024 * 1024) / CLASS_BYTES_PER_FILE;
    let (tree, paths) = build_tree(target_files, &mut rng);

    let encode_v2_s = best_of(reps, || encode_image(&tree, 1));
    let v2 = encode_image(&tree, 1);

    let decode_v2_s = best_of(reps, || decode_image(v2.data.clone()).unwrap());
    let decode_v2_streaming_s = best_of(reps, || {
        let mut d = StreamingImageDecoder::new();
        for c in v2.data.chunks(CHUNK) {
            d.push(c).unwrap();
        }
        d.finish().unwrap()
    });

    // The decode must reconstruct the same namespace.
    let (t, _) = decode_image(Bytes::clone(&v2.data)).unwrap();
    assert_eq!(t.fingerprint(), tree.fingerprint(), "decode mismatch at {class_mb} MB class");
    drop(t);

    // Delta mode: fold a ~1% churn window into a delta image — the
    // incremental checkpoint the active cuts between full images. Fold cost
    // and delta size are what make the cadence cheap; apply cost is the
    // junior's fast path.
    let mut post = tree.clone();
    let churn_txns = churn(&mut post, &paths, &mut rng);
    let fold_s = best_of(reps, || fold_delta(&post, 1, 1 + churn_txns.len() as u64, &churn_txns));
    let delta = fold_delta(&post, 1, 1 + churn_txns.len() as u64, &churn_txns);
    let decoded = decode_delta(&delta.data).unwrap();
    let delta_apply_s = {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut t = tree.clone();
            let start = Instant::now();
            apply_delta(&mut t, &decoded).unwrap();
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(t.fingerprint(), post.fingerprint(), "delta apply mismatch");
        }
        best
    };

    println!(
        "class {class_mb:>4} MB: {} files | image {:>4} MB | \
         encode {:.3}s, decode {:.3}s, streaming decode {:.3}s",
        tree.num_files(),
        v2.size_bytes() >> 20,
        encode_v2_s,
        decode_v2_s,
        decode_v2_streaming_s,
    );
    println!(
        "  delta: {} txns fold to {} entries, {} KB ({:.0}x smaller than the image) | \
         fold {:.4}s, apply {:.4}s",
        churn_txns.len(),
        delta.entries,
        delta.size_bytes() >> 10,
        v2.size_bytes() as f64 / delta.size_bytes() as f64,
        fold_s,
        delta_apply_s,
    );

    ClassResult {
        class_mb,
        files: tree.num_files(),
        dirs: tree.num_dirs(),
        v2_bytes: v2.size_bytes(),
        encode_v2_s,
        decode_v2_s,
        decode_v2_streaming_s,
        churn_txns: churn_txns.len() as u64,
        delta_entries: delta.entries,
        delta_bytes: delta.size_bytes(),
        fold_s,
        delta_apply_s,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (classes, reps): (&[u64], usize) = if quick { (&[16], 2) } else { (&[16, 64, 256], 5) };

    let results: Vec<ClassResult> = classes.iter().map(|&mb| run_class(mb, reps)).collect();

    // Hand-rolled JSON: the offline serde_json stand-in cannot serialize,
    // and this document is the repo's perf trajectory — it must hold real
    // numbers in every environment.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = String::new();
    doc.push_str(&format!(
        "{{\n  \"bench\": \"image\",\n  \"seed\": {SEED},\n  \"host_cpus\": {host_cpus},\n  \
         \"reps\": {reps},\n  \"chunk_bytes\": {CHUNK},\n  \"classes\": [\n"
    ));
    for (i, r) in results.iter().enumerate() {
        doc.push_str(&format!(
            "    {{\n      \"class_mb\": {},\n      \"files\": {},\n      \"dirs\": {},\n      \
             \"v2_bytes\": {},\n      \"encode_v2_s\": {:.6},\n      \
             \"decode_v2_s\": {:.6},\n      \"decode_v2_streaming_s\": {:.6},\n      \
             \"churn_txns\": {},\n      \"delta_entries\": {},\n      \
             \"delta_bytes\": {},\n      \"delta_vs_v2_size_ratio\": {:.1},\n      \
             \"fold_s\": {:.6},\n      \"delta_apply_s\": {:.6}\n    }}{}\n",
            r.class_mb,
            r.files,
            r.dirs,
            r.v2_bytes,
            r.encode_v2_s,
            r.decode_v2_s,
            r.decode_v2_streaming_s,
            r.churn_txns,
            r.delta_entries,
            r.delta_bytes,
            r.v2_bytes as f64 / r.delta_bytes as f64,
            r.fold_s,
            r.delta_apply_s,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    doc.push_str("  ]\n}\n");
    let out = "BENCH_image.json";
    std::fs::write(out, doc).expect("write BENCH_image.json");
    println!("saved {out}");
}
