//! Wall-clock journal-replay benchmark: the apply loop that bounds both a
//! standby's steady-state lag and a junior's catch-up time (Section III-D;
//! MTTR in Table I is dominated by how fast the journal can be replayed).
//!
//! A fixed-seed generator produces a directory-local mutation stream —
//! creates, block allocations and closes walking leaf directories in order,
//! with occasional renames and deletes — executed once against a scratch
//! tree so every journaled record is valid, exactly like the active's
//! execution path. The stream is then sealed into 64-record batches and
//! replayed the way a replica does — `ShardedReplaySession` over a
//! `ShardedNamespace` — in two settings:
//!
//! - **live**: batches already decoded (the standby's `SyncJournal` path).
//! - **cold**: wire bytes → decode + apply (the junior's catch-up path).
//!
//! The `--delta` mode adds the **delta catch-up** sweep: a junior restarting
//! at the last checkpoint recovers either by fetching the latest *full*
//! image (discarding its state) or by applying the folded *delta* covering
//! the churn since its checkpoint — both followed by the same windowed
//! journal tail. Recovery seconds and bytes fetched per 16/64/256 MB base
//! class quantify the flat-MTTR claim: delta recovery cost tracks churn,
//! not namespace size.
//!
//! Results go to `BENCH_replay.json` at the repo root so successive PRs can
//! track the perf trajectory.
//!
//! Run from the repo root: `cargo run --release --bin bench_replay`
//! (`--quick` shrinks the stream and reps — the CI smoke; `--delta --quick`
//! adds the smallest delta catch-up class).

use std::time::Instant;

use bytes::Bytes;
use mams_journal::{decode_batch, encode_batch, JournalBatch, Txn};
use mams_namespace::{
    apply_delta, decode_delta, decode_image, encode_image, fold_delta, NamespaceTree,
    ShardedNamespace, ShardedReplaySession,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x4d41_4d53; // "MAMS"
const BATCH_OPS: usize = 64;
const FILES_PER_DIR: u64 = 128;

/// The directory skeleton both the generator and every replay rep start
/// from (a junior begins at the same checkpoint the stream was cut from).
/// The generator runs on the plain tree; replicas install it sharded.
fn base_tree(leaf_dirs: u64) -> (NamespaceTree, Vec<String>) {
    let mut t = NamespaceTree::new();
    let mut dirs = Vec::new();
    let tops = ((leaf_dirs as f64).sqrt().ceil() as u64).max(1);
    let subs = leaf_dirs.div_ceil(tops);
    for d in 0..tops {
        let top = format!("/project{d:04}");
        t.mkdir(&top).unwrap();
        for s in 0..subs {
            let dir = format!("{top}/dataset{s:04}");
            t.mkdir(&dir).unwrap();
            dirs.push(dir);
            if dirs.len() as u64 >= leaf_dirs {
                return (t, dirs);
            }
        }
    }
    (t, dirs)
}

/// Execute a directory-local mutation stream against `tree`, returning the
/// journaled records: per leaf dir, create/add-block/close a run of files,
/// with a rename and a delete sprinkled in to exercise cache invalidation.
fn generate_stream(tree: &mut NamespaceTree, dirs: &[String], rng: &mut SmallRng) -> Vec<Txn> {
    let mut txns = Vec::new();
    let mut block = 1u64;
    let journal = |tree: &mut NamespaceTree, txns: &mut Vec<Txn>, txn: Txn| {
        tree.apply(&txn).unwrap();
        txns.push(txn);
    };
    for dir in dirs {
        for f in 0..FILES_PER_DIR {
            let path = format!("{dir}/part-{f:05}.data");
            journal(tree, &mut txns, Txn::Create { path: path.clone(), replication: 3 });
            for _ in 0..rng.gen_range(0u32..3) {
                journal(
                    tree,
                    &mut txns,
                    Txn::AddBlock { path: path.clone(), block_id: block, len: 1 << 20 },
                );
                block += 1;
            }
            journal(tree, &mut txns, Txn::CloseFile { path: path.clone() });
            if f % 50 == 17 {
                let dst = format!("{dir}/renamed-{f:05}.data");
                journal(tree, &mut txns, Txn::Rename { src: path, dst });
            } else if f % 70 == 23 {
                journal(tree, &mut txns, Txn::Delete { path, recursive: false });
            }
        }
    }
    txns
}

/// Seal the stream into `⟨sn, txid⟩` batches of `BATCH_OPS` records.
fn seal_batches(txns: &[Txn]) -> Vec<JournalBatch> {
    let mut batches = Vec::new();
    let mut txid = 1u64;
    for (i, chunk) in txns.chunks(BATCH_OPS).enumerate() {
        batches.push(JournalBatch::new(i as u64 + 1, txid, chunk.to_vec()));
        txid += chunk.len() as u64;
    }
    batches
}

/// Best-of-`reps` wall time in seconds; `setup` runs outside the clock.
fn best_of<S, T>(reps: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let s = setup();
        let start = Instant::now();
        std::hint::black_box(f(s));
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Apply one decoded batch the way a standby does.
fn apply_batch(session: &mut ShardedReplaySession, ns: &ShardedNamespace, b: &JournalBatch) {
    for (_, t) in b.entries() {
        session.apply(ns, t).unwrap();
    }
}

/// Decode and apply wire batches in order: a junior's catch-up loop.
fn replay_wire(ns: &ShardedNamespace, wire: &[Bytes]) {
    let mut session = ShardedReplaySession::new();
    for w in wire {
        apply_batch(&mut session, ns, &decode_batch(w.clone()).unwrap());
    }
}

// --------------------------------------------------------- delta catch-up

/// Nominal bytes per file of a class (same sizing rule as `bench_image`, so
/// the 16/64/256 MB classes line up across the two benches).
const CLASS_BYTES_PER_FILE: u64 = 72;
/// Files per leaf directory in the class-sized tree.
const CLASS_FILES_PER_DIR: u64 = 256;

/// Deterministic class-sized tree (the junior's checkpoint state) plus
/// every file path, for churn targeting.
fn build_class_tree(target_files: u64, rng: &mut SmallRng) -> (NamespaceTree, Vec<String>) {
    let mut t = NamespaceTree::new();
    let mut paths = Vec::with_capacity(target_files as usize);
    let leaf_dirs = (target_files / CLASS_FILES_PER_DIR).max(1);
    let tops = ((leaf_dirs as f64).sqrt().ceil() as u64).max(1);
    let subs = leaf_dirs.div_ceil(tops);
    let mut block = 1u64;
    'outer: for d in 0..tops {
        let top = format!("/project{d:04}");
        t.mkdir(&top).unwrap();
        for s in 0..subs {
            let dir = format!("{top}/dataset{s:04}");
            t.mkdir(&dir).unwrap();
            for f in 0..CLASS_FILES_PER_DIR {
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
                if paths.len() as u64 >= target_files {
                    break 'outer;
                }
            }
        }
    }
    (t, paths)
}

/// A ~1% churn window since the checkpoint: new ingest files, perm flips
/// and block appends on existing files. Returns the committed txns; `tree`
/// ends at the post state. `wave` keeps successive windows' ingest
/// directories distinct.
fn churn_window(
    tree: &mut NamespaceTree,
    paths: &[String],
    rng: &mut SmallRng,
    wave: u32,
) -> Vec<Txn> {
    let k = (paths.len() / 100).max(256);
    let mut txns = Vec::with_capacity(k + 1);
    let mk = Txn::Mkdir { path: format!("/ingest{wave}") };
    tree.apply(&mk).unwrap();
    txns.push(mk);
    let mut block = (1u64 << 40) + (u64::from(wave) << 32);
    for i in 0..k {
        let txn = match i % 4 {
            0 => Txn::Create {
                path: format!("/ingest{wave}/part-{:06}.data", i / 4),
                replication: 3,
            },
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

struct DeltaClassResult {
    class_mb: u64,
    files: u64,
    churn_txns: u64,
    tail_txns: u64,
    full_bytes_fetched: u64,
    full_recovery_s: f64,
    delta_bytes_fetched: u64,
    delta_recovery_s: f64,
}

/// One delta catch-up class: a junior at the checkpoint recovers to the
/// chain end + journal tail, via full-image fetch vs delta apply.
fn run_delta_class(class_mb: u64, reps: usize, rng: &mut SmallRng) -> DeltaClassResult {
    let target_files = (class_mb * 1024 * 1024) / CLASS_BYTES_PER_FILE;
    let (base, paths) = build_class_tree(target_files, rng);
    let base_sn = 1_000u64;

    // Churn since the checkpoint, folded into the delta the producer cut.
    let mut live = base.clone();
    let churn = churn_window(&mut live, &paths, rng, 0);
    let delta_end = base_sn + churn.len() as u64;
    let delta = fold_delta(&live, base_sn, delta_end, &churn);

    // The full-image path fetches the checkpoint the active would have had
    // to cut at the same point.
    let full_image = encode_image(&live, delta_end);

    // Windowed journal tail past the chain end — both paths replay it.
    let mut tail_rng = SmallRng::seed_from_u64(SEED ^ 0x7A11 ^ class_mb);
    let tail = churn_window(&mut live, &paths, &mut tail_rng, 1);
    let tail_wire: Vec<Bytes> = tail
        .chunks(BATCH_OPS)
        .enumerate()
        .map(|(i, c)| encode_batch(&JournalBatch::new(delta_end + i as u64 + 1, 1, c.to_vec())))
        .collect();
    let tail_bytes: u64 = tail_wire.iter().map(|b| b.len() as u64).sum();
    let expected_fp = live.fingerprint();

    // Full-image recovery: decode the latest checkpoint from wire bytes
    // and install it (the junior's prior state is discarded), then replay
    // the tail.
    let full_recovery_s = best_of(
        reps,
        || (),
        |()| {
            let (tree, sn) = decode_image(full_image.data.clone()).unwrap();
            assert_eq!(sn, delta_end);
            let ns = ShardedNamespace::from_tree(tree);
            replay_wire(&ns, &tail_wire);
            assert_eq!(ns.fingerprint(), expected_fp, "full-image recovery divergence");
            ns
        },
    );

    // Delta recovery: the junior keeps its checkpoint state and applies the
    // folded churn, then replays the same tail. The install models the
    // state it already holds and runs outside the clock.
    let delta_recovery_s = best_of(
        reps,
        || ShardedNamespace::from_tree(base.clone()),
        |mut ns| {
            let d = decode_delta(&delta.data).unwrap();
            apply_delta(&mut ns, &d).unwrap();
            replay_wire(&ns, &tail_wire);
            assert_eq!(ns.fingerprint(), expected_fp, "delta recovery divergence");
            ns
        },
    );

    let r = DeltaClassResult {
        class_mb,
        files: base.num_files(),
        churn_txns: churn.len() as u64,
        tail_txns: tail.len() as u64,
        full_bytes_fetched: full_image.size_bytes() + tail_bytes,
        full_recovery_s,
        delta_bytes_fetched: delta.size_bytes() + tail_bytes,
        delta_recovery_s,
    };
    println!(
        "delta catch-up {class_mb:>4} MB: full {:.3}s / {} MB fetched | \
         delta {:.3}s / {} KB fetched | {:.1}x faster, {:.0}x fewer bytes",
        r.full_recovery_s,
        r.full_bytes_fetched >> 20,
        r.delta_recovery_s,
        r.delta_bytes_fetched >> 10,
        r.full_recovery_s / r.delta_recovery_s,
        r.full_bytes_fetched as f64 / r.delta_bytes_fetched as f64,
    );
    r
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let delta_mode = std::env::args().any(|a| a == "--delta");
    let (leaf_dirs, reps) = if quick { (64u64, 2usize) } else { (1024, 5) };

    let mut rng = SmallRng::seed_from_u64(SEED);
    let (mut scratch, dirs) = base_tree(leaf_dirs);
    let txns = generate_stream(&mut scratch, &dirs, &mut rng);
    let expected_fp = scratch.fingerprint();
    let batches = seal_batches(&txns);
    let records = txns.len() as u64;

    let wire: Vec<Bytes> = batches.iter().map(encode_batch).collect();
    let wire_bytes: u64 = wire.iter().map(|b| b.len() as u64).sum();

    // Every replay must land on the generator's namespace.
    let check = |ns: &ShardedNamespace, what: &str| {
        assert_eq!(ns.fingerprint(), expected_fp, "replay divergence in {what}");
    };
    let replica = || ShardedNamespace::from_tree(base_tree(leaf_dirs).0);

    // Live standby: batches are already decoded, only the apply loop runs.
    let live_s = best_of(reps, replica, |ns| {
        let mut session = ShardedReplaySession::new();
        for b in &batches {
            apply_batch(&mut session, &ns, b);
        }
        check(&ns, "live");
        ns
    });

    // Cold junior catch-up: wire bytes → decode + apply.
    let cold_s = best_of(reps, replica, |ns| {
        replay_wire(&ns, &wire);
        check(&ns, "cold");
        ns
    });

    let rate = |s: f64| records as f64 / s;
    println!(
        "{records} records in {} batches | wire {} KB ({:.1} B/record)",
        batches.len(),
        wire_bytes >> 10,
        wire_bytes as f64 / records as f64,
    );
    println!("live: {:.0} rec/s | cold (decode + apply): {:.0} rec/s", rate(live_s), rate(cold_s));

    // Delta catch-up sweep: always in the full run, opt-in for the CI
    // smoke via `--delta --quick`.
    let delta_results: Vec<DeltaClassResult> = if delta_mode || !quick {
        let classes: &[u64] = if quick { &[16] } else { &[16, 64, 256] };
        let d_reps = if quick { 2 } else { 3 };
        let mut d_rng = SmallRng::seed_from_u64(SEED ^ 0xDE17A);
        classes.iter().map(|&mb| run_delta_class(mb, d_reps, &mut d_rng)).collect()
    } else {
        Vec::new()
    };

    // Hand-rolled JSON: the offline serde_json stand-in cannot serialize,
    // and this document is the repo's perf trajectory — it must hold real
    // numbers in every environment.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = format!(
        "{{\n  \"bench\": \"replay\",\n  \"seed\": {SEED},\n  \"host_cpus\": {host_cpus},\n  \
         \"reps\": {reps},\n  \"records\": {records},\n  \"batches\": {},\n  \
         \"batch_ops\": {BATCH_OPS},\n  \"wire_v2_bytes\": {wire_bytes},\n  \
         \"live_s\": {live_s:.6},\n  \"live_records_per_s\": {:.0},\n  \
         \"cold_s\": {cold_s:.6},\n  \"cold_records_per_s\": {:.0}",
        batches.len(),
        rate(live_s),
        rate(cold_s),
    );
    if !delta_results.is_empty() {
        doc.push_str(",\n  \"delta_catchup\": [\n");
        for (i, r) in delta_results.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\n      \"class_mb\": {},\n      \"files\": {},\n      \
                 \"churn_txns\": {},\n      \"tail_txns\": {},\n      \
                 \"full_bytes_fetched\": {},\n      \"full_recovery_s\": {:.6},\n      \
                 \"delta_bytes_fetched\": {},\n      \"delta_recovery_s\": {:.6},\n      \
                 \"recovery_speedup_delta\": {:.3},\n      \
                 \"bytes_ratio_full_over_delta\": {:.1}\n    }}{}\n",
                r.class_mb,
                r.files,
                r.churn_txns,
                r.tail_txns,
                r.full_bytes_fetched,
                r.full_recovery_s,
                r.delta_bytes_fetched,
                r.delta_recovery_s,
                r.full_recovery_s / r.delta_recovery_s,
                r.full_bytes_fetched as f64 / r.delta_bytes_fetched as f64,
                if i + 1 == delta_results.len() { "" } else { "," }
            ));
        }
        doc.push_str("  ]");
    }
    doc.push_str("\n}\n");
    let out = "BENCH_replay.json";
    std::fs::write(out, doc).expect("write BENCH_replay.json");
    println!("saved {out}");
}
