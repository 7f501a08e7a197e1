//! The resolution cache against its oracle, and the shape of its cost.
//!
//! The cache may only ever be a faster way to the answer the walk from the
//! root gives. These suites drive seeded random streams — directory renames,
//! recursive deletes of populated trees, rmdir-then-mkdir of one name, with
//! snapshot pins held across all of it — through an active namespace and a
//! replica fed its journal through [`ShardedReplaySession`], and after every
//! op compare cached against uncached resolution on both, and every pinned
//! view against a quiesced copy taken at its epoch.
//!
//! The shape test counts instead of timing: a stream with no subtree move
//! must never flush the cache, and must keep hitting it.
//!
//! Seeded `rand`; `PARITY_CASES` scales the case count.

use mams_journal::Txn;
use mams_namespace::{
    CacheStats, NamespaceTree, ShardedNamespace, ShardedReplaySession, SnapshotView,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// The three-level universe a stream draws its paths from.
struct Universe {
    /// Directory fan-out per level.
    fan: [u32; 3],
    /// How many ops in a thousand rename a directory or delete one
    /// recursively; the rest leave subtrees where they are.
    subtree_moves_per_mille: u32,
}

impl Universe {
    /// A directory path one to three levels deep.
    fn dir(&self, rng: &mut SmallRng) -> String {
        let depth = rng.gen_range(1..4usize);
        let mut p = String::new();
        for (level, stem) in ["t", "s", "u"].iter().enumerate().take(depth) {
            p.push_str(&format!("/{stem}{}", rng.gen_range(0..self.fan[level])));
        }
        p
    }

    /// The top two levels, so that a stream's deep mkdirs find parents.
    fn skeleton(&self) -> Vec<Txn> {
        let mut out = Vec::new();
        for t in 0..self.fan[0] {
            out.push(Txn::Mkdir { path: format!("/t{t}") });
            out.extend((0..self.fan[1]).map(|s| Txn::Mkdir { path: format!("/t{t}/s{s}") }));
        }
        out
    }

    fn file(&self, rng: &mut SmallRng) -> String {
        format!("{}/f{}", self.dir(rng), rng.gen_range(0..3u32))
    }

    fn any(&self, rng: &mut SmallRng) -> String {
        if rng.gen_bool(0.5) {
            self.dir(rng)
        } else {
            self.file(rng)
        }
    }

    fn op(&self, rng: &mut SmallRng) -> Txn {
        if rng.gen_range(0..1000u32) < self.subtree_moves_per_mille {
            return if rng.gen_bool(0.5) {
                Txn::Rename { src: self.dir(rng), dst: self.dir(rng) }
            } else {
                Txn::Delete { path: self.dir(rng), recursive: true }
            };
        }
        match rng.gen_range(0..16u32) {
            0..=5 => Txn::Mkdir { path: self.dir(rng) },
            6..=10 => Txn::Create { path: self.file(rng), replication: 3 },
            11 => Txn::AddBlock {
                path: self.file(rng),
                block_id: rng.gen_range(0..1u64 << 32),
                len: 1,
            },
            12..=13 => Txn::Delete { path: self.file(rng), recursive: false },
            // rmdir: only an empty directory goes, by its own key.
            14 => Txn::Delete { path: self.dir(rng), recursive: false },
            _ => Txn::Rename { src: self.file(rng), dst: self.file(rng) },
        }
    }
}

/// A pinned view with the quiesced copy it must agree with.
struct Pinned<'a> {
    view: SnapshotView<'a>,
    frozen: NamespaceTree,
}

/// Cached and uncached resolution agree on `ns` for every sampled path.
fn assert_cache_agrees(ns: &ShardedNamespace, paths: &[String], what: &str) {
    for p in paths {
        assert_eq!(ns.resolve_path(p), ns.resolve_path_uncached(p), "{what}: resolve({p})");
    }
}

fn run_stream(case: u64, universe: Universe, ops: usize) -> ShardedNamespace {
    let mut rng = SmallRng::seed_from_u64(0xCAC4E ^ (case << 8));
    let active = ShardedNamespace::new();
    let replica = ShardedNamespace::new();
    let mut session = ShardedReplaySession::new();
    let mut legacy = NamespaceTree::new();
    for txn in universe.skeleton() {
        legacy.apply(&txn).unwrap();
        active.apply(&txn).unwrap();
        session.apply(&replica, &txn).unwrap();
    }
    let mut pins: Vec<Pinned<'_>> = Vec::new();
    for step in 0..ops {
        match rng.gen_range(0..40u32) {
            0 if pins.len() < 3 => pins.push(Pinned { view: active.pin(), frozen: legacy.clone() }),
            1 if !pins.is_empty() => drop(pins.swap_remove(rng.gen_range(0..pins.len()))),
            _ => {}
        }
        let txn = universe.op(&mut rng);
        let expect = legacy.apply(&txn);
        let got = active.apply(&txn);
        assert_eq!(got, expect, "case {case} step {step}: {txn:?}");
        if got.is_ok() {
            // Only what the active journaled reaches a standby.
            session.apply(&replica, &txn).unwrap_or_else(|e| {
                panic!("case {case} step {step}: replica rejected {txn:?}: {e}")
            });
        }
        // The op's own paths — just made, just killed, or just moved — and a
        // sample of the rest, live and dead alike.
        let mut sample: Vec<String> = match &txn {
            Txn::Rename { src, dst } => vec![src.clone(), dst.clone()],
            other => vec![other.primary_path().to_string()],
        };
        sample.extend((0..6).map(|_| universe.any(&mut rng)));
        for p in sample.clone() {
            sample.push(format!("{p}/f0"));
        }
        let at = format!("case {case} step {step} after {txn:?}");
        assert_cache_agrees(&active, &sample, &format!("{at}: active"));
        assert_cache_agrees(&replica, &sample, &format!("{at}: replica"));
        for (i, pin) in pins.iter().enumerate() {
            for p in &sample {
                assert_eq!(
                    pin.view.getfileinfo(p),
                    pin.frozen.getfileinfo(p),
                    "{at}: pin {i} getfileinfo({p})"
                );
                assert_eq!(pin.view.list(p), pin.frozen.list(p), "{at}: pin {i} list({p})");
            }
        }
    }
    for (i, pin) in pins.iter().enumerate() {
        assert_eq!(pin.view.fingerprint(), pin.frozen.fingerprint(), "case {case}: pin {i}");
    }
    drop(pins);
    assert_eq!(active.fingerprint(), legacy.fingerprint(), "case {case}: active");
    assert_eq!(replica.fingerprint(), legacy.fingerprint(), "case {case}: replica");
    active
}

/// A small universe, so that names are reused, directories are renamed over
/// each other's old paths, and populated trees get deleted.
#[test]
fn cached_resolution_matches_the_walk_under_subtree_moves_and_pins() {
    let mut flushes = 0;
    for case in 0..cases() {
        let ns = run_stream(case, Universe { fan: [3, 3, 2], subtree_moves_per_mille: 150 }, 600);
        flushes += ns.cache_stats().flushes;
    }
    assert!(flushes > 0, "the streams never moved a subtree");
}

/// Twice as many directories up front as the cache has sets, so some sets
/// overflow and bindings are replaced while the stream runs.
#[test]
fn cached_resolution_matches_the_walk_while_sets_overflow() {
    let mut evictions = 0;
    for case in 0..cases().div_ceil(4) {
        let ns = run_stream(
            1000 + case,
            Universe { fan: [64, 128, 4], subtree_moves_per_mille: 2 },
            3_000,
        );
        evictions += ns.cache_stats().evictions;
    }
    assert!(evictions > 0, "the streams never filled a cache set");
}

/// One client's file lifecycle in directory `d`, as the churn workload
/// makes it: create, rename, delete.
fn lifecycle(out: &mut Vec<Txn>, d: u32, file: u32) {
    let (fresh, renamed) = (format!("/w/d{d}/f{file}"), format!("/w/d{d}/r{file}"));
    out.push(Txn::Create { path: fresh.clone(), replication: 3 });
    out.push(Txn::Rename { src: fresh, dst: renamed.clone() });
    out.push(Txn::Delete { path: renamed, recursive: false });
}

/// No timing: a stream of file lifecycles and empty mkdir/rmdir pairs over
/// 5k directories moves no subtree, so it must flush nothing and keep hitting
/// the cache — on the active, and on a replica that only ever sees the
/// journal.
#[test]
fn file_lifecycle_and_empty_rmdir_never_flush_and_keep_hitting() {
    const DIRS: u32 = 5_000;
    let mut rng = SmallRng::seed_from_u64(0x5AAFE);
    let mut populate = vec![Txn::Mkdir { path: "/w".into() }];
    populate.extend((0..DIRS).map(|d| Txn::Mkdir { path: format!("/w/d{d}") }));
    let mut stream = Vec::new();
    for i in 0..20_000u32 {
        lifecycle(&mut stream, rng.gen_range(0..DIRS), i);
        if i % 8 == 0 {
            // A directory that comes and goes empty, under a reused name.
            let path = format!("/w/d{}/tmp", rng.gen_range(0..DIRS));
            stream.push(Txn::Mkdir { path: path.clone() });
            stream.push(Txn::Delete { path, recursive: rng.gen_bool(0.5) });
        }
    }

    let active = ShardedNamespace::new();
    let replica = ShardedNamespace::new();
    let mut session = ShardedReplaySession::new();
    for txn in &populate {
        active.apply(txn).unwrap();
        session.apply(&replica, txn).unwrap();
    }
    let before = [active.cache_stats(), replica.cache_stats()];
    for txn in &stream {
        active.apply(txn).unwrap();
        session.apply(&replica, txn).unwrap();
    }
    assert_eq!(active.fingerprint(), replica.fingerprint());
    for (name, ns, before) in [("active", &active, before[0]), ("replica", &replica, before[1])] {
        let after = ns.cache_stats();
        assert_eq!(after.flushes, 0, "{name}: nothing in this stream moves a subtree");
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let ratio = hits as f64 / (hits + misses) as f64;
        assert!(ratio >= 0.95, "{name}: hit ratio {ratio:.3} ({hits} hits, {misses} misses)");
    }
}

/// The cache counts exactly what it counted as sixteen 1 024-entry cache
/// shards: a path's set is picked from the same twelve hash bits, so a fixed
/// seeded stream — 8 256 directories up front, which overflow sets, then
/// mkdirs, creates, rmdirs, deletes, subtree moves and reads — ends with the
/// hits, misses, flushes and evictions recorded before the shards went.
#[test]
fn a_fixed_stream_counts_what_the_cache_shards_counted() {
    let universe = Universe { fan: [64, 128, 4], subtree_moves_per_mille: 0 };
    let mut rng = SmallRng::seed_from_u64(0x601D);
    let ns = ShardedNamespace::new();
    for txn in universe.skeleton() {
        ns.apply(&txn).unwrap();
    }
    for i in 0..20_000u32 {
        let txn = match rng.gen_range(0..1000u32) {
            0..=1 => Txn::Rename { src: universe.dir(&mut rng), dst: universe.dir(&mut rng) },
            2..=3 => Txn::Delete { path: universe.dir(&mut rng), recursive: true },
            4..=400 => Txn::Mkdir { path: universe.dir(&mut rng) },
            401..=700 => Txn::Create {
                path: format!("{}/f{}", universe.dir(&mut rng), i % 3),
                replication: 1,
            },
            701..=800 => Txn::Delete { path: universe.dir(&mut rng), recursive: false },
            _ => Txn::Delete {
                path: format!("{}/f{}", universe.dir(&mut rng), i % 3),
                recursive: false,
            },
        };
        let _ = ns.apply(&txn);
        let _ = ns.getfileinfo(&format!("{}/f0", universe.dir(&mut rng)));
    }
    let want = CacheStats { hits: 17_635, misses: 27_271, flushes: 25, evictions: 418 };
    assert_eq!(ns.cache_stats(), want);
}
