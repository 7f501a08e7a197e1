//! The resolution cache against its oracle, and the shape of its cost.
//!
//! The cache may only ever be a faster way to the answer the walk from the
//! root gives. These suites drive seeded random streams — directory renames,
//! recursive deletes of populated trees, rmdir-then-mkdir of one name, with
//! snapshot pins held across all of it — through an active namespace and a
//! replica fed its journal through [`ShardedNamespace::apply`], and after every
//! op compare cached against uncached resolution on both, and every pinned
//! view against a quiesced copy taken at its epoch.
//!
//! The shape tests count instead of timing. Only a walk binds a directory,
//! so a stream with no subtree move never flushes the cache and misses only
//! on a directory's first walk or after an eviction, and a mkdir binds
//! nothing.
//!
//! Seeded `rand`; `PARITY_CASES` scales the case count.

use std::collections::BTreeSet;

use mams_journal::Txn;
use mams_namespace::{CacheStats, NamespaceTree, ShardedNamespace, SnapshotView};
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

    /// A file in each second-level directory. A directory is bound only
    /// when a later op walks to it, so these creates are what fill the cache
    /// before a stream runs.
    fn touch(&self) -> Vec<Txn> {
        let dirs = (0..self.fan[0]).flat_map(|t| (0..self.fan[1]).map(move |s| (t, s)));
        dirs.map(|(t, s)| Txn::Create { path: format!("/t{t}/s{s}/seed"), replication: 3 })
            .collect()
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

/// Apply `setup`, then `ops` random ops from `universe`, to an active, a
/// replica and the legacy tree, checking cached resolution and every pin as
/// it goes.
fn run_stream(case: u64, universe: &Universe, setup: &[Txn], ops: usize) -> ShardedNamespace {
    let mut rng = SmallRng::seed_from_u64(0xCAC4E ^ (case << 8));
    let active = ShardedNamespace::new();
    let replica = ShardedNamespace::new();
    let mut legacy = NamespaceTree::new();
    for txn in setup {
        legacy.apply(txn).unwrap();
        active.apply(txn).unwrap();
        replica.apply(txn).unwrap();
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
            replica.apply(&txn).unwrap_or_else(|e| {
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
    let universe = Universe { fan: [3, 3, 2], subtree_moves_per_mille: 150 };
    let mut flushes = 0;
    for case in 0..cases() {
        let ns = run_stream(case, &universe, &universe.skeleton(), 600);
        flushes += ns.cache_stats().flushes;
    }
    assert!(flushes > 0, "the streams never moved a subtree");
}

/// More directories walked to up front (16 448: the top two levels, each
/// walked by a create or a mkdir beneath it) than the cache has entries
/// (16 384), so sets overflow from walks alone and bindings are replaced
/// while the stream runs.
#[test]
fn cached_resolution_matches_the_walk_while_sets_overflow() {
    let universe = Universe { fan: [64, 256, 4], subtree_moves_per_mille: 2 };
    let setup: Vec<Txn> = universe.skeleton().into_iter().chain(universe.touch()).collect();
    let mut evictions = 0;
    for case in 0..cases().div_ceil(4) {
        let ns = run_stream(1000 + case, &universe, &setup, 3_000);
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

/// The directories `stream`'s ops resolve as parents.
fn parents_of(stream: &[Txn]) -> BTreeSet<&str> {
    fn parent(p: &str) -> Option<&str> {
        p.rsplit_once('/').map(|(dir, _)| dir)
    }
    let mut dirs = BTreeSet::new();
    for txn in stream {
        dirs.extend(parent(txn.primary_path()));
        if let Txn::Rename { dst, .. } = txn {
            dirs.extend(parent(dst));
        }
    }
    dirs
}

/// No timing: a stream of file lifecycles and empty mkdir/rmdir pairs over
/// 5k directories moves no subtree, so it must flush nothing, and every miss
/// is a directory's first walk or follows an eviction — on the active, and
/// on a replica that only ever sees the journal.
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
    for txn in &populate {
        active.apply(txn).unwrap();
        replica.apply(txn).unwrap();
    }
    let before = [active.cache_stats(), replica.cache_stats()];
    for txn in &stream {
        active.apply(txn).unwrap();
        replica.apply(txn).unwrap();
    }
    assert_eq!(active.fingerprint(), replica.fingerprint());
    let touched = parents_of(&stream).len() as u64;
    for (name, ns, before) in [("active", &active, before[0]), ("replica", &replica, before[1])] {
        let after = ns.cache_stats();
        assert_eq!(after.flushes, 0, "{name}: nothing in this stream moves a subtree");
        let misses = after.misses - before.misses;
        let evictions = after.evictions - before.evictions;
        assert!(
            misses <= touched + evictions,
            "{name}: {misses} misses over {touched} directories and {evictions} evictions"
        );
    }
}

/// What the cache counts over a fixed seeded stream — 8 256 directories up
/// front, the 8 192 second-level ones each walked to by a create, which
/// overflows sets; then mkdirs, creates, rmdirs, deletes, subtree moves and
/// reads — with a directory bound only by an op that walked to it. The
/// count pins both that rule and the twelve hash bits that pick a path's set
/// and, through the evictions, which binding a full set gives up.
#[test]
fn a_fixed_stream_counts_what_walks_alone_bind() {
    let universe = Universe { fan: [64, 128, 4], subtree_moves_per_mille: 0 };
    let mut rng = SmallRng::seed_from_u64(0x601D);
    let ns = ShardedNamespace::new();
    for txn in universe.skeleton().into_iter().chain(universe.touch()) {
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
    let want = CacheStats { hits: 14_867, misses: 38_231, flushes: 30, evictions: 368 };
    assert_eq!(ns.cache_stats(), want);
}

/// The Figure 6 mix in one flat directory, as `multi_group` runs it: about
/// 18k mkdirs — more than the cache has entries — with creates and
/// getfileinfos, all under one parent. Only that parent is ever walked to,
/// so the stream misses once, on its first walk, and evicts nothing — on the
/// active, and on a replica fed the journal through `apply` (reads
/// go to the active alone).
#[test]
fn a_flat_directory_of_mkdirs_misses_once_and_evicts_nothing() {
    let mut rng = SmallRng::seed_from_u64(0xF16);
    let active = ShardedNamespace::new();
    let replica = ShardedNamespace::new();
    let apply = |txn: Txn| {
        active.apply(&txn).unwrap();
        replica.apply(&txn).unwrap();
    };
    apply(Txn::Mkdir { path: "/fig6".into() });
    let mut found = 0;
    for i in 0..54_000u32 {
        match rng.gen_range(0..3u32) {
            0 => apply(Txn::Mkdir { path: format!("/fig6/d{i}") }),
            1 => apply(Txn::Create { path: format!("/fig6/f{i}"), replication: 3 }),
            _ => {
                found += active.getfileinfo(&format!("/fig6/f{}", rng.gen_range(0..i + 1))).is_ok()
                    as u32
            }
        }
    }
    assert!(found > 500, "the reads found {found} files");
    assert_eq!(active.fingerprint(), replica.fingerprint());
    for (name, ns) in [("active", &active), ("replica", &replica)] {
        let stats = ns.cache_stats();
        assert_eq!((stats.misses, stats.evictions, stats.flushes), (1, 0, 0), "{name}: {stats:?}");
    }
}

/// `mkdir /a/b` binds only `/a`, which its own lookup walked to: the first
/// create under `/a/b` misses and binds it, and the second hits.
#[test]
fn mkdir_binds_its_parent_not_the_directory_it_makes() {
    let ns = ShardedNamespace::new();
    ns.mkdir("/a").unwrap();
    ns.mkdir("/a/b").unwrap();
    let made = ns.cache_stats();
    assert_eq!((made.hits, made.misses), (0, 1), "mkdir /a/b walked to /a");
    ns.create("/a/b/f", 1).unwrap();
    let first = ns.cache_stats();
    assert_eq!((first.hits, first.misses), (0, 2), "/a/b was not bound by its mkdir");
    ns.create("/a/b/g", 1).unwrap();
    let second = ns.cache_stats();
    assert_eq!((second.hits, second.misses), (1, 2), "the first create bound /a/b");
}
