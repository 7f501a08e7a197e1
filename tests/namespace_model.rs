//! Model-based randomized test: the namespace tree vs a flat reference
//! model (a set of absolute paths with kinds). Every operation must agree
//! with the model on success/failure *and* on the resulting state.
//!
//! These are seeded randomized tests, not `proptest` suites (no `proptest`
//! crate resolves offline): property coverage comes from the vendored
//! `rand` with fixed seeds — deterministic, shrink-free, CI-friendly.
//! `PARITY_CASES` scales the number of cases (nightly runs more).

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mams::namespace::NamespaceTree;

/// Cases per test; override with `PARITY_CASES` (nightly runs elevated).
fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    File,
    Dir,
}

/// The reference model: path → kind, with "/" implicit.
#[derive(Debug, Default)]
struct Model {
    entries: BTreeMap<String, Kind>,
}

impl Model {
    fn parent_ok(&self, p: &str) -> bool {
        match mams_parent(p) {
            Some("/") => true,
            Some(parent) => self.entries.get(parent) == Some(&Kind::Dir),
            None => false,
        }
    }

    fn exists(&self, p: &str) -> bool {
        p == "/" || self.entries.contains_key(p)
    }

    fn children(&self, p: &str) -> Vec<String> {
        let prefix = if p == "/" { "/".to_string() } else { format!("{p}/") };
        self.entries
            .keys()
            .filter(|k| {
                k.starts_with(&prefix)
                    && !k[prefix.len()..].contains('/')
                    && !k[prefix.len()..].is_empty()
            })
            .cloned()
            .collect()
    }

    fn create(&mut self, p: &str) -> bool {
        if self.exists(p) || !self.parent_ok(p) {
            return false;
        }
        self.entries.insert(p.to_string(), Kind::File);
        true
    }

    fn mkdir(&mut self, p: &str) -> bool {
        if self.exists(p) || !self.parent_ok(p) {
            return false;
        }
        self.entries.insert(p.to_string(), Kind::Dir);
        true
    }

    fn delete(&mut self, p: &str, recursive: bool) -> bool {
        match self.entries.get(p) {
            None => false,
            Some(Kind::File) => {
                self.entries.remove(p);
                true
            }
            Some(Kind::Dir) => {
                if !self.children(p).is_empty() && !recursive {
                    return false;
                }
                let prefix = format!("{p}/");
                self.entries.retain(|k, _| k != p && !k.starts_with(&prefix));
                true
            }
        }
    }

    fn rename(&mut self, src: &str, dst: &str) -> bool {
        if src == dst
            || !self.exists(src)
            || src == "/"
            || self.exists(dst)
            || !self.parent_ok(dst)
            || is_descendant(dst, src)
        {
            return false;
        }
        let src_prefix = format!("{src}/");
        let moved: Vec<(String, Kind)> = self
            .entries
            .iter()
            .filter(|(k, _)| k.as_str() == src || k.starts_with(&src_prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for (k, _) in &moved {
            self.entries.remove(k);
        }
        for (k, v) in moved {
            let suffix = &k[src.len()..];
            self.entries.insert(format!("{dst}{suffix}"), v);
        }
        true
    }
}

fn mams_parent(p: &str) -> Option<&str> {
    if p == "/" {
        return None;
    }
    match p.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&p[..i]),
        None => None,
    }
}

fn is_descendant(descendant: &str, ancestor: &str) -> bool {
    descendant.len() > ancestor.len()
        && descendant.starts_with(ancestor)
        && descendant.as_bytes()[ancestor.len()] == b'/'
}

#[derive(Debug, Clone)]
enum Op {
    Create(String),
    Mkdir(String),
    Delete(String, bool),
    Rename(String, String),
    GetInfo(String),
    List(String),
}

/// A path from a tiny alphabet (a/b/c, depth 1..=3) so ops collide often —
/// the interesting cases.
fn small_path(rng: &mut SmallRng) -> String {
    const NAMES: [&str; 3] = ["a", "b", "c"];
    let depth = rng.gen_range(1..4usize);
    let comps: Vec<&str> = (0..depth).map(|_| NAMES[rng.gen_range(0..NAMES.len())]).collect();
    format!("/{}", comps.join("/"))
}

fn rand_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..6u32) {
        0 => Op::Create(small_path(rng)),
        1 => Op::Mkdir(small_path(rng)),
        2 => Op::Delete(small_path(rng), rng.gen_bool(0.5)),
        3 => Op::Rename(small_path(rng), small_path(rng)),
        4 => Op::GetInfo(small_path(rng)),
        _ => Op::List(small_path(rng)),
    }
}

#[test]
fn tree_agrees_with_the_reference_model() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x4d0de1 ^ (case << 8));
        let n_ops = rng.gen_range(1..200usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| rand_op(&mut rng)).collect();
        let mut tree = NamespaceTree::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Create(p) => {
                    let t = tree.create(p, 1).is_ok();
                    let m = model.create(p);
                    assert_eq!(t, m, "case {case}: create {p} disagreed");
                }
                Op::Mkdir(p) => {
                    let t = tree.mkdir(p).is_ok();
                    let m = model.mkdir(p);
                    assert_eq!(t, m, "case {case}: mkdir {p} disagreed");
                }
                Op::Delete(p, r) => {
                    let t = tree.delete(p, *r).is_ok();
                    let m = model.delete(p, *r);
                    assert_eq!(t, m, "case {case}: delete {p} (r={r}) disagreed");
                }
                Op::Rename(s, d) => {
                    let t = tree.rename(s, d).is_ok();
                    let m = model.rename(s, d);
                    assert_eq!(t, m, "case {case}: rename {s} -> {d} disagreed");
                }
                Op::GetInfo(p) => {
                    let t = tree.getfileinfo(p);
                    assert_eq!(
                        t.is_ok(),
                        model.exists(p),
                        "case {case}: getfileinfo {p} disagreed"
                    );
                    if let Ok(info) = t {
                        if p != "/" {
                            let kind = model.entries[p.as_str()];
                            assert_eq!(info.is_dir, kind == Kind::Dir);
                        }
                    }
                }
                Op::List(p) => {
                    if let Ok(mut names) = tree.list(p) {
                        assert_eq!(
                            model.entries.get(p.as_str()).copied(),
                            if p == "/" { None } else { Some(Kind::Dir) }
                        );
                        let mut expected: Vec<String> = model
                            .children(p)
                            .iter()
                            .map(|c| c.rsplit('/').next().unwrap().to_string())
                            .collect();
                        names.sort();
                        expected.sort();
                        assert_eq!(names, expected, "case {case}: list {p} disagreed");
                    }
                }
            }
        }
        // Final shape agreement.
        let files = model.entries.values().filter(|&&k| k == Kind::File).count() as u64;
        let dirs = model.entries.values().filter(|&&k| k == Kind::Dir).count() as u64;
        assert_eq!(tree.num_files(), files, "case {case}");
        assert_eq!(tree.num_dirs(), dirs, "case {case}");
    }
}
