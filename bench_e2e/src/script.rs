//! Seeded script generators. Each client works in private directories and
//! the generator keeps a model of what exists there, so every generated
//! operation must succeed; a failed operation in a run is a defect in the
//! cluster, never in the traffic.
//!
//! A client gets two scripts: `populate` builds its part of the namespace
//! before measurement, `run` is the measured stream. Names are never reused,
//! so a path that was deleted or renamed away stays absent for good — which
//! is what lets [`Oracle`] say, for any prefix of a script, which paths must
//! exist and which must not.

use std::collections::{BTreeSet, VecDeque};

use mams_core::FsOp;
use mams_sim::DetRng;

use crate::workload::{Mix, Spec};

#[derive(Debug, Clone, Default)]
pub struct Scripts {
    pub populate: Vec<FsOp>,
    pub run: Vec<FsOp>,
}

const REPLICATION: u8 = 3;

fn create(path: String) -> FsOp {
    FsOp::Create { path, replication: REPLICATION }
}

/// The scripts of `client`, the same for the same `(spec, seed, client)`.
pub fn generate(spec: &Spec, seed: u64, client: u32, run_ops: usize) -> Scripts {
    let mut rng =
        DetRng::seed_from_u64(seed ^ (u64::from(client) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match spec.mix {
        Mix::Churn => churn(spec, client, run_ops, &mut rng),
        Mix::ReadMostly => read_mostly(spec, client, run_ops, &mut rng),
        Mix::Fig6 => fig6(client, run_ops, &mut rng),
    }
}

/// A file of the churn model: directory number and file number.
type FileRef = (u32, u32);

struct Churn {
    root: String,
    files_per_dir: u32,
    /// Live directories oldest first, with their live file counts.
    dirs: VecDeque<(u32, u32)>,
    next_dir: u32,
    /// Files created into the newest directory so far.
    newest_fill: u32,
    next_file: u32,
    fresh: VecDeque<FileRef>,
    renamed: VecDeque<FileRef>,
}

impl Churn {
    fn path(&self, (dir, file): FileRef, stem: char) -> String {
        format!("{}/d{dir}/{stem}{file}", self.root)
    }

    fn mkdir(&mut self, out: &mut Vec<FsOp>) {
        let dir = self.next_dir;
        self.next_dir += 1;
        self.dirs.push_back((dir, 0));
        self.newest_fill = 0;
        out.push(FsOp::Mkdir { path: format!("{}/d{dir}", self.root) });
    }

    fn create(&mut self, out: &mut Vec<FsOp>) {
        if self.dirs.is_empty() || self.newest_fill == self.files_per_dir {
            self.mkdir(out);
        }
        let newest = self.dirs.back_mut().expect("just ensured");
        newest.1 += 1;
        self.newest_fill += 1;
        let file = (newest.0, self.next_file);
        self.next_file += 1;
        self.fresh.push_back(file);
        out.push(create(self.path(file, 'f')));
    }

    fn rename(&mut self, out: &mut Vec<FsOp>) {
        let file = self.fresh.pop_front().expect("caller checked");
        self.renamed.push_back(file);
        out.push(FsOp::Rename { src: self.path(file, 'f'), dst: self.path(file, 'r') });
    }

    fn delete(&mut self, out: &mut Vec<FsOp>) {
        let file = self.renamed.pop_front().expect("caller checked");
        out.push(FsOp::Delete { path: self.path(file, 'r'), recursive: false });
        let dir =
            self.dirs.iter_mut().find(|d| d.0 == file.0).expect("a live file has a directory");
        dir.1 -= 1;
        // Files leave in creation order, so directories empty oldest first;
        // the newest stays, creates still go there.
        while self.dirs.len() > 1 && self.dirs[0].1 == 0 {
            let (dir, _) = self.dirs.pop_front().expect("checked");
            out.push(FsOp::Delete { path: format!("{}/d{dir}", self.root), recursive: false });
        }
    }
}

fn churn(spec: &Spec, client: u32, run_ops: usize, rng: &mut DetRng) -> Scripts {
    let mut m = Churn {
        root: format!("/c{client}"),
        files_per_dir: spec.populate_files.max(1),
        dirs: VecDeque::new(),
        next_dir: 0,
        newest_fill: 0,
        next_file: 0,
        fresh: VecDeque::new(),
        renamed: VecDeque::new(),
    };
    let mut populate = vec![FsOp::Mkdir { path: m.root.clone() }];
    for _ in 0..spec.populate_dirs * spec.populate_files {
        m.create(&mut populate);
    }
    // One create, one rename and one delete per round in a random order, so
    // the population holds; a step that has nothing to work on yet gives way
    // to one that does.
    let mut run = Vec::with_capacity(run_ops + 4);
    while run.len() < run_ops {
        let mut round = [0u8, 1, 2];
        for i in (1..round.len()).rev() {
            round.swap(i, rng.index(i + 1));
        }
        for step in round {
            match step {
                1 if !m.fresh.is_empty() => m.rename(&mut run),
                2 if !m.renamed.is_empty() => m.delete(&mut run),
                _ => m.create(&mut run),
            }
        }
    }
    Scripts { populate, run }
}

fn read_mostly(spec: &Spec, client: u32, run_ops: usize, rng: &mut DetRng) -> Scripts {
    let root = format!("/c{client}");
    let (dirs, files) = (u64::from(spec.populate_dirs), u64::from(spec.populate_files));
    let mut populate = vec![FsOp::Mkdir { path: root.clone() }];
    for d in 0..dirs {
        populate.push(FsOp::Mkdir { path: format!("{root}/d{d}") });
        for f in 0..files {
            populate.push(create(format!("{root}/d{d}/f{f}")));
        }
    }
    // Reads range over every client's directories, which all exist before
    // any measured script starts; temporary files stay in the client's own.
    let mut temps: VecDeque<String> = VecDeque::new();
    let mut next_temp = 0u64;
    let mut run = Vec::with_capacity(run_ops);
    while run.len() < run_ops {
        let roll = rng.below(40);
        let whose = rng.below(u64::from(spec.clients));
        let dir = rng.below(dirs);
        run.push(match roll {
            0 if !temps.is_empty() => {
                FsOp::Delete { path: temps.pop_front().expect("checked"), recursive: false }
            }
            0 | 1 => {
                let path = format!("{root}/d{dir}/t{next_temp}");
                next_temp += 1;
                temps.push_back(path.clone());
                create(path)
            }
            2..=5 => FsOp::List { path: format!("/c{whose}/d{dir}") },
            _ => FsOp::GetFileInfo { path: format!("/c{whose}/d{dir}/f{}", rng.below(files)) },
        });
    }
    Scripts { populate, run }
}

fn fig6(client: u32, run_ops: usize, rng: &mut DetRng) -> Scripts {
    let root = format!("/c{client}");
    let (mut files, mut dirs) = (0u64, 0u64);
    let mut run = Vec::with_capacity(run_ops);
    while run.len() < run_ops {
        run.push(match rng.below(3) {
            1 if files > 0 => FsOp::GetFileInfo { path: format!("{root}/f{}", rng.below(files)) },
            2 => {
                dirs += 1;
                FsOp::Mkdir { path: format!("{root}/d{}", dirs - 1) }
            }
            _ => {
                files += 1;
                create(format!("{root}/f{}", files - 1))
            }
        });
    }
    Scripts { populate: vec![FsOp::Mkdir { path: root }], run }
}

/// Which paths exist, and which once did, after a prefix of a script.
#[derive(Debug, Default)]
pub struct Oracle {
    pub live: BTreeSet<String>,
    pub gone: Vec<String>,
}

impl Oracle {
    pub fn apply(&mut self, op: &FsOp) {
        match op {
            FsOp::Create { path, .. } | FsOp::Mkdir { path } => {
                self.live.insert(path.clone());
            }
            FsOp::Delete { path, .. } => self.retire(path),
            FsOp::Rename { src, dst } => {
                self.retire(src);
                self.live.insert(dst.clone());
            }
            _ => {}
        }
    }

    fn retire(&mut self, path: &str) {
        assert!(self.live.remove(path), "script removes {path}, which it never made");
        self.gone.push(path.to_string());
    }

    /// Forget `op`'s paths: whether it ran is not known.
    pub fn forget(&mut self, op: &FsOp) {
        let mut drop = |p: &String| {
            self.live.remove(p);
            self.gone.retain(|g| g != p);
        };
        match op {
            FsOp::Rename { src, dst } => {
                drop(src);
                drop(dst);
            }
            other => drop(&other.primary_path().to_string()),
        }
    }
}

/// Heap and inline bytes a script holds, for `bench.script_mb`.
pub fn script_bytes(ops: &[FsOp]) -> usize {
    let heap: usize = ops
        .iter()
        .map(|op| match op {
            FsOp::Rename { src, dst } => src.len() + dst.len(),
            other => other.primary_path().len(),
        })
        .sum();
    heap + std::mem::size_of_val(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use mams_namespace::ShardedNamespace;

    fn apply(ns: &ShardedNamespace, op: &FsOp) -> Result<(), String> {
        match op {
            FsOp::Create { path, replication } => ns.create(path, *replication).map(|_| ()),
            FsOp::Mkdir { path } => ns.mkdir(path),
            FsOp::Delete { path, recursive } => ns.delete(path, *recursive).map(|_| ()),
            FsOp::Rename { src, dst } => ns.rename(src, dst),
            FsOp::GetFileInfo { path } => ns.getfileinfo(path).map(|_| ()),
            FsOp::List { path } => ns.list(path).map(|_| ()),
            other => panic!("generators never emit {other:?}"),
        }
        .map_err(|e| format!("{op:?}: {e}"))
    }

    /// Every generated operation succeeds against a real namespace, with the
    /// clients' streams interleaved as a server would see them, and the
    /// oracle agrees with the namespace about what exists afterwards.
    #[test]
    fn scripts_apply_cleanly_and_the_oracle_agrees() {
        for spec in workload::all() {
            let spec = Spec { clients: 3, ..spec.quick() };
            let ns = ShardedNamespace::new();
            let scripts: Vec<Scripts> =
                (0..spec.clients).map(|c| generate(&spec, 7, c, 2_000)).collect();
            let mut oracle = Oracle::default();
            for s in &scripts {
                for op in &s.populate {
                    apply(&ns, op).unwrap();
                    oracle.apply(op);
                }
            }
            for i in 0..2_000 {
                for s in &scripts {
                    apply(&ns, &s.run[i]).unwrap();
                    oracle.apply(&s.run[i]);
                }
            }
            for p in &oracle.live {
                assert!(ns.exists(p), "{}: {p} should exist", spec.name);
            }
            for p in &oracle.gone {
                assert!(!ns.exists(p), "{}: {p} should be gone", spec.name);
            }
        }
    }

    #[test]
    fn churn_holds_its_population_and_uses_every_mutation() {
        let spec = workload::all().into_iter().find(|s| s.name == "write_steady").unwrap();
        let s = generate(&spec, 1, 0, 30_000);
        let mut oracle = Oracle::default();
        s.populate.iter().for_each(|op| oracle.apply(op));
        let before = oracle.live.len();
        s.run.iter().for_each(|op| oracle.apply(op));
        let after = oracle.live.len();
        assert!(before.abs_diff(after) <= 4, "population drifted {before} -> {after}");
        let count = |f: fn(&FsOp) -> bool| s.run.iter().filter(|op| f(op)).count();
        let creates = count(|op| matches!(op, FsOp::Create { .. }));
        let renames = count(|op| matches!(op, FsOp::Rename { .. }));
        let mkdirs = count(|op| matches!(op, FsOp::Mkdir { .. }));
        assert!(creates.abs_diff(renames) <= 2);
        assert!(
            mkdirs * 12 > creates && mkdirs * 6 < creates,
            "{mkdirs} mkdirs, {creates} creates"
        );
    }

    #[test]
    fn same_seed_same_script_and_other_seed_another() {
        let spec = workload::all().into_iter().find(|s| s.name == "read_mostly").unwrap().quick();
        let a = generate(&spec, 5, 1, 500);
        assert_eq!(a.run, generate(&spec, 5, 1, 500).run);
        assert_ne!(a.run, generate(&spec, 6, 1, 500).run);
        assert_ne!(a.run, generate(&spec, 5, 2, 500).run);
    }
}
