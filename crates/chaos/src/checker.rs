//! Wing–Gong-style linearizability checker, specialized to the metadata
//! operation model.
//!
//! The history is the flat [`OpRecord`] log the cluster's clients wrote
//! (one record per *logical* operation, spanning all its retry attempts).
//! The checker asks: is there a total order of the operations, consistent
//! with real time (if op A completed before op B was invoked, A orders
//! first), under which every observed outcome matches a sequential
//! namespace?
//!
//! # Specialization
//!
//! Keys are independent except where a `rename` bridges two paths, so the
//! history is first split into **components** (union-find over paths,
//! renames linking src and dst) and each component is checked on its own —
//! the classic P-compositionality cut that turns one intractable search
//! into many trivial ones. Per-key state is just `Absent | File | Dir`.
//!
//! # Strict linearizability, everywhere
//!
//! MAMS suppresses duplicate requests with a per-client retry window that
//! is *replicated through the journal*: every batch carries the acks it
//! released, replay rebuilds the `(client, seq) → outcome` window on every
//! replica, and promotion seeds the successor's retry cache from it. A
//! retry that lands on a freshly promoted active is therefore answered
//! from the replicated window, never re-executed — there is no
//! at-most-once hole across failover, and the checker holds every history
//! (retried or not, across any number of failovers) to **strict**
//! linearizability. There is no other mode: a re-executed retry is a bug,
//! which is what gives the double-ack teeth test its bite even in faulty
//! runs.

use std::collections::{HashMap, HashSet};

use mams_cluster::OpRecord;
use mams_core::{FsOp, NsError, OpOutput};

/// Search budget: explored configurations per component.
const BUDGET: u64 = 400_000;

/// Checker verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every component admits a valid linearization.
    Ok { states: u64 },
    /// Some component has no valid linearization.
    Violation { witness: String },
    /// Budget exhausted before a verdict.
    Inconclusive { states: u64 },
}

impl CheckOutcome {
    pub fn is_violation(&self) -> bool {
        matches!(self, CheckOutcome::Violation { .. })
    }
}

// --------------------------------------------------------------- model

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeySt {
    Absent = 0,
    File = 1,
    Dir = 2,
}

/// Precondition on the component state, over local path slots.
#[derive(Debug, Clone, Copy)]
enum Pre {
    None,
    Absent(u8),
    Present(u8),
    /// Present and is/ isn't a directory (from `GetFileInfo` output).
    IsDir(u8, bool),
    /// Rename applies: src present, dst absent.
    RenameOk(u8, u8),
}

/// State transition.
#[derive(Debug, Clone, Copy)]
enum Eff {
    Create(u8),
    Mkdir(u8),
    Delete(u8),
    Rename(u8, u8),
}

#[derive(Debug, Clone, Copy)]
struct Branch {
    pre: Pre,
    eff: Option<Eff>,
}

#[derive(Debug)]
struct Entry {
    inv: u64,
    ret: u64,
    branches: Vec<Branch>,
}

/// One independently checkable key component.
struct Component {
    /// Per virtual client: entries in invocation order (real clients are
    /// closed-loop, so per-client entries never overlap).
    queues: Vec<Vec<Entry>>,
    n_paths: usize,
    /// Original records (for the witness).
    records: Vec<OpRecord>,
}

fn pre_holds(pre: Pre, st: &[u8]) -> bool {
    match pre {
        Pre::None => true,
        Pre::Absent(p) => st[p as usize] == KeySt::Absent as u8,
        Pre::Present(p) => st[p as usize] != KeySt::Absent as u8,
        Pre::IsDir(p, dir) => {
            st[p as usize] == if dir { KeySt::Dir as u8 } else { KeySt::File as u8 }
        }
        Pre::RenameOk(s, d) => {
            st[s as usize] != KeySt::Absent as u8 && st[d as usize] == KeySt::Absent as u8
        }
    }
}

fn apply_eff(eff: Eff, st: &mut [u8]) {
    match eff {
        Eff::Create(p) => st[p as usize] = KeySt::File as u8,
        Eff::Mkdir(p) => st[p as usize] = KeySt::Dir as u8,
        Eff::Delete(p) => st[p as usize] = KeySt::Absent as u8,
        Eff::Rename(s, d) => {
            st[d as usize] = st[s as usize];
            st[s as usize] = KeySt::Absent as u8;
        }
    }
}

/// The success-path branch for a mutation (its precondition is exactly the
/// namespace's own acceptance rule).
fn success_branch(op: &FsOp, slot: impl Fn(&str) -> u8) -> Option<Branch> {
    match op {
        FsOp::Create { path, .. } => {
            let p = slot(path);
            Some(Branch { pre: Pre::Absent(p), eff: Some(Eff::Create(p)) })
        }
        FsOp::Mkdir { path } => {
            let p = slot(path);
            Some(Branch { pre: Pre::Absent(p), eff: Some(Eff::Mkdir(p)) })
        }
        FsOp::Delete { path, .. } => {
            let p = slot(path);
            Some(Branch { pre: Pre::Present(p), eff: Some(Eff::Delete(p)) })
        }
        FsOp::Rename { src, dst } => {
            let (s, d) = (slot(src), slot(dst));
            Some(Branch { pre: Pre::RenameOk(s, d), eff: Some(Eff::Rename(s, d)) })
        }
        _ => None,
    }
}

/// The branch explaining an *error* outcome: a no-op whose precondition is
/// the state the error proves. No `_` arm: CI's clippy refuses a new
/// variant until this says what it proves.
#[deny(clippy::wildcard_enum_match_arm)]
fn error_branch(op: &FsOp, err: &NsError, slot: impl Fn(&str) -> u8) -> Branch {
    let (taken, missing) = claimed_names(op);
    let pre = match err {
        NsError::AlreadyExists(_) => taken.map_or(Pre::None, |p| Pre::Present(slot(p))),
        NsError::NotFound(_) => missing.map_or(Pre::None, |p| Pre::Absent(slot(p))),
        // These speak of a parent, a child, a file's state or a path's form,
        // which the flat `Absent | File | Dir` model does not hold: they stay
        // unconstrained until the checker models a tree (ROADMAP item 22(c)).
        NsError::Invalid(_)
        | NsError::ParentNotFound(_)
        | NsError::ParentNotDirectory(_)
        | NsError::NotEmpty(_)
        | NsError::IsDirectory(_)
        | NsError::IsFile(_)
        | NsError::FileSealed(_)
        | NsError::RenameIntoSelf { .. }
        | NsError::RootImmutable => Pre::None,
    };
    Branch { pre, eff: None }
}

/// The name an op's `AlreadyExists` proves present, and the name its
/// `NotFound` proves absent.
fn claimed_names(op: &FsOp) -> (Option<&str>, Option<&str>) {
    match op {
        FsOp::Create { path, .. } | FsOp::Mkdir { path } => (Some(path), None),
        FsOp::Delete { path, .. } | FsOp::GetFileInfo { path } => (None, Some(path)),
        FsOp::Rename { src, dst } => (Some(dst), Some(src)),
        _ => (None, None),
    }
}

// ---------------------------------------------------------- components

struct Uf(HashMap<String, String>);

impl Uf {
    fn find(&mut self, k: &str) -> String {
        let parent = match self.0.get(k) {
            None => {
                self.0.insert(k.to_string(), k.to_string());
                return k.to_string();
            }
            Some(p) => p.clone(),
        };
        if parent == k {
            return parent;
        }
        let root = self.find(&parent);
        self.0.insert(k.to_string(), root.clone());
        root
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.0.insert(ra, rb);
        }
    }
}

fn op_paths(op: &FsOp) -> Vec<&str> {
    match op {
        FsOp::Rename { src, dst } => vec![src.as_str(), dst.as_str()],
        other => vec![other.primary_path()],
    }
}

/// Is this record inside the checker's model at all?
fn in_model(r: &OpRecord) -> bool {
    if r.is_setup {
        return false; // idempotent setup mkdirs, shared across clients
    }
    match &r.op {
        FsOp::Create { .. } | FsOp::Mkdir { .. } | FsOp::Delete { .. } | FsOp::Rename { .. } => {
            true
        }
        FsOp::GetFileInfo { .. } => r.completed_us.is_some(), // unanswered reads say nothing
        _ => false,
    }
}

fn build_components(records: &[OpRecord]) -> Vec<Component> {
    let mut uf = Uf(HashMap::new());
    let in_scope: Vec<&OpRecord> = records.iter().filter(|r| in_model(r)).collect();
    for r in &in_scope {
        let ps = op_paths(&r.op);
        for p in &ps {
            uf.union(ps[0], p);
        }
    }
    let mut by_root: HashMap<String, Vec<&OpRecord>> = HashMap::new();
    for r in &in_scope {
        let root = uf.find(op_paths(&r.op)[0]);
        by_root.entry(root).or_default().push(r);
    }

    let mut out = Vec::new();
    for (_, recs) in by_root {
        // Local path slots.
        let mut paths: Vec<String> = Vec::new();
        for r in &recs {
            for p in op_paths(&r.op) {
                if !paths.iter().any(|q| q == p) {
                    paths.push(p.to_string());
                }
            }
        }
        let slot_of = |paths: &[String], p: &str| -> u8 {
            paths.iter().position(|q| q == p).expect("collected") as u8
        };

        let mut queues: Vec<Vec<Entry>> = Vec::new();
        let mut client_q: HashMap<u32, usize> = HashMap::new();
        let mut records_local: Vec<OpRecord> = Vec::new();

        for r in &recs {
            records_local.push((*r).clone());
            let slot = |p: &str| slot_of(&paths, p);
            let inv = r.invoked_us;
            let ret = r.completed_us.unwrap_or(u64::MAX);
            let is_mutation = r.op.is_mutation();

            let mut branches = Vec::new();
            match (&r.op, &r.result, r.ok) {
                (FsOp::GetFileInfo { path }, Some(Ok(OpOutput::Info(fi))), _) => {
                    branches.push(Branch { pre: Pre::IsDir(slot(path), fi.is_dir), eff: None })
                }
                (op, Some(Err(e)), Some(false)) => branches.push(error_branch(op, e, slot)),
                (op, Some(result), _) if is_mutation => {
                    // Completed successfully.
                    if let Some(b) = success_branch(op, slot) {
                        branches.push(b);
                    }
                    if let Err(e) = result {
                        // Reconciled: the success the client reported was
                        // inferred from a retry error (`AlreadyExists` /
                        // `NotFound`): either its own earlier execution
                        // applied, or it never executed and the error is a
                        // truthful no-op. Both worlds must be explorable.
                        branches.push(error_branch(op, e, slot));
                    }
                }
                (op, None, _) if is_mutation => {
                    // Never answered: may or may not have executed.
                    if let Some(b) = success_branch(op, slot) {
                        branches.push(b);
                    }
                    branches.push(Branch { pre: Pre::None, eff: None });
                }
                _ => continue, // unanswered read (already filtered) or non-model op
            }

            let qi = *client_q.entry(r.client).or_insert_with(|| {
                queues.push(Vec::new());
                queues.len() - 1
            });
            queues[qi].push(Entry { inv, ret, branches });
        }

        // Per-queue entries must be in invocation order (real clients are
        // closed-loop so history order already is invocation order).
        for q in &mut queues {
            q.sort_by_key(|e| e.inv);
        }
        out.push(Component { queues, n_paths: paths.len(), records: records_local });
    }
    out
}

// -------------------------------------------------------------- search

fn encode(fronts: &[u16], st: &[u8]) -> Vec<u8> {
    let mut key = Vec::with_capacity(fronts.len() * 2 + st.len());
    for f in fronts {
        key.extend_from_slice(&f.to_le_bytes());
    }
    key.extend_from_slice(st);
    key
}

/// Check one component. Returns `Ok(states)` on success, `Err(true)` on
/// violation, `Err(false)` on budget exhaustion.
fn check_component(c: &Component) -> Result<u64, bool> {
    let nq = c.queues.len();
    let fronts0 = vec![0u16; nq];
    let st0 = vec![KeySt::Absent as u8; c.n_paths];
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut stack = vec![(fronts0, st0)];
    let mut states: u64 = 0;

    while let Some((fronts, st)) = stack.pop() {
        let key = encode(&fronts, &st);
        if !seen.insert(key) {
            continue;
        }
        states += 1;
        if states > BUDGET {
            return Err(false);
        }
        if fronts.iter().enumerate().all(|(qi, &f)| f as usize >= c.queues[qi].len()) {
            return Ok(states); // every entry linearized
        }
        // Minimum completion time over pending fronts: an entry may
        // linearize next only if no pending entry returned before it was
        // invoked.
        let min_ret = fronts
            .iter()
            .enumerate()
            .filter_map(|(qi, &f)| c.queues[qi].get(f as usize))
            .map(|e| e.ret)
            .min()
            .unwrap_or(u64::MAX);
        for qi in 0..nq {
            let Some(e) = c.queues[qi].get(fronts[qi] as usize) else { continue };
            if e.inv > min_ret {
                continue; // something else must linearize first
            }
            for b in &e.branches {
                if !pre_holds(b.pre, &st) {
                    continue;
                }
                let mut nf = fronts.clone();
                nf[qi] += 1;
                let mut nst = st.clone();
                if let Some(eff) = b.eff {
                    apply_eff(eff, &mut nst);
                }
                stack.push((nf, nst));
            }
        }
    }
    Err(true) // search space exhausted with no complete linearization
}

fn witness(c: &Component) -> String {
    let mut recs: Vec<&OpRecord> = c.records.iter().collect();
    recs.sort_by_key(|r| r.invoked_us);
    let mut out = String::from("no valid linearization for component:\n");
    for r in recs.iter().take(48) {
        let outcome = match (&r.result, r.ok) {
            (None, _) => "?".to_string(),
            (Some(Err(_)), Some(true)) => "ok (reconciled)".to_string(),
            (Some(Err(e)), _) => format!("err {e}"),
            (Some(Ok(OpOutput::Info(fi))), _) => format!("ok is_dir={}", fi.is_dir),
            (Some(Ok(_)), _) => "ok".to_string(),
        };
        out.push_str(&format!(
            "  c{} [{} .. {}] x{} {:?} -> {}\n",
            r.client,
            r.invoked_us,
            r.completed_us.map(|t| t.to_string()).unwrap_or_else(|| "inf".into()),
            r.attempts,
            r.op,
            outcome
        ));
    }
    if c.records.len() > 48 {
        out.push_str(&format!("  ... {} more\n", c.records.len() - 48));
    }
    out
}

/// Check a recorded history for strict linearizability (see the module
/// docs).
pub fn check_history(records: &[OpRecord]) -> CheckOutcome {
    let comps = build_components(records);
    let mut total: u64 = 0;
    let mut inconclusive = false;
    for c in &comps {
        match check_component(c) {
            Ok(states) => total += states,
            Err(true) => return CheckOutcome::Violation { witness: witness(c) },
            Err(false) => inconclusive = true,
        }
    }
    if inconclusive {
        CheckOutcome::Inconclusive { states: total }
    } else {
        CheckOutcome::Ok { states: total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_namespace::FileInfo;

    fn rec(
        client: u32,
        op: FsOp,
        window: (u64, Option<u64>),
        ok: Option<bool>,
        attempts: u32,
    ) -> OpRecord {
        OpRecord {
            client,
            op,
            invoked_us: window.0,
            completed_us: window.1,
            ok,
            result: ok.map(|_| Ok(OpOutput::Done)),
            attempts,
            is_setup: false,
        }
    }

    /// A completed record the server refused with `err`.
    fn failed(client: u32, op: FsOp, window: (u64, Option<u64>), err: NsError) -> OpRecord {
        OpRecord { result: Some(Err(err)), ..rec(client, op, window, Some(false), 1) }
    }

    fn create(p: &str) -> FsOp {
        FsOp::Create { path: p.into(), replication: 1 }
    }
    fn delete(p: &str) -> FsOp {
        FsOp::Delete { path: p.into(), recursive: false }
    }
    fn getinfo(p: &str) -> FsOp {
        FsOp::GetFileInfo { path: p.into() }
    }
    fn info_file(p: &str) -> OpOutput {
        OpOutput::Info(FileInfo {
            path: p.into(),
            is_dir: false,
            blocks: vec![],
            replication: 1,
            sealed: false,
            perm: 0o644,
            child_count: 0,
        })
    }

    #[test]
    fn sequential_history_is_ok() {
        let recs = vec![
            rec(0, create("/hot/f0"), (0, Some(1)), Some(true), 1),
            rec(0, delete("/hot/f0"), (2, Some(3)), Some(true), 1),
            rec(0, create("/hot/f0"), (4, Some(5)), Some(true), 1),
        ];
        assert!(matches!(check_history(&recs), CheckOutcome::Ok { .. }));
    }

    #[test]
    fn stale_read_after_delete_is_a_violation() {
        // delete committed, then a later read still sees the file — with
        // no concurrency to hide behind this cannot linearize.
        let mut read = rec(0, getinfo("/hot/f0"), (4, Some(5)), Some(true), 1);
        read.result = Some(Ok(info_file("/hot/f0")));
        let recs = vec![
            rec(0, create("/hot/f0"), (0, Some(1)), Some(true), 1),
            rec(0, delete("/hot/f0"), (2, Some(3)), Some(true), 1),
            read,
        ];
        assert!(check_history(&recs).is_violation());
    }

    #[test]
    fn concurrent_create_explains_exists_error() {
        let err =
            failed(1, create("/hot/f0"), (0, Some(4)), NsError::AlreadyExists("/hot/f0".into()));
        let recs = vec![rec(0, create("/hot/f0"), (1, Some(2)), Some(true), 1), err];
        assert!(matches!(check_history(&recs), CheckOutcome::Ok { .. }));
    }

    #[test]
    fn retry_duplication_is_a_violation() {
        // Client 0's create took 2 attempts across a failover; its second
        // execution resurrects the file after client 1's delete. With the
        // replicated retry window that re-execution is a real bug.
        let recs = vec![
            rec(0, create("/hot/f0"), (0, Some(20)), Some(true), 2),
            rec(1, delete("/hot/f0"), (5, Some(6)), Some(true), 1),
            {
                let mut read = rec(1, getinfo("/hot/f0"), (8, Some(9)), Some(true), 1);
                read.result = Some(Ok(info_file("/hot/f0")));
                read
            },
        ];
        assert!(check_history(&recs).is_violation());
    }

    #[test]
    fn reconciled_delete_explores_both_worlds() {
        // Delete retried across a failover, answered `NotFound`,
        // reconciled to ok. World A: its first execution deleted the file.
        // World B: client 1's delete did. Either way the history checks.
        let mut d = rec(0, delete("/hot/f0"), (2, Some(30)), Some(true), 2);
        d.result = Some(Err(NsError::NotFound("/hot/f0".into())));
        let recs = vec![
            rec(0, create("/hot/f0"), (0, Some(1)), Some(true), 1),
            d,
            rec(1, delete("/hot/f0"), (3, Some(4)), Some(true), 1),
        ];
        assert!(matches!(check_history(&recs), CheckOutcome::Ok { .. }));
    }

    #[test]
    fn rename_links_paths_into_one_component() {
        let recs = vec![
            rec(0, create("/hot/f0"), (0, Some(1)), Some(true), 1),
            rec(
                0,
                FsOp::Rename { src: "/hot/f0".into(), dst: "/hot/g0".into() },
                (2, Some(3)),
                Some(true),
                1,
            ),
            {
                let mut read = rec(1, getinfo("/hot/g0"), (4, Some(5)), Some(true), 1);
                read.result = Some(Ok(info_file("/hot/g0")));
                read
            },
        ];
        assert!(matches!(check_history(&recs), CheckOutcome::Ok { .. }));
        // And the moved-away source must read absent, not present.
        let mut bad = rec(1, getinfo("/hot/f0"), (6, Some(7)), Some(true), 1);
        bad.result = Some(Ok(info_file("/hot/f0")));
        let mut recs2 = recs;
        recs2.push(bad);
        assert!(check_history(&recs2).is_violation());
    }

    #[test]
    fn unanswered_mutation_may_or_may_not_apply() {
        // A create that never came back: both a later "exists" error and a
        // later "missing" read must be explainable.
        let lost = rec(0, create("/hot/f0"), (0, None), None, 3);
        let exists = NsError::AlreadyExists("/hot/f0".into());
        let err = failed(1, create("/hot/f0"), (10, Some(11)), exists);
        let missing = NsError::NotFound("/hot/f0".into());
        let missing = failed(1, getinfo("/hot/f0"), (10, Some(11)), missing);
        assert!(matches!(check_history(&[lost.clone(), err]), CheckOutcome::Ok { .. }));
        assert!(matches!(check_history(&[lost, missing]), CheckOutcome::Ok { .. }));
    }

    #[test]
    fn acked_create_later_read_absent_is_a_violation() {
        // An acknowledged create vanished (say, in a failover): a later
        // read sees the file absent. An ack promises durability, so this
        // cannot linearize.
        let acked = rec(0, create("/hot/f0"), (0, Some(1)), Some(true), 1);
        let missing = NsError::NotFound("/hot/f0".into());
        let missing = failed(0, getinfo("/hot/f0"), (10, Some(11)), missing);
        assert!(check_history(&[acked, missing]).is_violation());
    }

    #[test]
    fn an_error_is_read_by_its_variant_not_its_text() {
        // A path may hold spaces, so `/hot/no such file` names a directory.
        // Refusing to delete it because it holds children proves nothing
        // in the flat model, whatever its text says.
        let dir = "/hot/no such file";
        let not_empty = NsError::NotEmpty(dir.into());
        assert_eq!(not_empty.to_string(), "/hot/no such file: directory not empty");
        let recs = vec![
            rec(0, FsOp::Mkdir { path: dir.into() }, (0, Some(1)), Some(true), 1),
            failed(0, delete(dir), (2, Some(3)), not_empty),
        ];
        assert!(matches!(check_history(&recs), CheckOutcome::Ok { .. }));
    }

    #[test]
    fn setup_records_are_ignored() {
        let mut s = rec(0, FsOp::Mkdir { path: "/hot".into() }, (0, Some(1)), Some(true), 1);
        s.is_setup = true;
        let mut s2 = s.clone();
        s2.client = 1;
        s2.invoked_us = 0;
        s2.completed_us = Some(2);
        assert!(matches!(check_history(&[s, s2]), CheckOutcome::Ok { .. }));
    }
}
