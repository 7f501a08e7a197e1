//! Delta images: journal-anchored incremental checkpoints.
//!
//! A delta image covers the journal range `(base_sn, end_sn]` as a minimal
//! **changed-path set**: folding the range keeps only the *final* state of
//! every path it touched (last-writer-wins), with tombstones for paths that
//! ended up removed. A delta is therefore far smaller than the raw journal
//! span it covers — a file appended a thousand times folds to one entry —
//! and applying it over any state within the covered range lands exactly on
//! the end state.
//!
//! **Apply-anywhere invariant.** A delta over `(N, M]` applied to the
//! namespace as of *any* sn `S ∈ [N, M]` yields the namespace as of `M`.
//! This holds because every path whose state differs between `S` and `M`
//! was necessarily touched by the range `(S, M] ⊆ (N, M]`, entries carry
//! whole final states (not edits), tombstones are idempotent
//! remove-if-present, and directories whose inode identity was severed
//! (delete or rename) ship as *replace* entries with their full final
//! subtree so stale children can never survive a merge. The renewing
//! junior's flat-MTTR fast path rests on this: a restarting replica at sn
//! `S ≥ N` skips the base image entirely and applies only the deltas whose
//! `end_sn > S`.
//!
//! Wire format (magic `MDLT`): the v2 image idiom — varint lengths, paths
//! prefix-compressed against the previous entry (entries are sorted, so
//! siblings share long prefixes), per-entry op tags, and the repo-wide
//! FNV-1a-64 trailer via [`HashingBuf`]. Deltas are small enough to buffer
//! whole before decoding, so unlike the base image there is no streaming
//! decoder; corruption anywhere fails [`decode_delta`] loudly.

use bytes::Bytes;
use mams_journal::hash::{fnv1a64, push_varint, HashingBuf};
use mams_journal::{Sn, Txn};

use crate::image::ImageError;
use crate::inode::{child, FileInfo, Inode, InodeSource, ROOT_ID};
use crate::path;
use crate::retry::RetryWindow;
use crate::shard::{InodesAt, ShardedNamespace};
use crate::tree::{NamespaceTree, NsError};

/// Delta image magic ("MDLT").
pub const DELTA_MAGIC: u32 = 0x4d44_4c54;
/// Delta wire format version.
pub const DELTA_VERSION: u16 = 1;

/// Fixed header: magic (4) + version (2) + base sn (8) + end sn (8).
const HEADER_LEN: usize = 22;
/// Trailing checksum length.
const TRAILER_LEN: usize = 8;

/// One folded change: the final state of a touched path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Merge-upsert a directory: create it if absent, otherwise keep its
    /// children and refresh the permission bits (a file in the way is
    /// replaced).
    UpsertDir { perm: u16 },
    /// Replace whatever is at the path with a fresh empty directory. Used
    /// when the inode identity was severed inside the folded range (delete
    /// or rename): merging would let children that only exist in the
    /// consumer's older state survive. The directory's final subtree rides
    /// along as ordinary upsert entries sorted after it.
    ReplaceDir { perm: u16 },
    /// Replace/create the file with exactly these attributes.
    UpsertFile { perm: u16, replication: u8, sealed: bool, blocks: Vec<u64> },
    /// Remove the path (recursively) if present.
    Tombstone,
}

/// A folded entry: path plus its final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    pub path: String,
    pub op: DeltaOp,
}

/// A serialized delta image covering the journal range `(base_sn, end_sn]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaImage {
    /// The sn this delta chains onto (exclusive).
    pub base_sn: Sn,
    /// The sn this delta advances the consumer to (inclusive).
    pub end_sn: Sn,
    /// Number of folded entries.
    pub entries: u64,
    /// Encoded bytes.
    pub data: Bytes,
}

impl DeltaImage {
    /// Size of the encoded delta in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

/// A decoded delta, ready to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedDelta {
    pub base_sn: Sn,
    pub end_sn: Sn,
    /// Entries in ascending path order (parents precede descendants).
    pub entries: Vec<DeltaEntry>,
    /// Retry-outcome window as of `end_sn` (empty for deltas written before
    /// the window extension). A junior restored from base + deltas adopts
    /// the window of the *last* delta it applies, so at-most-once survives
    /// the delta recovery ladder too.
    pub window: RetryWindow,
}

/// The namespace surface the fold and apply paths need, implemented by both
/// the flat [`NamespaceTree`] (parity tests) and the
/// [`ShardedNamespace`] a live replica runs (the renewing consumer).
pub trait DeltaNamespace {
    /// What the fold reads final states through: by-id access to the
    /// namespace as it stands, unchanged for as long as the view lives.
    type View<'a>: InodeSource
    where
        Self: 'a;
    fn view(&self) -> Self::View<'_>;
    /// Current state of a path (`None` when absent).
    fn info(&self, p: &str) -> Option<FileInfo>;
    /// Recursive remove.
    fn remove(&mut self, p: &str) -> Result<(), NsError>;
    fn make_dir(&mut self, p: &str) -> Result<(), NsError>;
    fn make_file(&mut self, p: &str, replication: u8) -> Result<(), NsError>;
    fn push_block(&mut self, p: &str, block: u64) -> Result<(), NsError>;
    fn seal_file(&mut self, p: &str) -> Result<(), NsError>;
    fn chmod(&mut self, p: &str, perm: u16) -> Result<(), NsError>;
}

impl DeltaNamespace for NamespaceTree {
    type View<'a> = &'a NamespaceTree;
    fn view(&self) -> &NamespaceTree {
        self
    }
    fn info(&self, p: &str) -> Option<FileInfo> {
        self.getfileinfo(p).ok()
    }
    fn remove(&mut self, p: &str) -> Result<(), NsError> {
        self.delete(p, true).map(|_| ())
    }
    fn make_dir(&mut self, p: &str) -> Result<(), NsError> {
        self.mkdir(p)
    }
    fn make_file(&mut self, p: &str, replication: u8) -> Result<(), NsError> {
        self.create(p, replication).map(|_| ())
    }
    fn push_block(&mut self, p: &str, block: u64) -> Result<(), NsError> {
        self.add_block(p, block)
    }
    fn seal_file(&mut self, p: &str) -> Result<(), NsError> {
        self.close_file(p)
    }
    fn chmod(&mut self, p: &str, perm: u16) -> Result<(), NsError> {
        self.set_perm(p, perm)
    }
}

impl DeltaNamespace for ShardedNamespace {
    type View<'a> = InodesAt<'a>;
    fn view(&self) -> InodesAt<'_> {
        self.inodes_at(None)
    }
    fn info(&self, p: &str) -> Option<FileInfo> {
        self.getfileinfo(p).ok()
    }
    fn remove(&mut self, p: &str) -> Result<(), NsError> {
        ShardedNamespace::delete(self, p, true).map(|_| ())
    }
    fn make_dir(&mut self, p: &str) -> Result<(), NsError> {
        ShardedNamespace::mkdir(self, p)
    }
    fn make_file(&mut self, p: &str, replication: u8) -> Result<(), NsError> {
        ShardedNamespace::create(self, p, replication).map(|_| ())
    }
    fn push_block(&mut self, p: &str, block: u64) -> Result<(), NsError> {
        ShardedNamespace::add_block(self, p, block)
    }
    fn seal_file(&mut self, p: &str) -> Result<(), NsError> {
        ShardedNamespace::close_file(self, p)
    }
    fn chmod(&mut self, p: &str, perm: u16) -> Result<(), NsError> {
        ShardedNamespace::set_perm(self, p, perm)
    }
}

// -------------------------------------------------------------------- fold

/// Fold a journal range into a delta image.
///
/// `src` must be the namespace **as of `end_sn`** (the producer folds off
/// its live tree right after applying the range), and `txns` the records of
/// `(base_sn, end_sn]` in order. Cost is proportional to the touched-path
/// set, not the namespace: only final states are looked up.
///
/// One deliberate coarseness: a directory that was renamed (or deleted and
/// recreated) ships its entire final subtree, because the consumer rebuilds
/// it from scratch. "Churn" for sizing purposes therefore counts the
/// subtrees moved by renames, not just the paths named in the journal.
pub fn fold_delta<'a, N: DeltaNamespace>(
    src: &N,
    base_sn: Sn,
    end_sn: Sn,
    txns: impl IntoIterator<Item = &'a Txn>,
) -> DeltaImage {
    fold_delta_with_window(src, base_sn, end_sn, txns, &RetryWindow::new())
}

/// [`fold_delta`] variant that embeds the producer's retry-outcome window as
/// of `end_sn`, so consumers on the delta ladder inherit at-most-once state
/// along with the namespace. The window rides after the entries as `'W'` +
/// varint length + blob, mirroring the base image's section; an empty
/// window writes nothing.
///
/// This is the only `MDLT` encoder. Paths stay borrowed from the journal
/// records (or from one arena for the subtrees a rename moved), final
/// states are read through the source's by-id view without building a
/// `FileInfo`, and every entry is written once, straight into the artifact.
pub fn fold_delta_with_window<'a, N: DeltaNamespace>(
    src: &N,
    base_sn: Sn,
    end_sn: Sn,
    txns: impl IntoIterator<Item = &'a Txn>,
    window: &RetryWindow,
) -> DeltaImage {
    // Every path the range names; `true` marks one whose inode identity the
    // range severed (delete or rename).
    let mut touched: Vec<(&str, bool)> = Vec::new();
    for txn in txns {
        match txn {
            Txn::Create { path, .. }
            | Txn::Mkdir { path }
            | Txn::AddBlock { path, .. }
            | Txn::CloseFile { path }
            | Txn::SetPerm { path, .. } => touched.push((path, false)),
            Txn::Delete { path, .. } => touched.push((path, true)),
            Txn::Rename { src: s, dst: d } => {
                touched.push((s, true));
                touched.push((d, true));
            }
        }
    }
    sort_dedup(&mut touched);

    let view = src.view();
    // Severed paths that ended up as directories ship their whole final
    // subtree: the consumer replaces them with a fresh directory, so every
    // surviving descendant must ride along.
    let mut subtrees = String::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
    for &(p, severed) in &touched {
        if let (true, Some(Inode::Directory { children, .. })) = (severed, resolve(&view, p)) {
            // One path buffer and one open child iterator per level.
            let mut cur = String::from(if p == "/" { "" } else { p });
            let mut open = vec![(children.iter(), cur.len())];
            while let Some((siblings, dir_len)) = open.last_mut() {
                let Some((name, &id)) = siblings.next() else {
                    open.pop();
                    continue;
                };
                cur.truncate(*dir_len);
                cur.push('/');
                cur.push_str(name.as_str());
                let start = subtrees.len();
                subtrees.push_str(&cur);
                spans.push(start..subtrees.len());
                if let Some(Inode::Directory { children, .. }) = view.inode(id) {
                    open.push((children.iter(), cur.len()));
                }
            }
        }
    }
    if !spans.is_empty() {
        touched.extend(spans.into_iter().map(|span| (&subtrees[span], false)));
        sort_dedup(&mut touched);
    }

    // Entries in ascending path order, each path prefix-compressed against
    // the one before. Sorted siblings come in runs, so the parent directory
    // resolved for one path serves the next until the parent changes.
    let mut body: Vec<u8> = Vec::with_capacity(touched.len() * 24);
    let mut entries = 0u64;
    let mut prev = "";
    let mut parent: Option<(&str, Option<&Inode>)> = None;
    for &(p, severed) in &touched {
        let node = if path::validate(p).is_err() {
            None // a damaged record's path names nothing
        } else if let Some((dir, name)) = path::split(p) {
            let (_, dir_node) = match parent {
                Some(cached) if cached.0 == dir => cached,
                _ => *parent.insert((dir, resolve(&view, dir))),
            };
            match dir_node {
                Some(Inode::Directory { children, .. }) => {
                    child(children, name).and_then(|id| view.inode(id))
                }
                _ => None,
            }
        } else {
            view.inode(ROOT_ID)
        };
        let tag = match node {
            // The root is never removed, whatever a damaged record says.
            None if p == "/" => continue,
            None => b'T',
            Some(Inode::Directory { .. }) if severed && p != "/" => b'R',
            Some(Inode::Directory { .. }) => b'D',
            Some(Inode::File { .. }) => b'F',
        };
        body.push(tag);
        let shared = common_prefix(prev.as_bytes(), p.as_bytes());
        push_varint(&mut body, shared as u64);
        push_varint(&mut body, (p.len() - shared) as u64);
        body.extend_from_slice(&p.as_bytes()[shared..]);
        if let Some(node) = node {
            body.extend_from_slice(&node.perm().to_be_bytes());
            if let Inode::File { blocks, replication, sealed, .. } = node {
                body.extend_from_slice(&[*replication, *sealed as u8]);
                push_varint(&mut body, blocks.len() as u64);
                for b in blocks {
                    push_varint(&mut body, *b);
                }
            }
        }
        prev = p;
        entries += 1;
    }
    drop(view);

    let window_bytes = if window.is_empty() { Vec::new() } else { window.encode_bytes() };
    let mut out =
        HashingBuf::with_capacity(HEADER_LEN + body.len() + window_bytes.len() + 32 + TRAILER_LEN);
    out.put_u32(DELTA_MAGIC);
    out.put_u16(DELTA_VERSION);
    out.put_u64(base_sn);
    out.put_u64(end_sn);
    out.put_varint(entries);
    out.put_slice(&body);
    if !window_bytes.is_empty() {
        out.put_u8(b'W');
        out.put_varint(window_bytes.len() as u64);
        out.put_slice(&window_bytes);
    }
    DeltaImage { base_sn, end_sn, entries, data: out.seal() }
}

/// Sort by path and keep one element per path, marked severed if any of its
/// duplicates was (equal paths sort with the mark last).
fn sort_dedup(paths: &mut Vec<(&str, bool)>) {
    paths.sort_unstable();
    paths.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        kept.1 |= same && later.1;
        same
    });
}

/// The inode at `p` in `view`, walking from the root (`None` when absent,
/// below a file, or not a valid path).
fn resolve<'v, V: InodeSource>(view: &'v V, p: &str) -> Option<&'v Inode> {
    path::validate(p).ok()?;
    let mut cur = view.inode(ROOT_ID)?;
    for comp in path::components(p) {
        match cur {
            Inode::Directory { children, .. } => cur = view.inode(child(children, comp)?)?,
            Inode::File { .. } => return None,
        }
    }
    Some(cur)
}

// ------------------------------------------------------------------ decode

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        if self.buf.len() - self.at < n {
            return Err(ImageError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn varint(&mut self) -> Result<u64, ImageError> {
        match mams_journal::hash::peek_varint(&self.buf[self.at..]) {
            mams_journal::hash::Varint::Val(v, n) => {
                self.at += n;
                Ok(v)
            }
            mams_journal::hash::Varint::Need => Err(ImageError::Truncated),
            mams_journal::hash::Varint::Bad => Err(ImageError::Corrupt("bad varint".to_string())),
        }
    }
}

/// Decode a delta image, verifying the checksum first. Corruption anywhere
/// in the artifact fails the whole decode: the consumer falls back down the
/// recovery ladder instead of applying a half-trusted delta.
pub fn decode_delta(data: &[u8]) -> Result<DecodedDelta, ImageError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ImageError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - TRAILER_LEN);
    let want = u64::from_be_bytes(trailer.try_into().expect("trailer len"));
    if fnv1a64(body) != want {
        return Err(ImageError::BadChecksum);
    }
    let mut r = Reader { buf: body, at: 0 };
    let magic = r.u32()?;
    if magic != DELTA_MAGIC {
        return Err(ImageError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != DELTA_VERSION {
        return Err(ImageError::BadVersion(version));
    }
    let base_sn = r.u64()?;
    let end_sn = r.u64()?;
    if end_sn <= base_sn {
        return Err(ImageError::Corrupt(format!("empty range ({base_sn}, {end_sn}]")));
    }
    let count = r.varint()?;
    // An entry is at least a tag and two varints: a count the bytes left
    // cannot hold is damage, and must not size an allocation.
    if count > ((body.len() - r.at) / 3) as u64 {
        return Err(ImageError::Truncated);
    }
    let mut entries = Vec::with_capacity(count as usize);
    let mut prev = String::new();
    for _ in 0..count {
        let tag = r.u8()?;
        let shared = r.varint()? as usize;
        let suffix_len = r.varint()? as usize;
        if shared > prev.len() || !prev.is_char_boundary(shared) {
            return Err(ImageError::Corrupt(format!(
                "prefix {shared} does not fit the previous {}-byte path",
                prev.len()
            )));
        }
        let suffix = std::str::from_utf8(r.take(suffix_len)?)
            .map_err(|_| ImageError::Corrupt("non-utf8 path".to_string()))?;
        let mut path = String::with_capacity(shared + suffix_len);
        path.push_str(&prev[..shared]);
        path.push_str(suffix);
        let op = match tag {
            b'D' => DeltaOp::UpsertDir { perm: r.u16()? },
            b'R' => DeltaOp::ReplaceDir { perm: r.u16()? },
            b'F' => {
                let perm = r.u16()?;
                let replication = r.u8()?;
                let sealed = r.u8()? != 0;
                let nblocks = r.varint()?;
                let mut blocks = Vec::with_capacity(nblocks.min(1 << 16) as usize);
                for _ in 0..nblocks {
                    blocks.push(r.varint()?);
                }
                DeltaOp::UpsertFile { perm, replication, sealed, blocks }
            }
            b'T' => DeltaOp::Tombstone,
            other => return Err(ImageError::Corrupt(format!("bad entry tag {other:#x}"))),
        };
        prev.clone_from(&path);
        entries.push(DeltaEntry { path, op });
    }
    let mut window = RetryWindow::new();
    if r.at != body.len() {
        // Optional retry-window section: 'W' + varint length + blob.
        let tag = r.u8()?;
        if tag != b'W' {
            return Err(ImageError::Corrupt(format!("bad section tag {tag:#x}")));
        }
        let wlen = r.varint()? as usize;
        window = RetryWindow::decode_bytes(r.take(wlen)?)?;
        if window.is_empty() {
            return Err(ImageError::Corrupt("empty retry-window section".to_string()));
        }
    }
    if r.at != body.len() {
        return Err(ImageError::Corrupt("trailing garbage after entries".to_string()));
    }
    Ok(DecodedDelta { base_sn, end_sn, entries, window })
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    // Cap at b.len() - 1 so every entry emits at least one suffix byte and
    // the shared-length bound check stays meaningful on decode.
    let max = a.len().min(b.len().saturating_sub(1));
    while n < max && a[n] == b[n] {
        n += 1;
    }
    // Never split a UTF-8 code point (paths are almost always ASCII, but
    // component names are arbitrary UTF-8).
    while n > 0 && b[n] & 0xC0 == 0x80 {
        n -= 1;
    }
    n
}

// ------------------------------------------------------------------- apply

/// Apply a decoded delta. Entries are visited in their (ascending-path)
/// order, so parents materialize before their descendants. Errors indicate
/// a delta applied against a state outside its covered range — the caller
/// treats that exactly like corruption and falls back.
pub fn apply_delta<N: DeltaNamespace>(ns: &mut N, delta: &DecodedDelta) -> Result<(), NsError> {
    for e in &delta.entries {
        let p = e.path.as_str();
        match &e.op {
            DeltaOp::Tombstone => remove_if_present(ns, p)?,
            DeltaOp::ReplaceDir { perm } => {
                remove_if_present(ns, p)?;
                ns.make_dir(p)?;
                ns.chmod(p, *perm)?;
            }
            DeltaOp::UpsertDir { perm } => {
                match ns.info(p) {
                    Some(i) if i.is_dir => {}
                    Some(_) => {
                        remove_if_present(ns, p)?;
                        ns.make_dir(p)?;
                    }
                    None => ns.make_dir(p)?,
                }
                ns.chmod(p, *perm)?;
            }
            DeltaOp::UpsertFile { perm, replication, sealed, blocks } => {
                remove_if_present(ns, p)?;
                ns.make_file(p, *replication)?;
                for b in blocks {
                    ns.push_block(p, *b)?;
                }
                if *sealed {
                    ns.seal_file(p)?;
                }
                ns.chmod(p, *perm)?;
            }
        }
    }
    Ok(())
}

fn remove_if_present<N: DeltaNamespace>(ns: &mut N, p: &str) -> Result<(), NsError> {
    match ns.remove(p) {
        Ok(()) | Err(NsError::NotFound(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_tree() -> NamespaceTree {
        let mut t = NamespaceTree::new();
        t.mkdir_p("/data/logs").unwrap();
        t.mkdir_p("/tmp").unwrap();
        for i in 0..8 {
            let p = format!("/data/logs/f{i}");
            t.create(&p, 3).unwrap();
            t.add_block(&p, 100 + i).unwrap();
        }
        t
    }

    /// Run `txns` on a clone of `base`, fold them, apply the delta over the
    /// original base, and require the results to agree.
    fn fold_and_check(base: &NamespaceTree, txns: &[Txn]) -> DeltaImage {
        let mut end = base.clone();
        for txn in txns {
            let _ = end.apply(txn);
        }
        let delta = fold_delta(&end, 10, 20, txns.iter());
        let decoded = decode_delta(&delta.data).unwrap();
        assert_eq!((decoded.base_sn, decoded.end_sn), (10, 20));
        let mut applied = base.clone();
        apply_delta(&mut applied, &decoded).unwrap();
        assert_eq!(applied.fingerprint(), end.fingerprint(), "tree apply parity");
        // Sharded consumer path.
        let mut sharded = ShardedNamespace::from_tree(base.clone());
        apply_delta(&mut sharded, &decoded).unwrap();
        assert_eq!(sharded.fingerprint(), end.fingerprint(), "sharded apply parity");
        delta
    }

    #[test]
    fn last_writer_wins_folds_to_one_entry() {
        let base = base_tree();
        let txns: Vec<Txn> = (0..50)
            .map(|i| Txn::AddBlock { path: "/data/logs/f0".to_string(), block_id: 500 + i, len: 1 })
            .collect();
        let delta = fold_and_check(&base, &txns);
        assert_eq!(delta.entries, 1, "50 appends to one file fold to one entry");
    }

    #[test]
    fn deletes_fold_to_tombstones() {
        let base = base_tree();
        let txns = vec![
            Txn::Delete { path: "/data/logs/f1".to_string(), recursive: false },
            Txn::Create { path: "/data/logs/g".to_string(), replication: 1 },
            Txn::Delete { path: "/tmp".to_string(), recursive: true },
        ];
        let delta = fold_and_check(&base, &txns);
        let d = decode_delta(&delta.data).unwrap();
        let tombs: Vec<_> = d
            .entries
            .iter()
            .filter(|e| e.op == DeltaOp::Tombstone)
            .map(|e| e.path.as_str())
            .collect();
        assert_eq!(tombs, vec!["/data/logs/f1", "/tmp"]);
    }

    #[test]
    fn create_then_delete_folds_to_single_tombstone() {
        let base = base_tree();
        let txns = vec![
            Txn::Create { path: "/x".to_string(), replication: 1 },
            Txn::AddBlock { path: "/x".to_string(), block_id: 1, len: 1 },
            Txn::Delete { path: "/x".to_string(), recursive: false },
        ];
        let delta = fold_and_check(&base, &txns);
        let d = decode_delta(&delta.data).unwrap();
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].op, DeltaOp::Tombstone);
    }

    #[test]
    fn renamed_directory_ships_its_subtree() {
        let base = base_tree();
        let txns = vec![Txn::Rename { src: "/data".to_string(), dst: "/moved".to_string() }];
        let delta = fold_and_check(&base, &txns);
        let d = decode_delta(&delta.data).unwrap();
        // Tombstone for /data, replace for /moved, plus /moved/logs and the
        // eight files under it.
        assert!(d.entries.iter().any(|e| e.path == "/data" && e.op == DeltaOp::Tombstone));
        assert!(d
            .entries
            .iter()
            .any(|e| e.path == "/moved" && matches!(e.op, DeltaOp::ReplaceDir { .. })));
        assert_eq!(d.entries.iter().filter(|e| e.path.starts_with("/moved/")).count(), 9);
    }

    #[test]
    fn delete_and_recreate_replaces_instead_of_merging() {
        let base = base_tree();
        // /data/logs holds f0..f7 at base; nuke it and recreate with one
        // file. A merge-upsert would resurrect the old files.
        let txns = vec![
            Txn::Delete { path: "/data/logs".to_string(), recursive: true },
            Txn::Mkdir { path: "/data/logs".to_string() },
            Txn::Create { path: "/data/logs/only".to_string(), replication: 1 },
        ];
        fold_and_check(&base, &txns);
    }

    #[test]
    fn root_perm_change_folds_to_root_upsert() {
        let base = base_tree();
        let txns = vec![Txn::SetPerm { path: "/".to_string(), perm: 0o700 }];
        let delta = fold_and_check(&base, &txns);
        let d = decode_delta(&delta.data).unwrap();
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].path, "/");
        assert_eq!(d.entries[0].op, DeltaOp::UpsertDir { perm: 0o700 });
    }

    #[test]
    fn applies_from_any_intermediate_state() {
        // The flat-MTTR invariant: a delta over (N, M] applied at any
        // S ∈ [N, M] lands on the state at M.
        let base = base_tree();
        let txns = vec![
            Txn::Create { path: "/a".to_string(), replication: 1 },
            Txn::Delete { path: "/data/logs/f3".to_string(), recursive: false },
            Txn::Rename { src: "/data/logs".to_string(), dst: "/archive".to_string() },
            Txn::Mkdir { path: "/data/logs".to_string() },
            Txn::Create { path: "/data/logs/new".to_string(), replication: 2 },
            Txn::SetPerm { path: "/a".to_string(), perm: 0o600 },
            Txn::CloseFile { path: "/archive/f5".to_string() },
        ];
        let mut end = base.clone();
        for txn in &txns {
            end.apply(txn).unwrap();
        }
        let delta = fold_delta(&end, 0, txns.len() as u64, txns.iter());
        let decoded = decode_delta(&delta.data).unwrap();
        // Apply over every prefix state S = 0..=len.
        for cut in 0..=txns.len() {
            let mut state = base.clone();
            for txn in &txns[..cut] {
                state.apply(txn).unwrap();
            }
            apply_delta(&mut state, &decoded).unwrap();
            assert_eq!(state.fingerprint(), end.fingerprint(), "applied at S={cut}");
        }
    }

    #[test]
    fn corruption_detected_at_every_byte() {
        let base = base_tree();
        let txns = vec![
            Txn::Create { path: "/q".to_string(), replication: 1 },
            Txn::Delete { path: "/tmp".to_string(), recursive: true },
        ];
        let mut end = base.clone();
        for txn in &txns {
            end.apply(txn).unwrap();
        }
        let delta = fold_delta(&end, 1, 3, txns.iter());
        assert!(decode_delta(&delta.data).is_ok());
        for i in 0..delta.data.len() {
            let mut bad = delta.data.to_vec();
            bad[i] ^= 0x55;
            assert!(decode_delta(&bad).is_err(), "flip at byte {i} must not decode");
        }
        for cut in 0..delta.data.len() {
            assert!(decode_delta(&delta.data[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn window_section_round_trips_and_empty_is_elided() {
        use crate::retry::{RetryEntry, RetryOutcome};
        let base = base_tree();
        let txns = vec![Txn::Create { path: "/w".to_string(), replication: 1 }];
        let mut end = base.clone();
        for txn in &txns {
            end.apply(txn).unwrap();
        }
        let mut win = RetryWindow::new();
        win.record(3, 41, RetryEntry { outcome: RetryOutcome::Done, token: None });
        win.record(9, 2, RetryEntry { outcome: RetryOutcome::Block(777), token: Some(12) });
        let with = fold_delta_with_window(&end, 1, 2, txns.iter(), &win);
        let d = decode_delta(&with.data).unwrap();
        assert_eq!(d.window, win);
        // Applying still lands on the end state; the window rides alongside.
        let mut applied = base.clone();
        apply_delta(&mut applied, &d).unwrap();
        assert_eq!(applied.fingerprint(), end.fingerprint());
        // An empty window writes no section at all.
        let plain = fold_delta(&end, 1, 2, txns.iter());
        let explicit = fold_delta_with_window(&end, 1, 2, txns.iter(), &RetryWindow::new());
        assert_eq!(plain.data, explicit.data);
        assert!(decode_delta(&plain.data).unwrap().window.is_empty());
    }

    #[test]
    fn windowed_delta_corruption_detected_at_every_byte() {
        use crate::retry::{RetryEntry, RetryOutcome};
        let base = base_tree();
        let txns = vec![Txn::Delete { path: "/tmp".to_string(), recursive: true }];
        let mut end = base.clone();
        for txn in &txns {
            end.apply(txn).unwrap();
        }
        let mut win = RetryWindow::new();
        win.record(1, 1, RetryEntry { outcome: RetryOutcome::Done, token: None });
        let delta = fold_delta_with_window(&end, 1, 2, txns.iter(), &win);
        assert!(decode_delta(&delta.data).is_ok());
        for i in 0..delta.data.len() {
            let mut bad = delta.data.to_vec();
            bad[i] ^= 0x55;
            assert!(decode_delta(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn empty_range_rejected() {
        let delta = fold_delta(&NamespaceTree::new(), 5, 5, []);
        assert!(matches!(decode_delta(&delta.data), Err(ImageError::Corrupt(_))));
    }

    #[test]
    fn delta_is_smaller_than_full_image_for_small_churn() {
        let mut base = NamespaceTree::new();
        base.mkdir_p("/big/dir").unwrap();
        for i in 0..2000 {
            base.create(&format!("/big/dir/f{i}"), 3).unwrap();
        }
        let txns = vec![Txn::Create { path: "/big/dir/new".to_string(), replication: 3 }];
        let mut end = base.clone();
        for txn in &txns {
            end.apply(txn).unwrap();
        }
        let delta = fold_delta(&end, 1, 2, txns.iter());
        let full = crate::image::encode_image(&end, 2);
        assert!(
            delta.size_bytes() * 20 < full.size_bytes(),
            "delta {} B vs full image {} B",
            delta.size_bytes(),
            full.size_bytes()
        );
    }
}
