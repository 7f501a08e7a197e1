//! The namespace tree and its metadata operations.
//!
//! This is the plain reference namespace: every path resolves by a walk
//! from the root, and [`NamespaceTree::apply`] is the per-record replay the
//! sharded namespace's own `apply` is checked against. No node
//! holds one — every system's namespace is a slot table, and images decode
//! into it — so it lives on as the oracle: the parity suites run it beside
//! the table, encode its image (it is an [`InodeSource`]) and cross into
//! it with `to_tree`/`from_tree`. It carries no resolution cache of its own
//! — the oracle a cache is compared with should not have one.
#![expect(clippy::disallowed_types, reason = "the oracle keeps its inodes in a hash map")]

use std::collections::HashMap;

use mams_journal::{Fnv1a64, Txn};

use crate::error::NsError;
use crate::inode::{child, FileInfo, Inode, InodeId, InodeSource, Name, ROOT_ID};
use crate::path;

/// An in-memory namespace: the state a metadata server manages for its
/// partition.
#[derive(Debug, Clone)]
pub struct NamespaceTree {
    pub(crate) inodes: HashMap<InodeId, Inode>,
    pub(crate) next_id: InodeId,
    num_files: u64,
    num_dirs: u64,
}

impl Default for NamespaceTree {
    fn default() -> Self {
        Self::new()
    }
}

impl NamespaceTree {
    /// A namespace containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(ROOT_ID, Inode::new_dir());
        NamespaceTree { inodes, next_id: 1, num_files: 0, num_dirs: 0 }
    }

    /// Number of files.
    pub fn num_files(&self) -> u64 {
        self.num_files
    }

    /// Number of directories, excluding the root.
    pub fn num_dirs(&self) -> u64 {
        self.num_dirs
    }

    /// Assemble a tree from raw parts (the sharded namespace's conversion
    /// path). The caller guarantees `inodes` is a well-formed tree rooted at
    /// `ROOT_ID`, `next_id` is above every id in it, and the counts match.
    pub(crate) fn from_parts(
        inodes: HashMap<InodeId, Inode>,
        next_id: InodeId,
        num_files: u64,
        num_dirs: u64,
    ) -> Self {
        debug_assert!(inodes.contains_key(&ROOT_ID));
        NamespaceTree { inodes, next_id, num_files, num_dirs }
    }

    fn alloc(&mut self, inode: Inode) -> InodeId {
        let id = self.next_id;
        self.next_id += 1;
        self.inodes.insert(id, inode);
        id
    }

    /// Resolve a validated path to an inode id by walking from the root.
    fn resolve(&self, p: &str) -> Option<InodeId> {
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            match self.inodes.get(&cur)? {
                Inode::Directory { children, .. } => cur = child(children, comp)?,
                Inode::File { .. } => return None,
            }
        }
        Some(cur)
    }

    /// Resolve a path to its inode id (test/bench hook).
    pub fn resolve_path(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.resolve(p)
    }

    /// Whether a path exists.
    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.resolve(p).is_some()
    }

    /// Resolve the parent directory of `p`, classifying failures.
    fn resolve_parent(&self, p: &str) -> Result<InodeId, NsError> {
        let parent = path::parent(p).ok_or(NsError::RootImmutable)?;
        match self.resolve(parent) {
            Some(id) if self.inodes[&id].is_dir() => Ok(id),
            Some(_) => Err(NsError::ParentNotDirectory(p.to_string())),
            None => {
                // Distinguish "parent missing" from "an ancestor is a file".
                if self.parent_chain_has_file(parent) {
                    Err(NsError::ParentNotDirectory(p.to_string()))
                } else {
                    Err(NsError::ParentNotFound(p.to_string()))
                }
            }
        }
    }

    fn parent_chain_has_file(&self, p: &str) -> bool {
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            match &self.inodes[&cur] {
                Inode::Directory { children, .. } => match child(children, comp) {
                    Some(id) => cur = id,
                    None => return false,
                },
                Inode::File { .. } => return true,
            }
        }
        self.inodes[&cur].is_file()
    }

    /// `create`: make an empty file.
    pub fn create(&mut self, p: &str, replication: u8) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let parent_id = self.resolve_parent(p)?;
        let name = path::basename(p).expect("non-root validated path");
        if let Inode::Directory { children, .. } = &self.inodes[&parent_id] {
            if child(children, name).is_some() {
                return Err(NsError::AlreadyExists(p.to_string()));
            }
        }
        let id = self.alloc(Inode::new_file(replication));
        match self.inodes.get_mut(&parent_id).expect("parent exists") {
            Inode::Directory { children, .. } => {
                children.insert(Name::from(name), id);
            }
            Inode::File { .. } => unreachable!("resolve_parent checked kind"),
        }
        self.num_files += 1;
        self.info_of(p, id)
    }

    /// `mkdir`: make a directory (parent must exist).
    pub fn mkdir(&mut self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        let parent_id = self.resolve_parent(p)?;
        let name = path::basename(p).expect("non-root validated path");
        if let Inode::Directory { children, .. } = &self.inodes[&parent_id] {
            if child(children, name).is_some() {
                return Err(NsError::AlreadyExists(p.to_string()));
            }
        }
        let id = self.alloc(Inode::new_dir());
        match self.inodes.get_mut(&parent_id).expect("parent exists") {
            Inode::Directory { children, .. } => {
                children.insert(Name::from(name), id);
            }
            Inode::File { .. } => unreachable!("resolve_parent checked kind"),
        }
        self.num_dirs += 1;
        Ok(())
    }

    /// `mkdir -p`: create all missing ancestors. Ok if the directory exists.
    pub fn mkdir_p(&mut self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        if p == "/" {
            return Ok(());
        }
        // Ancestors are borrowed prefix slices of `p` — no per-level String.
        for prefix in path::prefixes(p) {
            match self.mkdir(prefix) {
                Ok(()) => {}
                Err(NsError::AlreadyExists(_)) => {
                    if let Some(id) = self.resolve(prefix) {
                        if self.inodes[&id].is_file() {
                            return Err(NsError::IsFile(prefix.to_string()));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `delete`: remove a file, or a directory (recursively when asked).
    /// Returns `(files_removed, dirs_removed)`.
    pub fn delete(&mut self, p: &str, recursive: bool) -> Result<(u64, u64), NsError> {
        path::validate(p)?;
        if p == "/" {
            return Err(NsError::RootImmutable);
        }
        let id = self.resolve(p).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        if let Inode::Directory { children, .. } = &self.inodes[&id] {
            if !children.is_empty() && !recursive {
                return Err(NsError::NotEmpty(p.to_string()));
            }
        }
        let parent_id = self.resolve_parent(p)?;
        let name = path::basename(p).expect("non-root validated path");
        match self.inodes.get_mut(&parent_id).expect("parent exists") {
            Inode::Directory { children, .. } => {
                children.remove(name.as_bytes());
            }
            Inode::File { .. } => unreachable!("resolve_parent checked kind"),
        }
        let (files, dirs) = self.drop_subtree(id);
        self.num_files -= files;
        self.num_dirs -= dirs;
        Ok((files, dirs))
    }

    fn drop_subtree(&mut self, id: InodeId) -> (u64, u64) {
        let mut files = 0;
        let mut dirs = 0;
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            match self.inodes.remove(&cur).expect("subtree inode present") {
                Inode::File { .. } => files += 1,
                Inode::Directory { children, .. } => {
                    dirs += 1;
                    stack.extend(children.values().copied());
                }
            }
        }
        (files, dirs)
    }

    /// `rename`: move `src` to `dst` (which must not exist).
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), NsError> {
        path::validate(src)?;
        path::validate(dst)?;
        if src == "/" || dst == "/" {
            return Err(NsError::RootImmutable);
        }
        if src == dst {
            return Err(NsError::AlreadyExists(dst.to_string()));
        }
        if path::is_strict_descendant(dst, src) {
            return Err(NsError::RenameIntoSelf { src: src.to_string(), dst: dst.to_string() });
        }
        let src_id = self.resolve(src).ok_or_else(|| NsError::NotFound(src.to_string()))?;
        if self.resolve(dst).is_some() {
            return Err(NsError::AlreadyExists(dst.to_string()));
        }
        let dst_parent = self.resolve_parent(dst)?;
        let src_parent = self.resolve_parent(src)?;
        let src_name = path::basename(src).expect("non-root");
        let dst_name = path::basename(dst).expect("non-root");
        match self.inodes.get_mut(&src_parent).expect("src parent") {
            Inode::Directory { children, .. } => {
                children.remove(src_name.as_bytes());
            }
            Inode::File { .. } => unreachable!(),
        }
        match self.inodes.get_mut(&dst_parent).expect("dst parent") {
            Inode::Directory { children, .. } => {
                children.insert(Name::from(dst_name), src_id);
            }
            Inode::File { .. } => unreachable!(),
        }
        Ok(())
    }

    /// `getfileinfo`: read-only metadata lookup.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let id = self.resolve(p).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.info_of(p, id)
    }

    fn info_of(&self, p: &str, id: InodeId) -> Result<FileInfo, NsError> {
        Ok(match &self.inodes[&id] {
            Inode::Directory { children, perm } => FileInfo {
                path: p.to_string(),
                is_dir: true,
                blocks: Vec::new(),
                replication: 0,
                sealed: false,
                perm: *perm,
                child_count: children.len(),
            },
            Inode::File { blocks, replication, sealed, perm } => FileInfo {
                path: p.to_string(),
                is_dir: false,
                blocks: blocks.clone(),
                replication: *replication,
                sealed: *sealed,
                perm: *perm,
                child_count: 0,
            },
        })
    }

    /// List child names of a directory (sorted).
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        path::validate(p)?;
        let id = self.resolve(p).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        match &self.inodes[&id] {
            Inode::Directory { children, .. } => {
                Ok(children.keys().map(|k| k.to_string()).collect())
            }
            Inode::File { .. } => Err(NsError::IsFile(p.to_string())),
        }
    }

    /// Append a block to an unsealed file.
    pub fn add_block(&mut self, p: &str, block_id: u64) -> Result<(), NsError> {
        path::validate(p)?;
        let id = self.resolve(p).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        match self.inodes.get_mut(&id).expect("resolved") {
            Inode::File { blocks, sealed, .. } => {
                if *sealed {
                    return Err(NsError::FileSealed(p.to_string()));
                }
                blocks.push(block_id);
                Ok(())
            }
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        }
    }

    /// Seal a file. Idempotent.
    pub fn close_file(&mut self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        let id = self.resolve(p).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        match self.inodes.get_mut(&id).expect("resolved") {
            Inode::File { sealed, .. } => {
                *sealed = true;
                Ok(())
            }
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        }
    }

    /// Change permission bits.
    pub fn set_perm(&mut self, p: &str, perm: u16) -> Result<(), NsError> {
        path::validate(p)?;
        let id = self.resolve(p).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.inodes.get_mut(&id).expect("resolved").set_perm(perm);
        Ok(())
    }

    /// Apply a journalled transaction. Journaled transactions were validated
    /// by the active before logging, so failures indicate replica
    /// divergence; they are counted rather than silently swallowed.
    pub fn apply(&mut self, txn: &Txn) -> Result<(), NsError> {
        match txn {
            Txn::Create { path, replication } => self.create(path, *replication).map(|_| ()),
            Txn::Mkdir { path } => self.mkdir(path),
            Txn::Delete { path, recursive } => self.delete(path, *recursive).map(|_| ()),
            Txn::Rename { src, dst } => self.rename(src, dst),
            Txn::AddBlock { path, block_id, .. } => self.add_block(path, *block_id),
            Txn::CloseFile { path } => self.close_file(path),
            Txn::SetPerm { path, perm } => self.set_perm(path, *perm),
        }
    }

    /// Deterministic structural fingerprint of the whole tree (used by tests
    /// and the renewing protocol's final verification).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a64::new();
        // DFS in sorted-child order, hashing path-shape and attributes.
        let mut stack: Vec<(InodeId, u32)> = vec![(ROOT_ID, 0)];
        while let Some((id, depth)) = stack.pop() {
            h.write(&depth.to_le_bytes());
            match &self.inodes[&id] {
                Inode::Directory { children, perm } => {
                    h.write(b"D");
                    h.write(&perm.to_le_bytes());
                    for (name, child) in children.iter().rev() {
                        h.write(name.as_bytes());
                        stack.push((*child, depth + 1));
                    }
                }
                Inode::File { blocks, replication, sealed, perm } => {
                    h.write(&[b'F', *replication, *sealed as u8]);
                    h.write(&perm.to_le_bytes());
                    for b in blocks {
                        h.write(&b.to_le_bytes());
                    }
                }
            }
        }
        h.digest()
    }
}

impl InodeSource for NamespaceTree {
    fn inode(&self, id: InodeId) -> Option<&Inode> {
        self.inodes.get(&id)
    }
    fn counts(&self) -> (u64, u64) {
        (self.num_files, self.num_dirs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(paths: &[&str]) -> NamespaceTree {
        let mut t = NamespaceTree::new();
        for p in paths {
            if let Some(dir) = p.strip_suffix('/') {
                t.mkdir_p(dir).unwrap();
            } else {
                t.mkdir_p(path::parent(p).unwrap()).unwrap();
                t.create(p, 3).unwrap();
            }
        }
        t
    }

    #[test]
    fn create_and_getfileinfo() {
        let mut t = NamespaceTree::new();
        t.mkdir("/a").unwrap();
        let info = t.create("/a/f", 3).unwrap();
        assert!(!info.is_dir);
        assert_eq!(info.replication, 3);
        assert_eq!(t.getfileinfo("/a/f").unwrap(), info);
        assert_eq!(t.num_files(), 1);
        assert_eq!(t.num_dirs(), 1);
    }

    #[test]
    fn create_requires_parent_dir() {
        let mut t = NamespaceTree::new();
        assert_eq!(t.create("/no/f", 1).unwrap_err(), NsError::ParentNotFound("/no/f".into()));
        t.create("/f", 1).unwrap();
        assert_eq!(t.create("/f/x", 1).unwrap_err(), NsError::ParentNotDirectory("/f/x".into()));
        assert_eq!(t.create("/f", 1).unwrap_err(), NsError::AlreadyExists("/f".into()));
    }

    #[test]
    fn mkdir_p_is_idempotent_but_respects_files() {
        let mut t = NamespaceTree::new();
        t.mkdir_p("/a/b/c").unwrap();
        t.mkdir_p("/a/b/c").unwrap();
        assert_eq!(t.num_dirs(), 3);
        t.create("/a/b/c/f", 1).unwrap();
        assert_eq!(t.mkdir_p("/a/b/c/f").unwrap_err(), NsError::IsFile("/a/b/c/f".into()));
    }

    #[test]
    fn delete_file_and_empty_dir() {
        let mut t = tree_with(&["/d/", "/d/f"]);
        assert_eq!(t.delete("/d/f", false).unwrap(), (1, 0));
        assert_eq!(t.delete("/d", false).unwrap(), (0, 1));
        assert_eq!(t.num_files(), 0);
        assert_eq!(t.num_dirs(), 0);
        assert!(!t.exists("/d"));
    }

    #[test]
    fn delete_nonempty_requires_recursive() {
        let mut t = tree_with(&["/d/sub/", "/d/f1", "/d/sub/f2"]);
        assert_eq!(t.delete("/d", false).unwrap_err(), NsError::NotEmpty("/d".into()));
        assert_eq!(t.delete("/d", true).unwrap(), (2, 2));
        assert_eq!(t.num_files(), 0);
        assert_eq!(t.num_dirs(), 0);
    }

    #[test]
    fn delete_root_forbidden() {
        let mut t = NamespaceTree::new();
        assert_eq!(t.delete("/", true).unwrap_err(), NsError::RootImmutable);
    }

    #[test]
    fn rename_moves_subtree() {
        let mut t = tree_with(&["/a/b/", "/a/b/f", "/c/"]);
        t.rename("/a/b", "/c/b2").unwrap();
        assert!(t.exists("/c/b2/f"));
        assert!(!t.exists("/a/b"));
        assert_eq!(t.num_files(), 1);
        assert_eq!(t.num_dirs(), 3);
    }

    #[test]
    fn rename_rejects_bad_targets() {
        let mut t = tree_with(&["/a/b/", "/x"]);
        assert_eq!(
            t.rename("/a", "/a/b/evil").unwrap_err(),
            NsError::RenameIntoSelf { src: "/a".into(), dst: "/a/b/evil".into() }
        );
        assert_eq!(t.rename("/a", "/x").unwrap_err(), NsError::AlreadyExists("/x".into()));
        assert_eq!(t.rename("/missing", "/y").unwrap_err(), NsError::NotFound("/missing".into()));
        assert_eq!(
            t.rename("/a", "/no/where").unwrap_err(),
            NsError::ParentNotFound("/no/where".into())
        );
        assert_eq!(t.rename("/", "/r").unwrap_err(), NsError::RootImmutable);
    }

    #[test]
    fn list_sorted() {
        let t = tree_with(&["/d/", "/d/z", "/d/a", "/d/m"]);
        assert_eq!(t.list("/d").unwrap(), vec!["a", "m", "z"]);
        assert_eq!(t.list("/d/a").unwrap_err(), NsError::IsFile("/d/a".into()));
    }

    #[test]
    fn blocks_and_sealing() {
        let mut t = tree_with(&["/f"]);
        t.add_block("/f", 10).unwrap();
        t.add_block("/f", 11).unwrap();
        t.close_file("/f").unwrap();
        t.close_file("/f").unwrap(); // idempotent
        assert_eq!(t.add_block("/f", 12).unwrap_err(), NsError::FileSealed("/f".into()));
        let info = t.getfileinfo("/f").unwrap();
        assert_eq!(info.blocks, vec![10, 11]);
        assert!(info.sealed);
    }

    #[test]
    fn apply_matches_direct_ops() {
        let mut direct = NamespaceTree::new();
        direct.mkdir("/a").unwrap();
        direct.create("/a/f", 2).unwrap();
        direct.rename("/a/f", "/a/g").unwrap();

        let mut replayed = NamespaceTree::new();
        for txn in [
            Txn::Mkdir { path: "/a".into() },
            Txn::Create { path: "/a/f".into(), replication: 2 },
            Txn::Rename { src: "/a/f".into(), dst: "/a/g".into() },
        ] {
            replayed.apply(&txn).unwrap();
        }
        assert_eq!(direct.fingerprint(), replayed.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_trees() {
        let a = tree_with(&["/x/", "/x/f"]);
        let b = tree_with(&["/x/", "/x/g"]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = tree_with(&["/x/", "/x/f"]);
        assert_eq!(a.fingerprint(), c.fingerprint());
        c.set_perm("/x/f", 0o600).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
