//! Inodes: the nodes of the namespace tree.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Dense inode identifier, unique within one namespace tree.
pub type InodeId = u64;

/// Root inode id (always present).
pub const ROOT_ID: InodeId = 0;

/// Default permission bits for new files/directories.
pub const DEFAULT_PERM: u16 = 0o755;

/// A node of the namespace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inode {
    Directory {
        /// Child name → inode id, kept sorted for deterministic iteration
        /// and image encoding. Names are interned `Arc<str>` handles (see
        /// `NamespaceTree`): the many repeated component names of a big
        /// namespace share one allocation apiece.
        children: BTreeMap<Arc<str>, InodeId>,
        perm: u16,
    },
    File {
        /// Block ids in file order.
        blocks: Vec<u64>,
        /// Target replication factor.
        replication: u8,
        /// Whether the file is sealed (no more blocks may be added).
        sealed: bool,
        perm: u16,
    },
}

impl Inode {
    pub fn new_dir() -> Inode {
        Inode::Directory { children: BTreeMap::new(), perm: DEFAULT_PERM }
    }

    pub fn new_file(replication: u8) -> Inode {
        Inode::File { blocks: Vec::new(), replication, sealed: false, perm: DEFAULT_PERM }
    }

    pub fn is_dir(&self) -> bool {
        matches!(self, Inode::Directory { .. })
    }

    pub fn is_file(&self) -> bool {
        matches!(self, Inode::File { .. })
    }

    pub fn perm(&self) -> u16 {
        match self {
            Inode::Directory { perm, .. } | Inode::File { perm, .. } => *perm,
        }
    }

    pub fn set_perm(&mut self, p: u16) {
        match self {
            Inode::Directory { perm, .. } | Inode::File { perm, .. } => *perm = p,
        }
    }
}

/// Read-only access to a namespace by inode id: what the image encoder and
/// the delta fold walk. The reference tree implements it directly and the
/// sharded namespace through a view holding its shard locks, so both
/// producers read the namespace a replica runs instead of a copy of it.
pub trait InodeSource {
    /// The inode `id` in the state this source shows, if it exists there.
    fn inode(&self, id: InodeId) -> Option<&Inode>;
    /// `(files, directories excluding the root)`; sizes the image buffer.
    fn counts(&self) -> (u64, u64);
}

impl<S: InodeSource> InodeSource for &S {
    fn inode(&self, id: InodeId) -> Option<&Inode> {
        (**self).inode(id)
    }
    fn counts(&self) -> (u64, u64) {
        (**self).counts()
    }
}

/// The answer to `getfileinfo`: a snapshot of one inode's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    pub path: String,
    pub is_dir: bool,
    /// Block ids (empty for directories).
    pub blocks: Vec<u64>,
    pub replication: u8,
    pub sealed: bool,
    pub perm: u16,
    /// Number of children (directories only).
    pub child_count: usize,
}

impl FileInfo {
    /// What `getfileinfo` answers for the file `create(path, replication)`
    /// just made — the reply to the create itself.
    pub fn new_file(path: &str, replication: u8) -> FileInfo {
        FileInfo {
            path: path.to_string(),
            is_dir: false,
            blocks: Vec::new(),
            replication,
            sealed: false,
            perm: DEFAULT_PERM,
            child_count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_kind_checks() {
        let d = Inode::new_dir();
        assert!(d.is_dir() && !d.is_file());
        let f = Inode::new_file(3);
        assert!(f.is_file() && !f.is_dir());
        match f {
            Inode::File { replication, sealed, blocks, .. } => {
                assert_eq!(replication, 3);
                assert!(!sealed);
                assert!(blocks.is_empty());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn perm_round_trip() {
        let mut f = Inode::new_file(1);
        assert_eq!(f.perm(), DEFAULT_PERM);
        f.set_perm(0o600);
        assert_eq!(f.perm(), 0o600);
        let mut d = Inode::new_dir();
        d.set_perm(0o700);
        assert_eq!(d.perm(), 0o700);
    }
}
