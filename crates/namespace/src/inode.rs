//! Inodes: the nodes of the namespace tree.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use crate::image::FileAttrs;

/// Dense inode identifier, unique within one namespace tree.
pub type InodeId = u64;

/// Root inode id (always present).
pub const ROOT_ID: InodeId = 0;

/// Default permission bits for new files/directories.
pub const DEFAULT_PERM: u16 = 0o755;

/// Longest component name a [`Name`] holds inline: what is left of a 24-byte
/// key (a boxed slice and a tag, the smallest a heap variant can be) after
/// the tag and a length byte. Every component the benchmark's five workloads,
/// the paper harnesses and the chaos corpus generate is a letter and a
/// decimal counter (`c31`, `d1999`, `f1048575`, `r77`), under ten bytes; HDFS
/// traces run longer (`part-r-00042`, `_SUCCESS`, `job_201502…` ids) and still
/// mostly fit. The heap variant is for correctness, not for them.
pub const NAME_INLINE: usize = 22;

/// A path component as a directory-entry key: the bytes sit in the B-tree
/// node beside the id they name, so a descent compares without leaving the
/// node. Ordered, compared and hashed **by bytes** — which is `str` order,
/// with no UTF-8 check per comparison — so a lookup by `&[u8]` ([`Borrow`])
/// builds no key. The padding of an inline name is zero and decides nothing
/// (see [`Ord`]'s note): `"a"` sorts before `"a\0"`.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; NAME_INLINE] },
    Heap(Box<str>),
}

impl Name {
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The name as text: for listings and messages, not for comparisons (an
    /// inline name is checked as UTF-8 on the way out).
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("a name is made from a str")
            }
            Repr::Heap(s) => s,
        }
    }

    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        if s.len() > NAME_INLINE {
            return Name(Repr::Heap(s.into()));
        }
        let mut buf = [0; NAME_INLINE];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Name(Repr::Inline { len: s.len() as u8, buf })
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            // Three big-endian words a side instead of a call to `memcmp`.
            // An inline name's padding is zero, so the buffers differ first
            // where the names do, or where the shorter one — a prefix of the
            // other — has ended and the longer has a non-zero byte; equal
            // buffers leave it to the lengths. Byte order either way.
            (Repr::Inline { len: la, buf: a }, Repr::Inline { len: lb, buf: b }) => {
                words(a).cmp(&words(b)).then(la.cmp(lb))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

/// An inline buffer as big-endian words (the last overlaps the second), whose
/// array order is the buffer's byte order.
#[inline]
fn words(buf: &[u8; NAME_INLINE]) -> [u64; 3] {
    let word = |at: usize| u64::from_be_bytes(buf[at..at + 8].try_into().expect("eight bytes"));
    [word(0), word(8), word(NAME_INLINE - 8)]
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// As `[u8]` hashes, which [`Borrow`] requires.
impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The id `children` binds `name` to. A name that fits inline is probed as a
/// [`Name`] — a copy onto the stack, then word compares down the tree; a
/// longer one by its bytes, which allocates nothing.
pub(crate) fn child(children: &BTreeMap<Name, InodeId>, name: &str) -> Option<InodeId> {
    if name.len() <= NAME_INLINE {
        children.get(&Name::from(name)).copied()
    } else {
        children.get(name.as_bytes()).copied()
    }
}

/// A node of the namespace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inode {
    Directory {
        /// Child name → inode id, the names inline in the map's nodes and in
        /// byte order: deterministic iteration, and the order the image
        /// encoder writes. A reader looks a child up with [`child`]; a
        /// mutation makes its one descent through `entry(Name::from(name))`.
        children: BTreeMap<Name, InodeId>,
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
/// namespace a node runs through a view borrowing its slot table, so both
/// producers read the namespace a replica runs instead of a copy of it.
///
/// The image encoder scans, then walks: one call of [`Self::file_attrs`],
/// then a preorder walk that calls [`Self::inode`] for every directory and
/// every entry the scan packed nothing for.
pub trait InodeSource {
    /// The inode `id` in the state this source shows, if it exists there.
    fn inode(&self, id: InodeId) -> Option<&Inode>;
    /// `(files, directories excluding the root)`; sizes the image buffer.
    fn counts(&self) -> (u64, u64);
    /// The attributes of every file this source shows, packed in storage
    /// order and indexed by the low 32 bits of its id. The default packs
    /// none: every entry reads its inode.
    fn file_attrs(&self) -> FileAttrs {
        FileAttrs::default()
    }
}

impl<S: InodeSource> InodeSource for &S {
    fn inode(&self, id: InodeId) -> Option<&Inode> {
        (**self).inode(id)
    }
    fn counts(&self) -> (u64, u64) {
        (**self).counts()
    }
    fn file_attrs(&self) -> FileAttrs {
        (**self).file_attrs()
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::hash::{DefaultHasher, Hash, Hasher};

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

    /// Names of every shape `Name` distinguishes: short, at the inline
    /// capacity and one byte to either side of it, far beyond it, sharing a
    /// prefix with a NUL after it (the inline padding byte), and non-ASCII
    /// (multi-byte characters, also straddling the capacity).
    fn name_corpus(rng: &mut SmallRng) -> Vec<String> {
        let mut names: Vec<String> =
            ["a", "a\0", "a\0\0", "a\u{1}", "b", "é", "日本語", "f0", "f00", "f1"]
                .map(String::from)
                .into();
        for len in [1, 2, NAME_INLINE - 1, NAME_INLINE, NAME_INLINE + 1, NAME_INLINE + 2, 300] {
            for _ in 0..6 {
                let alphabet = ["a", "b", "\0", "~", "é", "日"];
                let mut name = String::new();
                while name.len() < len {
                    let c = alphabet[rng.gen_range(0..alphabet.len())];
                    if name.len() + c.len() <= len {
                        name.push_str(c);
                    } else {
                        name.push('z');
                    }
                }
                // A second name equal to this one up to a point, so pairs
                // differ late, or only in length.
                let cut =
                    (0..=name.len()).rev().find(|&i| name.is_char_boundary(i) && i <= len / 2);
                names.push(name[..cut.unwrap()].to_string() + "a");
                names.push(name);
            }
        }
        names
    }

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// A `Name` orders, equals and hashes as the bytes of the `str` it was
    /// made from — which is how the `str` itself orders and equals — and
    /// gives the `str` back; the key is no larger than three words.
    #[test]
    fn a_name_is_its_str() {
        assert!(std::mem::size_of::<Name>() <= 24);
        let mut rng = SmallRng::seed_from_u64(0x4e41_4d45);
        let corpus = name_corpus(&mut rng);
        for a in &corpus {
            let na = Name::from(a.as_str());
            assert_eq!((na.as_str(), na.as_bytes(), na.len()), (&**a, a.as_bytes(), a.len()));
            assert_eq!(hash_of(&na), hash_of(a.as_bytes()), "{a:?}");
            assert_eq!(format!("{na} {na:?}"), format!("{a} {a:?}"));
            for b in &corpus {
                let nb = Name::from(b.as_str());
                assert_eq!(na.cmp(&nb), a.cmp(b), "{a:?} against {b:?}");
                assert_eq!(na == nb, a == b, "{a:?} against {b:?}");
            }
        }
        // A directory's entries iterate in `str` order and are found by
        // `child`, whichever way it probes; an absent name is not.
        let children: BTreeMap<Name, InodeId> = corpus
            .iter()
            .enumerate()
            .map(|(i, n)| (Name::from(n.as_str()), i as InodeId))
            .collect();
        let sorted: std::collections::BTreeSet<&str> = corpus.iter().map(String::as_str).collect();
        assert!(children.keys().map(Name::as_str).eq(sorted.iter().copied()));
        for name in &corpus {
            let last = corpus.iter().rposition(|n| n == name).unwrap() as InodeId;
            assert_eq!(child(&children, name), Some(last));
            assert_eq!(children.get(name.as_bytes()), Some(&last));
            assert_eq!(child(&children, &format!("{name}?")), None);
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
