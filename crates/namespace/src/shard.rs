//! The namespace every node runs, with epoch-snapshot reads, owned by one
//! thread.
//!
//! [`NamespaceTree`] is the plain reference namespace, one op at a time over
//! a hash map of inodes. This module is the namespace every node runs, with
//! the replicated-state contract intact:
//!
//! * **One slot table.** Every inode lives in one table of slots, and an id
//!   is an index: its low word is the inode's position in the table, and its
//!   high word a generation that goes stale when the slot is freed (see
//!   `GEN_SHIFT`), so an inode is reached without hashing and the table is
//!   as long as the peak number of live inodes. A new inode takes the most
//!   recently freed index, or the table's end. Directory entries hold each
//!   name inline in their directory's map ([`Name`]), with no table of names
//!   beside them.
//!
//! * **One owner.** A node owns its namespace and one thread drives the
//!   node, so nothing here is locked: the public API takes `&self`, and the
//!   table, the resolution cache and the counters sit in `RefCell`s and
//!   `Cell`s. The type is `Send`, not `Sync`. The newest state is the
//!   published one, so a live read needs no pin.
//!
//! * **Epoch-snapshot reads.** Every mutation takes a stamp from one
//!   counter. A reader can [`pin`] the last stamp and see a point-in-time
//!   namespace while mutations proceed: a mutation that runs while a pin is
//!   registered preserves the displaced version of each inode it touches in
//!   the table's history map, keyed by slot index (copy-on-write at inode
//!   granularity), so a slot itself holds one version. With no pin
//!   registered — the common case — mutations write in place and the map
//!   stays empty. The pins are a multiset of epochs without a cap; the
//!   oldest is the watermark, and dropping a view removes one copy of its
//!   epoch.
//!
//! * **One pass per op.** A mutation resolves its parent directory (the
//!   cache probe or the walk), then borrows the table once and touches each
//!   directory's map once through `entry`, checking in the reference tree's
//!   error order as it goes: create and mkdir insert if vacant; delete
//!   removes the name and then looks at what it bound, putting it back if
//!   that is a populated directory and the delete is not recursive; rename
//!   removes the source and claims the vacant destination, putting the
//!   source back if the destination is refused (two descents when both are
//!   one map). Nothing can change between resolution and mutation, so
//!   nothing is revalidated. The directory is opened for writing *before*
//!   that descent, so an op it refuses has taken a stamp and, under a pin,
//!   displaced a copy equal to the newest version: no reader pinned or not
//!   sees a difference, no inode id is spent, and the copy goes with the
//!   next unpinned write of the slot (see `SlotTable::open`). The
//!   single-inode ops (`add_block`, `close_file`, `set_perm`) check the
//!   inode as it stands first, and a refused one takes no stamp.
//!
//! A slot's history is pruned on the next write to it once the pins that
//! needed it are gone, and dropped with the slot when it is freed;
//! deletions performed while a pin was registered leave tombstones that the
//! table sweeps at the start of a later mutation.
//! A slot's index is reused only once it is freed — at the delete when no
//! pin is registered, at the sweep otherwise — so no pinned reader ever
//! finds another inode where the one it pinned was.
//!
//! ### Replay parity
//!
//! Standbys replay journal records through [`ShardedNamespace::apply`],
//! which runs the live op's body, validation included, so a record the
//! active would refuse is refused on replay too (checked against per-record
//! [`NamespaceTree::apply`]); a junior's image decodes straight into the
//! table, each inode loaded under its parent as a live create or mkdir
//! would load it. Either way the [`fingerprint`] is byte-for-byte the
//! legacy tree's over the same history — inode ids may differ, but the
//! fingerprint hashes structure, names, and attributes, never ids. The
//! active's checkpoint is [`SnapshotView::encode_image`], the image encoder
//! reading the table at a pinned epoch, and its bytes are those of the
//! tree's image. Property tests pin all three (`tests/sharded_parity.rs`).
//!
//! [`pin`]: ShardedNamespace::pin
//! [`fingerprint`]: ShardedNamespace::fingerprint

use std::cell::{Cell, Ref, RefCell};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mams_journal::{fnv1a64, Fnv1a64, NamespaceImage, Sn, Txn};

use crate::image::{encode_image_with_window, FileAttrs};
use crate::inode::{child, FileInfo, Inode, InodeId, InodeSource, Name, ROOT_ID};
use crate::path;
use crate::retry::RetryWindow;
use crate::{error::NsError, tree::NamespaceTree};

/// Mutation stamp: taken per mutation from one counter.
pub type Stamp = u64;

/// Resolution-cache sets. A path's hash picks one (see `CacheKey::set`).
const CACHE_SETS: usize = 1 << 12;
/// Entries per cache set. A full set replaces its oldest binding.
const CACHE_WAYS: usize = 4;

/// Where an id's generation starts. An id is `generation << GEN_SHIFT |
/// index`: the index of the inode's slot in the table in the low word, and
/// above it the slot's generation, a `u32` bumped each time the slot is
/// freed. An id whose generation is not its slot's reads as absent, as a
/// removed key would. The generation wraps after 2^32 frees of one index: a
/// stale id could resolve again only if it were held across four billion
/// reuses of its slot, and every holder keeps one for one op.
const GEN_SHIFT: u32 = 32;

/// One inode's newest version. `node == None` is a tombstone — the inode
/// was deleted at `stamp` but an older version may still be pinned — or a
/// free slot, on the table's free list. `gen` is the generation of the ids
/// that name this slot now (see [`GEN_SHIFT`]). The versions a pinned
/// reader may still need live beside the slots, in [`SlotTable::hist`].
#[derive(Debug, Default)]
struct Slot {
    stamp: Stamp,
    gen: u32,
    node: Option<Inode>,
}

// Every member holds one row per inode, so a field added here costs inodes × members.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Slot>() == 48);

impl Slot {
    /// Newest version (what unpinned readers and mutators see).
    fn latest(&self) -> Option<&Inode> {
        self.node.as_ref()
    }
}

/// The slot table and what frees and reuses its slots.
#[derive(Debug, Default)]
struct SlotTable {
    /// Id `g << GEN_SHIFT | i` is `slots[i]` while that slot's generation
    /// is `g`.
    slots: Vec<Slot>,
    /// The displaced versions of slot `i` (oldest first), for the pinned
    /// readers: an entry only for a slot written while a pin was
    /// registered, dropped at the slot's next unpinned write or when the
    /// slot is freed.
    hist: BTreeMap<u32, Vec<(Stamp, Option<Inode>)>>,
    /// Freed indexes, the last freed reused first.
    free: Vec<u32>,
    /// Tombstoned ids awaiting the no-pins sweep.
    dead: Vec<InodeId>,
}

impl SlotTable {
    fn id(index: usize, gen: u32) -> InodeId {
        (gen as u64) << GEN_SHIFT | index as u64
    }

    /// The slot `id` names, unless it was freed since `id` was handed out.
    fn get(&self, id: InodeId) -> Option<&Slot> {
        self.slots.get(id as u32 as usize).filter(|s| s.gen == (id >> GEN_SHIFT) as u32)
    }

    /// The version of `id` visible at `epoch` (newest when `None`), if the
    /// inode existed then.
    fn inode(&self, id: InodeId, epoch: Option<Stamp>) -> Option<&Inode> {
        let slot = self.get(id)?;
        match epoch {
            Some(e) if slot.stamp > e => {
                let hist = self.hist.get(&(id as u32))?;
                hist.iter().rev().find(|(s, _)| *s <= e).and_then(|(_, n)| n.as_ref())
            }
            _ => slot.latest(),
        }
    }

    /// Whether the newest version of `id` is a directory.
    fn has_live_dir(&self, id: InodeId) -> bool {
        self.get(id).and_then(Slot::latest).is_some_and(Inode::is_dir)
    }

    /// Open the newest version of `id` for writing at `stamp`, unless `id`
    /// went stale. `keep` is the oldest registered pin epoch: when present,
    /// the displaced version is pushed onto the slot's history (after
    /// pruning what no pin can read any more); when absent the history is
    /// dropped and the write happens in place. Idempotent per stamp, so one
    /// op may touch a slot twice.
    ///
    /// A directory is opened *before* its one descent says whether the op
    /// goes through, so an op refused there (the name is taken or missing,
    /// the directory is not empty) has opened the slot and, once it has put
    /// back what it took out, written nothing: every reader sees what it saw,
    /// a pinned one through a displaced copy equal to the newest version,
    /// which the next unpinned write drops like any other.
    fn open(
        &mut self,
        id: InodeId,
        stamp: Stamp,
        keep: Option<Stamp>,
    ) -> Option<&mut Option<Inode>> {
        let index = id as u32;
        let slot =
            self.slots.get_mut(index as usize).filter(|s| s.gen == (id >> GEN_SHIFT) as u32)?;
        if slot.stamp != stamp {
            match keep {
                // A lookup in an empty map, as it is with no pin in sight.
                None => {
                    self.hist.remove(&index);
                }
                Some(w) => {
                    let hist = self.hist.entry(index).or_default();
                    // Keep the newest entry at-or-below the oldest pin (it
                    // serves that pin) and everything newer.
                    if let Some(pos) = hist.iter().rposition(|(s, _)| *s <= w) {
                        hist.drain(..pos);
                    }
                    hist.push((slot.stamp, slot.node.clone()));
                }
            }
            slot.stamp = stamp;
        }
        Some(&mut slot.node)
    }

    /// The id the next [`take`](Self::take) hands out. Reading it takes
    /// nothing, so an op refused after it spends no id.
    fn next_id(&self) -> InodeId {
        match self.free.last() {
            Some(&i) => Self::id(i as usize, self.slots[i as usize].gen),
            None => Self::id(self.slots.len(), 0),
        }
    }

    /// Store `node`, written at `stamp`, under the id
    /// [`next_id`](Self::next_id) named.
    fn take(&mut self, stamp: Stamp, node: Inode) -> InodeId {
        let index = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                assert!(self.slots.len() <= u32::MAX as usize, "slot table full");
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[index];
        (slot.stamp, slot.node) = (stamp, Some(node));
        Self::id(index, slot.gen)
    }

    /// Free the slot of `id` for reuse: every id naming it goes stale, and
    /// its history goes with it.
    fn free(&mut self, id: InodeId) {
        let index = id as u32;
        let slot = &mut self.slots[index as usize];
        *slot = Slot { gen: slot.gen.wrapping_add(1), ..Slot::default() };
        self.hist.remove(&index);
        self.free.push(index);
    }
}

/// From-root component walk at `epoch`.
fn walk(table: &SlotTable, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
    let mut cur = ROOT_ID;
    for comp in path::components(p) {
        match table.inode(cur, epoch)? {
            Inode::Directory { children, .. } => cur = child(children, comp)?,
            Inode::File { .. } => return None,
        }
    }
    Some(cur)
}

/// A directory path hashed once — the hash picks the cache set — with the
/// cache generation read *before* the path was resolved, so a binding
/// resolved across a subtree move is dead on insert.
#[derive(Clone, Copy)]
struct CacheKey<'p> {
    path: &'p str,
    hash: u64,
    gen: u64,
}

impl CacheKey<'_> {
    fn set(&self) -> std::ops::Range<usize> {
        // Twelve bits: the low four and bits 8–15. FNV-1a carries a path's
        // last characters into its low bits, hardly at all into bits 32–39.
        // Which twelve is pinned: `resolution_cache.rs` checks what the
        // cache counts over a fixed stream.
        let set = ((self.hash & 15) << 8) | ((self.hash >> 8) & 255);
        let first = set as usize * CACHE_WAYS;
        first..first + CACHE_WAYS
    }
}

/// A resolved parent directory and, when its lookup walked, the key a
/// mutation that goes through binds it under (see
/// [`ShardedNamespace::cache_put`]).
type Parent<'p> = (InodeId, Option<CacheKey<'p>>);

/// One cached binding `path → directory id`, inserted by the mutation
/// stamped `stamp` while the cache generation was `gen`. `gen == 0` is an
/// empty way: the generation counter starts at 1.
#[derive(Default)]
struct CacheEntry {
    hash: u64,
    gen: u64,
    stamp: Stamp,
    id: InodeId,
    path: Box<str>,
}

impl CacheEntry {
    fn holds(&self, k: &CacheKey<'_>) -> bool {
        self.hash == k.hash && self.gen == k.gen && *self.path == *k.path
    }
}

/// The path → directory-id resolution cache: [`CACHE_SETS`] sets of
/// [`CACHE_WAYS`] entries. A binding is what a walk found: a mutation whose
/// lookup of its parent directory missed and walked binds that directory once
/// the op goes through. Reads never insert, and a mkdir does not bind the
/// directory it makes.
///
/// An entry of the current generation is a live binding. Removing an *empty*
/// directory drops exactly its own key — it has no cached descendants,
/// because every cached descendant is a live directory beneath it — and a
/// subtree move (directory rename, recursive delete of a populated
/// directory) bumps the namespace's generation instead of searching for the
/// descendants, which retires every entry at once. A pinned reader at epoch
/// `E` additionally needs `stamp ≤ E`: the binding has held continuously from
/// the stamp to now, which covers `E`.
struct ResolutionCache {
    ways: Box<[CacheEntry]>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResolutionCache {
    fn new() -> ResolutionCache {
        let ways = (0..CACHE_SETS * CACHE_WAYS).map(|_| CacheEntry::default()).collect();
        ResolutionCache { ways, hits: 0, misses: 0, evictions: 0 }
    }

    /// Probe for `k` at `epoch`, counting the hit or the miss.
    fn get(&mut self, k: &CacheKey<'_>, epoch: Option<Stamp>) -> Option<InodeId> {
        let found = self.ways[k.set()]
            .iter()
            .find(|e| e.holds(k) && epoch.is_none_or(|at| e.stamp <= at))
            .map(|e| e.id);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Bind `k → id` as of `stamp`, into a dead way when the set has one and
    /// over its oldest binding otherwise.
    fn put(&mut self, k: &CacheKey<'_>, id: InodeId, stamp: Stamp) {
        let set = &mut self.ways[k.set()];
        // Only a walk binds, and an op walks only when its probe missed.
        debug_assert!(!set.iter().any(|e| e.holds(k)), "{} is already bound", k.path);
        let victim = match set.iter().position(|e| e.gen != k.gen) {
            Some(dead) => dead,
            None => {
                self.evictions += 1;
                (0..CACHE_WAYS).min_by_key(|&i| set[i].stamp).expect("CACHE_WAYS > 0")
            }
        };
        set[victim] = CacheEntry { hash: k.hash, gen: k.gen, stamp, id, path: Box::from(k.path) };
    }

    /// Drop the binding for `k`, if cached.
    fn remove(&mut self, k: &CacheKey<'_>) {
        if let Some(e) = self.ways[k.set()].iter_mut().find(|e| e.holds(k)) {
            *e = CacheEntry::default();
        }
    }
}

/// Resolution-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Generation bumps: each retired every cached binding at once.
    pub flushes: u64,
    /// Live bindings replaced because their set was full.
    pub evictions: u64,
}

/// Every inode read at one epoch, for a reader that visits the whole
/// namespace by inode id: the image encoder at a pinned epoch, the delta
/// fold at the newest state (`epoch: None`). It holds the table borrowed,
/// so nothing mutates while it lives — hold it for one pass, not for the
/// life of a pin.
///
/// Its file attributes come from one scan of the slots in index order; the
/// image encoder's preorder walk then reads only the slots the scan packed
/// nothing for: directories (for their children) and slots stamped after
/// the epoch, whose visible version is in `SlotTable::hist`.
pub struct InodesAt<'a> {
    table: Ref<'a, SlotTable>,
    epoch: Option<Stamp>,
    counts: (u64, u64),
}

impl InodeSource for InodesAt<'_> {
    fn inode(&self, id: InodeId) -> Option<&Inode> {
        self.table.inode(id, self.epoch)
    }

    fn counts(&self) -> (u64, u64) {
        self.counts
    }

    fn file_attrs(&self) -> FileAttrs {
        let mut attrs = FileAttrs::with_capacity(self.table.slots.len());
        for s in &self.table.slots {
            // A slot stamped after the epoch shows an older version: `hist`'s.
            attrs.push(s.latest().filter(|_| self.epoch.is_none_or(|e| s.stamp <= e)));
        }
        attrs
    }
}

/// The namespace. All operations take `&self`, and the one thread that
/// owns it runs them one at a time: the structure is `Send`, not `Sync`.
pub struct ShardedNamespace {
    table: RefCell<SlotTable>,
    cache: RefCell<ResolutionCache>,
    /// Resolution-cache generation (starts at 1): entries of an earlier
    /// generation are dead. Bumped by subtree moves.
    cache_gen: Cell<u64>,
    /// The last stamp taken: the epoch a pin registered now reads.
    last_stamp: Cell<Stamp>,
    /// The epochs of the live views, one entry per view.
    pins: RefCell<Vec<Stamp>>,
    num_files: Cell<u64>,
    num_dirs: Cell<u64>,
}

impl std::fmt::Debug for ShardedNamespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNamespace")
            .field("num_files", &self.num_files())
            .field("num_dirs", &self.num_dirs())
            .field("last_stamp", &self.last_stamp.get())
            .finish()
    }
}

impl Default for ShardedNamespace {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedNamespace {
    /// A namespace containing only the root directory.
    pub fn new() -> Self {
        let mut table = SlotTable::default();
        table.take(0, Inode::new_dir()); // ROOT_ID: index 0, generation 0
        ShardedNamespace {
            table: RefCell::new(table),
            cache: RefCell::new(ResolutionCache::new()),
            cache_gen: Cell::new(1),
            last_stamp: Cell::new(0),
            pins: RefCell::default(),
            num_files: Cell::new(0),
            num_dirs: Cell::new(0),
        }
    }

    /// Build from a legacy tree: a preorder walk of it into
    /// [`load`](Self::load), the image decoder's loader, so the result is
    /// laid out as the decode of the tree's image is. The oracle bridge the
    /// parity suites and `bench_e2e`'s probes use; no server calls it.
    pub fn from_tree(tree: NamespaceTree) -> Self {
        let mut ns = Self::new();
        let Some(Inode::Directory { children, perm }) = tree.inode(ROOT_ID) else {
            unreachable!("a tree's root is a directory")
        };
        ns.set_root_perm(*perm);
        let mut open = vec![(children.iter(), ROOT_ID)];
        while let Some((siblings, parent)) = open.last_mut() {
            let Some((name, &id)) = siblings.next() else {
                open.pop();
                continue;
            };
            let parent = *parent;
            let (node, children) = match tree.inode(id).expect("a directory entry names an inode") {
                Inode::Directory { children, perm } => {
                    (Inode::Directory { children: BTreeMap::new(), perm: *perm }, Some(children))
                }
                file => (file.clone(), None),
            };
            let loaded =
                ns.load(parent, name.as_str(), node).expect("a tree holds no repeated name");
            open.extend(children.map(|c| (c.iter(), loaded)));
        }
        ns
    }

    /// Load `node` under the directory `parent` as `name`, through
    /// `SlotTable::take` as a live create or mkdir would. For a namespace
    /// being built before anyone reads it — the image decoder,
    /// [`from_tree`](Self::from_tree) — so no stamp or cache entry: what it
    /// loads is in every epoch, and the table has no hole. A parent that is
    /// not a live directory and a repeated name are refused, as an attach
    /// refuses them.
    pub(crate) fn load(
        &mut self,
        parent: InodeId,
        name: &str,
        node: Inode,
    ) -> Result<InodeId, NsError> {
        debug_assert!(!matches!(&node, Inode::Directory { children, .. } if !children.is_empty()));
        let count = if node.is_dir() { &mut self.num_dirs } else { &mut self.num_files };
        let table = self.table.get_mut();
        let id = table.next_id();
        Self::check_parent(table.get(parent), name)?;
        Self::link(Self::open_dir(table, parent, 0, None), name, id, name)?;
        table.take(0, node);
        *count.get_mut() += 1;
        Ok(id)
    }

    /// Set the root's permission bits while the namespace is being loaded
    /// (see [`load`](Self::load)).
    pub(crate) fn set_root_perm(&mut self, perm: u16) {
        let root = self.table.get_mut().slots[0].node.as_mut();
        root.expect("the root is live").set_perm(perm);
    }

    /// Flatten the newest versions into a legacy tree (ids are preserved).
    /// The oracle the parity suites and `bench_e2e`'s probes hold
    /// [`SnapshotView::encode_image`] against; the server never calls it.
    #[expect(clippy::disallowed_types, reason = "the bridge builds the oracle's hash map")]
    pub fn to_tree(&self) -> NamespaceTree {
        use std::collections::HashMap;
        let mut inodes = HashMap::with_capacity((self.num_files() + self.num_dirs() + 1) as usize);
        let mut next_id: InodeId = 1;
        for (i, slot) in self.table.borrow().slots.iter().enumerate() {
            if let Some(node) = slot.latest() {
                let id = SlotTable::id(i, slot.gen);
                next_id = next_id.max(id + 1);
                inodes.insert(id, node.clone());
            }
        }
        NamespaceTree::from_parts(inodes, next_id, self.num_files(), self.num_dirs())
    }

    /// Number of files.
    pub fn num_files(&self) -> u64 {
        self.num_files.get()
    }

    /// Number of directories, excluding the root.
    pub fn num_dirs(&self) -> u64 {
        self.num_dirs.get()
    }

    /// Displaced versions the table's history map keeps for pinned readers,
    /// tombstones' included. A write with no pin registered drops its
    /// slot's history and the sweep drops a tombstone's, so once every pin
    /// is gone this falls to 0 as the inodes are next written.
    pub fn displaced_versions(&self) -> usize {
        self.table.borrow().hist.values().map(Vec::len).sum()
    }

    /// Resolution-cache counters (`bench_e2e` reports them as
    /// `namespace.cache_hit_ratio`).
    pub fn cache_stats(&self) -> CacheStats {
        let c = self.cache.borrow();
        let flushes = self.cache_gen.get() - 1;
        CacheStats { hits: c.hits, misses: c.misses, flushes, evictions: c.evictions }
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    fn alloc_stamp(&self) -> Stamp {
        let s = self.last_stamp.get() + 1;
        self.last_stamp.set(s);
        s
    }

    /// Oldest registered pin epoch, or `None` when no snapshot is pinned
    /// (the in-place fast path).
    fn watermark(&self) -> Option<Stamp> {
        self.pins.borrow().iter().min().copied()
    }

    /// Free tombstoned slots once no pin can see them. Runs at the start
    /// of mutations once the table has accumulated tombstones.
    fn sweep(&self, table: &mut SlotTable) {
        if table.dead.is_empty() || !self.pins.borrow().is_empty() {
            return;
        }
        while let Some(id) = table.dead.pop() {
            if table.get(id).is_some_and(|s| s.node.is_none()) {
                table.free(id);
            }
        }
    }

    /// Every inode at `epoch` (newest when `None`); see [`InodesAt`]. The
    /// counts are the newest ones — a sizing hint, exact when nothing has
    /// mutated since `epoch`.
    pub(crate) fn inodes_at(&self, epoch: Option<Stamp>) -> InodesAt<'_> {
        InodesAt { table: self.table.borrow(), epoch, counts: (self.num_files(), self.num_dirs()) }
    }

    /// Hash `dir` for the cache and read the generation a binding resolved
    /// from here on may be inserted under. Take the key *before* resolving.
    fn cache_key<'p>(&self, dir: &'p str) -> CacheKey<'p> {
        CacheKey { path: dir, hash: fnv1a64(dir.as_bytes()), gen: self.cache_gen.get() }
    }

    /// Record `k → id`, what the op's own lookup walked to. Mutation paths
    /// only, once the op went through with `id` a live directory in `table`:
    /// removing or moving a directory updates the cache after it, so a
    /// binding is never inserted behind its own invalidation.
    fn cache_put(&self, table: &SlotTable, k: &CacheKey<'_>, id: InodeId, stamp: Stamp) {
        debug_assert!(table.has_live_dir(id), "{} binds no live directory", k.path);
        // A key taken before a flush would be dead on arrival.
        if k.gen == self.cache_gen.get() {
            self.cache.borrow_mut().put(k, id, stamp);
        }
    }

    /// An empty directory at `p` was removed: drop its key. Nothing is cached
    /// beneath it (see [`ResolutionCache`]).
    fn cache_remove(&self, p: &str) {
        self.cache.borrow_mut().remove(&self.cache_key(p));
    }

    /// A subtree moved or disappeared: retire every cached binding.
    fn cache_flush(&self) {
        self.cache_gen.set(self.cache_gen.get() + 1);
    }

    /// Read the version of `id` visible at `epoch` (newest when `None`).
    fn with_node<R>(
        &self,
        id: InodeId,
        epoch: Option<Stamp>,
        f: impl FnOnce(&Inode) -> R,
    ) -> Option<R> {
        self.table.borrow().inode(id, epoch).map(f)
    }

    /// Resolve the validated directory path `dir` at `epoch`: one hash, one
    /// cache probe, and the walk from the root when that misses. A walked
    /// answer comes back with its key, for the mutation that goes on to bind
    /// it (see [`cache_put`](Self::cache_put)). Maintains the hit/miss
    /// counters; the root costs no lookup and counts as neither.
    fn lookup_dir<'p>(&self, dir: &'p str, epoch: Option<Stamp>) -> Option<Parent<'p>> {
        if dir == "/" {
            return Some((ROOT_ID, None));
        }
        let k = self.cache_key(dir);
        if let Some(id) = self.cache.borrow_mut().get(&k, epoch) {
            return Some((id, None));
        }
        walk(&self.table.borrow(), dir, epoch).map(|id| (id, Some(k)))
    }

    /// Resolve a validated path at `epoch` through its parent directory's
    /// cache entry — directories are the only cached population, so the full
    /// path is never probed.
    fn resolve(&self, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        let Some((dir, name)) = path::split(p) else { return Some(ROOT_ID) };
        let (pid, _) = self.lookup_dir(dir, epoch)?;
        match self.table.borrow().inode(pid, epoch)? {
            Inode::Directory { children, .. } => child(children, name),
            Inode::File { .. } => None,
        }
    }

    /// Classify a failed parent resolution the way the legacy tree does:
    /// a file somewhere along the chain is `ParentNotDirectory`, anything
    /// else `ParentNotFound`.
    fn parent_missing_error(&self, p: &str, parent: &str) -> NsError {
        if self.chain_has_file(parent) {
            NsError::ParentNotDirectory(p.to_string())
        } else {
            NsError::ParentNotFound(p.to_string())
        }
    }

    fn chain_has_file(&self, p: &str) -> bool {
        let table = self.table.borrow();
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            match table.inode(cur, None) {
                Some(Inode::Directory { children, .. }) => match child(children, comp) {
                    Some(id) => cur = id,
                    None => return false,
                },
                Some(Inode::File { .. }) => return true,
                None => return false,
            }
        }
        table.inode(cur, None).is_some_and(Inode::is_file)
    }

    fn info_of(p: &str, node: &Inode) -> FileInfo {
        match node {
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
        }
    }

    // ------------------------------------------------------------------
    // Reads (newest state here; a pinned view reads its epoch)
    // ------------------------------------------------------------------

    /// `getfileinfo` at `epoch` (newest when `None`).
    fn info_at(&self, p: &str, epoch: Option<Stamp>) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let node = |id| self.with_node(id, epoch, |n| Self::info_of(p, n));
        self.resolve(p, epoch).and_then(node).ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    /// `list` at `epoch` (newest when `None`).
    fn list_at(&self, p: &str, epoch: Option<Stamp>) -> Result<Vec<String>, NsError> {
        path::validate(p)?;
        let id = self.resolve(p, epoch).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.with_node(id, epoch, |n| match n {
            Inode::Directory { children, .. } => {
                Ok(children.keys().map(|k| k.as_str().to_owned()).collect())
            }
            Inode::File { .. } => Err(NsError::IsFile(p.to_string())),
        })
        .ok_or_else(|| NsError::NotFound(p.to_string()))?
    }

    /// `getfileinfo`: read-only metadata lookup against the newest state.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        self.info_at(p, None)
    }

    /// List child names of a directory (sorted), newest state.
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        self.list_at(p, None)
    }

    /// Resolve a path to its inode id (cached fast path, newest state).
    pub fn resolve_path(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.resolve(p, None)
    }

    /// Resolve by walking from the root, ignoring the cache (the oracle the
    /// fast path must agree with; does not touch the hit/miss counters).
    pub fn resolve_path_uncached(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        walk(&self.table.borrow(), p, None)
    }

    /// Whether a path exists in the newest state.
    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.resolve(p, None).is_some()
    }

    // ------------------------------------------------------------------
    // Snapshot pinning
    // ------------------------------------------------------------------

    /// Pin the current epoch: the returned view reads a frozen namespace
    /// while mutations proceed underneath, which copy what they displace
    /// until the view is dropped. Any number of views may live at once.
    pub fn pin(&self) -> SnapshotView<'_> {
        let epoch = self.last_stamp.get();
        self.pins.borrow_mut().push(epoch);
        SnapshotView { ns: self, epoch }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// `create`: make an empty file.
    pub fn create(&self, p: &str, replication: u8) -> Result<FileInfo, NsError> {
        self.create_file(p, replication)?;
        Ok(FileInfo::new_file(p, replication))
    }

    /// `create` without its answer, which a replayed `Create` does not need.
    fn create_file(&self, p: &str, replication: u8) -> Result<(), NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        // Bare lookup for the candidate parent id; its kind (and the legacy
        // error precedence) is classified on the slot, saving a separate
        // kind check per create.
        let (pid, bind) =
            self.lookup_dir(dir, None).ok_or_else(|| self.parent_missing_error(p, dir))?;
        self.attach_file(pid, name, replication, p, bind)
    }

    /// `mkdir`: make a directory (parent must exist). The new directory is
    /// not cached: the first later op that walks to it binds it.
    pub fn mkdir(&self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        let (pid, bind) =
            self.lookup_dir(dir, None).ok_or_else(|| self.parent_missing_error(p, dir))?;
        self.attach_dir(pid, name, p, bind)
    }

    /// `mkdir -p`: create all missing ancestors. Ok if the directory exists.
    pub fn mkdir_p(&self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        if p == "/" {
            return Ok(());
        }
        for prefix in path::prefixes(p) {
            match self.mkdir(prefix) {
                Ok(()) => {}
                Err(NsError::AlreadyExists(_)) => {
                    if let Some(id) = self.resolve(prefix, None) {
                        if self.with_node(id, None, Inode::is_file).unwrap_or(false) {
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
    pub fn delete(&self, p: &str, recursive: bool) -> Result<(u64, u64), NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        let parent = self.lookup_dir(dir, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.unlink(parent, name, recursive, p)
    }

    /// `rename`: move `src` to `dst` (which must not exist). A directory's
    /// move retires every cached path with the cache generation.
    pub fn rename(&self, src: &str, dst: &str) -> Result<(), NsError> {
        path::validate(src)?;
        path::validate(dst)?;
        // What the two paths alone refuse, in the legacy tree's order.
        if src == "/" || dst == "/" {
            return Err(NsError::RootImmutable);
        }
        if src == dst {
            return Err(NsError::AlreadyExists(dst.to_string()));
        }
        if path::is_strict_descendant(dst, src) {
            return Err(NsError::RenameIntoSelf { src: src.to_string(), dst: dst.to_string() });
        }
        let (src_dir, src_name) = path::split(src).expect("not the root");
        let (dst_dir, dst_name) = path::split(dst).expect("not the root");
        let from =
            self.lookup_dir(src_dir, None).ok_or_else(|| NsError::NotFound(src.to_string()))?;
        let to = if dst_dir == src_dir {
            Ok((from.0, None))
        } else {
            self.lookup_dir(dst_dir, None).ok_or_else(|| self.parent_missing_error(dst, dst_dir))
        };
        self.move_entry(from, src_name, to.map(|parent| (parent, dst_name)), src, dst)
    }

    /// A validated path's inode, or `NotFound`.
    fn resolve_existing(&self, p: &str) -> Result<InodeId, NsError> {
        path::validate(p)?;
        self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    /// Append a block to an unsealed file.
    pub fn add_block(&self, p: &str, block_id: u64) -> Result<(), NsError> {
        self.add_block_at(self.resolve_existing(p)?, p, block_id)
    }

    /// Seal a file. Idempotent.
    pub fn close_file(&self, p: &str) -> Result<(), NsError> {
        self.close_file_at(self.resolve_existing(p)?, p)
    }

    /// Change permission bits (files, directories, and the root).
    pub fn set_perm(&self, p: &str, perm: u16) -> Result<(), NsError> {
        self.set_perm_at(self.resolve_existing(p)?, p, perm)
    }

    /// Apply a journalled transaction: the one replay path, each record
    /// run through its live op, which refuses on replay what it refuses
    /// live.
    pub fn apply(&self, txn: &Txn) -> Result<(), NsError> {
        match txn {
            Txn::Create { path, replication } => self.create_file(path, *replication),
            Txn::Mkdir { path } => self.mkdir(path),
            Txn::Delete { path, recursive } => self.delete(path, *recursive).map(|_| ()),
            Txn::Rename { src, dst } => self.rename(src, dst),
            Txn::AddBlock { path, block_id, .. } => self.add_block(path, *block_id),
            Txn::CloseFile { path } => self.close_file(path),
            Txn::SetPerm { path, perm } => self.set_perm(path, *perm),
        }
    }

    /// Deterministic structural fingerprint, byte-for-byte identical to
    /// [`NamespaceTree::fingerprint`] over the same namespace (inode ids are
    /// not hashed, so the order inodes were allocated in does not affect it).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_at(None)
    }

    fn fingerprint_at(&self, epoch: Option<Stamp>) -> u64 {
        let mut h = Fnv1a64::new();
        let table = self.table.borrow();
        let mut stack: Vec<(InodeId, u32)> = vec![(ROOT_ID, 0)];
        while let Some((id, depth)) = stack.pop() {
            h.write(&depth.to_le_bytes());
            match table.inode(id, epoch) {
                Some(Inode::Directory { children, perm }) => {
                    h.write(b"D");
                    h.write(&perm.to_le_bytes());
                    for (name, child) in children.iter().rev() {
                        h.write(name.as_bytes());
                        stack.push((*child, depth + 1));
                    }
                }
                Some(Inode::File { blocks, replication, sealed, perm }) => {
                    h.write(&[b'F', *replication, *sealed as u8]);
                    h.write(&perm.to_le_bytes());
                    for b in blocks {
                        h.write(&b.to_le_bytes());
                    }
                }
                // Every entry names an inode live at the epoch.
                None => {}
            }
        }
        h.digest()
    }

    /// Fingerprint of the directory skeleton alone: every directory's path
    /// and permission, files ignored, summed so that neither creation order
    /// nor inode ids show. Replica groups partition files but run every
    /// structural operation, so at quiescence all groups report one value.
    pub fn skeleton_fingerprint(&self) -> u64 {
        let table = self.table.borrow();
        let mut sum = 0u64;
        let mut stack: Vec<(InodeId, String)> = vec![(ROOT_ID, String::new())];
        while let Some((id, dir)) = stack.pop() {
            if let Some(Inode::Directory { children, perm }) = table.inode(id, None) {
                sum = sum.wrapping_add(fnv1a64(format!("{dir}/ {perm}").as_bytes()));
                stack
                    .extend(children.iter().map(|(name, child)| (*child, format!("{dir}/{name}"))));
            }
        }
        sum
    }
}

/// A pinned point-in-time view of the namespace (see
/// [`ShardedNamespace::pin`]). Reads through the view are stable against
/// the mutations made after it was taken; dropping the view unpins its
/// epoch and lets the preserved versions be reclaimed.
pub struct SnapshotView<'a> {
    ns: &'a ShardedNamespace,
    epoch: Stamp,
}

impl Drop for SnapshotView<'_> {
    fn drop(&mut self) {
        let mut pins = self.ns.pins.borrow_mut();
        if let Some(at) = pins.iter().position(|&e| e == self.epoch) {
            pins.swap_remove(at);
        }
    }
}

impl SnapshotView<'_> {
    /// The pinned epoch (the stamp of the last mutation this view sees).
    pub fn epoch(&self) -> Stamp {
        self.epoch
    }

    /// `getfileinfo` against the pinned epoch.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        self.ns.info_at(p, Some(self.epoch))
    }

    /// `list` against the pinned epoch.
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        self.ns.list_at(p, Some(self.epoch))
    }

    /// Resolve a path at the pinned epoch.
    pub fn resolve_path(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.ns.resolve(p, Some(self.epoch))
    }

    /// Whether a path exists at the pinned epoch.
    pub fn exists(&self, p: &str) -> bool {
        self.resolve_path(p).is_some()
    }

    /// Structural fingerprint of the pinned state.
    pub fn fingerprint(&self) -> u64 {
        self.ns.fingerprint_at(Some(self.epoch))
    }

    /// The image of the pinned state, checkpointed at `checkpoint_sn` (the
    /// journal position the caller knows the pin to reflect) and carrying
    /// `window`: encoded straight from the table, byte for byte what
    /// [`encode_image_with_window`] makes of a [`NamespaceTree`] holding the
    /// same namespace. A pin kept across mutations yields the same image
    /// afterwards.
    pub fn encode_image(&self, checkpoint_sn: Sn, window: &RetryWindow) -> NamespaceImage {
        encode_image_with_window(&self.ns.inodes_at(Some(self.epoch)), checkpoint_sn, window)
    }
}

/// A name kept for `bench_e2e`, which replays a batch through it: it is
/// [`ShardedNamespace::apply`] and nothing else, and no replica uses it.
#[derive(Debug, Default)]
pub struct ShardedReplaySession;

impl ShardedReplaySession {
    pub fn new() -> Self {
        Self
    }

    /// Apply one journalled record: `ns.apply(txn)`.
    pub fn apply(&mut self, ns: &ShardedNamespace, txn: &Txn) -> Result<(), NsError> {
        ns.apply(txn)
    }
}

/// The bodies of the mutations, past their parents' resolution.
impl ShardedNamespace {
    /// Attach a new file under directory `parent` as `name` — the body of
    /// `create`. Errors name `p`, the file's path, as the legacy tree's do.
    /// `bind` is the parent's cache key when its lookup walked.
    fn attach_file(
        &self,
        parent: InodeId,
        name: &str,
        replication: u8,
        p: &str,
        bind: Option<CacheKey<'_>>,
    ) -> Result<(), NsError> {
        let mut table = self.table.borrow_mut();
        self.sweep(&mut table);
        Self::check_parent(table.get(parent), p)?;
        let keep = self.watermark();
        let s = self.alloc_stamp();
        // The id the file gets if the name is free: a refused op takes none.
        let id = table.next_id();
        Self::link(Self::open_dir(&mut table, parent, s, keep), name, id, p)?;
        table.take(s, Inode::new_file(replication));
        if let Some(k) = bind {
            self.cache_put(&table, &k, parent, s);
        }
        self.num_files.set(self.num_files.get() + 1);
        Ok(())
    }

    /// Attach a new directory under `parent` (see
    /// [`attach_file`](Self::attach_file)). The directory itself is not
    /// bound: the first later op whose lookup walks to it binds it.
    fn attach_dir(
        &self,
        parent: InodeId,
        name: &str,
        p: &str,
        bind: Option<CacheKey<'_>>,
    ) -> Result<(), NsError> {
        let mut table = self.table.borrow_mut();
        self.sweep(&mut table);
        Self::check_parent(table.get(parent), p)?;
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let id = table.next_id();
        Self::link(Self::open_dir(&mut table, parent, s, keep), name, id, p)?;
        table.take(s, Inode::new_dir());
        if let Some(k) = bind {
            self.cache_put(&table, &k, parent, s);
        }
        self.num_dirs.set(self.num_dirs.get() + 1);
        Ok(())
    }

    /// The body of `delete`: unlink `name` from the directory `parent` — one
    /// descent of its map — and drop what it bound. Errors in the legacy
    /// tree's order, naming `p`: no such entry, then a populated directory
    /// without `recursive` (the entry is put back).
    fn unlink(
        &self,
        (pid, bind): Parent<'_>,
        name: &str,
        recursive: bool,
        p: &str,
    ) -> Result<(u64, u64), NsError> {
        let mut table = self.table.borrow_mut();
        if !table.has_live_dir(pid) {
            return Err(NsError::NotFound(p.to_string()));
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let Entry::Occupied(bound) =
            Self::open_dir(&mut table, pid, s, keep).entry(Name::from(name))
        else {
            return Err(NsError::NotFound(p.to_string()));
        };
        let (key, id) = bound.remove_entry();
        let (is_dir, empty) = match table.get(id).and_then(Slot::latest) {
            Some(Inode::Directory { children, .. }) => (true, children.is_empty()),
            Some(Inode::File { .. }) => (false, true),
            None => unreachable!("a directory entry names a live inode"),
        };
        if is_dir && !empty && !recursive {
            Self::open_dir(&mut table, pid, s, keep).insert(key, id);
            return Err(NsError::NotEmpty(p.to_string()));
        }
        let (files, dirs) = if is_dir {
            Self::drop_subtree(&mut table, id, s, keep)
        } else {
            Self::bury(&mut table, id, s, keep);
            (1, 0)
        };
        // Files are never cached; an empty directory is cached under its
        // own key at most; a populated one takes its subtree with it.
        if is_dir && empty {
            self.cache_remove(p);
        } else if is_dir {
            self.cache_flush();
        }
        if let Some(k) = bind {
            self.cache_put(&table, &k, pid, s);
        }
        self.num_files.set(self.num_files.get() - files);
        self.num_dirs.set(self.num_dirs.get() - dirs);
        Ok((files, dirs))
    }

    /// The body of `rename`, past what its two paths alone refuse:
    /// move `src_name` of the directory `from` to `to`, the destination's
    /// parent and name or the error its parent's resolution ended in. One
    /// descent of each map (two of a shared one), erring in the legacy
    /// tree's order: no source, then the destination's parent, then a taken
    /// destination — the last two putting the source back.
    fn move_entry(
        &self,
        (sp, src_bind): Parent<'_>,
        src_name: &str,
        to: Result<(Parent<'_>, &str), NsError>,
        src: &str,
        dst: &str,
    ) -> Result<(), NsError> {
        let mut table = self.table.borrow_mut();
        if !table.has_live_dir(sp) {
            return Err(NsError::NotFound(src.to_string()));
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let Entry::Occupied(bound) =
            Self::open_dir(&mut table, sp, s, keep).entry(Name::from(src_name))
        else {
            return Err(NsError::NotFound(src.to_string()));
        };
        let (key, id) = bound.remove_entry();
        let claimed = to.and_then(|((dp, dst_bind), dst_name)| {
            Self::check_parent(table.get(dp), dst)?;
            match Self::open_dir(&mut table, dp, s, keep).entry(Name::from(dst_name)) {
                Entry::Vacant(free) => {
                    free.insert(id);
                    Ok((dp, dst_bind))
                }
                Entry::Occupied(_) => Err(NsError::AlreadyExists(dst.to_string())),
            }
        });
        let (dp, dst_bind) = match claimed {
            Ok(to) => to,
            Err(e) => {
                Self::open_dir(&mut table, sp, s, keep).insert(key, id);
                return Err(e);
            }
        };
        if table.has_live_dir(id) {
            // Every cached path at or under `src` now points somewhere else
            // (or nowhere).
            self.cache_flush();
        }
        for (bind, parent) in [(src_bind, sp), (dst_bind, dp)] {
            if let Some(k) = bind {
                self.cache_put(&table, &k, parent, s);
            }
        }
        Ok(())
    }

    /// The legacy tree's classification of an op under `parent`, from the
    /// slot alone; whether the name is free is the op's one descent.
    fn check_parent(parent: Option<&Slot>, what: &str) -> Result<(), NsError> {
        match parent.and_then(Slot::latest) {
            Some(Inode::Directory { .. }) => Ok(()),
            Some(Inode::File { .. }) => Err(NsError::ParentNotDirectory(what.to_string())),
            None => Err(NsError::ParentNotFound(what.to_string())),
        }
    }

    /// Open the entries of `dir` for writing at `stamp`. The caller has seen
    /// it a live directory.
    fn open_dir(
        table: &mut SlotTable,
        dir: InodeId,
        stamp: Stamp,
        keep: Option<Stamp>,
    ) -> &mut BTreeMap<Name, InodeId> {
        match table.open(dir, stamp, keep).and_then(Option::as_mut) {
            Some(Inode::Directory { children, .. }) => children,
            _ => unreachable!("inode {dir} was seen a live directory"),
        }
    }

    /// Bind `name → id` if the name is free: the one descent of a create or
    /// mkdir.
    fn link(
        children: &mut BTreeMap<Name, InodeId>,
        name: &str,
        id: InodeId,
        what: &str,
    ) -> Result<(), NsError> {
        match children.entry(Name::from(name)) {
            Entry::Vacant(free) => {
                free.insert(id);
                Ok(())
            }
            Entry::Occupied(_) => Err(NsError::AlreadyExists(what.to_string())),
        }
    }

    /// Drop the unlinked directory `root` and everything under it;
    /// `(files, directories)` dropped.
    fn drop_subtree(
        table: &mut SlotTable,
        root: InodeId,
        stamp: Stamp,
        keep: Option<Stamp>,
    ) -> (u64, u64) {
        let (mut files, mut dirs) = (0, 0);
        let mut stack = vec![root];
        while let Some(cur) = stack.pop() {
            match table.get(cur).and_then(Slot::latest) {
                Some(Inode::Directory { children, .. }) => {
                    dirs += 1;
                    stack.extend(children.values().copied());
                }
                Some(Inode::File { .. }) => files += 1,
                None => continue,
            }
            Self::bury(table, cur, stamp, keep);
        }
        (files, dirs)
    }

    /// Drop the deleted inode `id`: free its slot, or — while a pin may
    /// still read it — leave a tombstone for the sweep to free.
    fn bury(table: &mut SlotTable, id: InodeId, stamp: Stamp, keep: Option<Stamp>) {
        if keep.is_none() {
            table.free(id);
        } else {
            *table.open(id, stamp, keep).expect("seen live") = None;
            table.dead.push(id);
        }
    }

    /// Append `block_id` to the file `id`, resolved from `p`, unless it is
    /// sealed.
    fn add_block_at(&self, id: InodeId, p: &str, block_id: u64) -> Result<(), NsError> {
        let check = |node: &Inode| match node {
            Inode::File { sealed: false, .. } => Ok(()),
            Inode::File { .. } => Err(NsError::FileSealed(p.to_string())),
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        };
        self.mutate_by_id(id, p, check, |node| {
            if let Inode::File { blocks, .. } = node {
                blocks.push(block_id);
            }
        })
    }

    /// Seal the file `id`, resolved from `p`.
    fn close_file_at(&self, id: InodeId, p: &str) -> Result<(), NsError> {
        let check = |node: &Inode| match node {
            Inode::File { .. } => Ok(()),
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        };
        self.mutate_by_id(id, p, check, |node| {
            if let Inode::File { sealed, .. } = node {
                *sealed = true;
            }
        })
    }

    /// Set the permission bits of `id`, resolved from `p`.
    fn set_perm_at(&self, id: InodeId, p: &str, perm: u16) -> Result<(), NsError> {
        self.mutate_by_id(id, p, |_| Ok(()), |node| node.set_perm(perm))
    }

    /// Mutate the node `id`, which the caller resolved from `p`: `check` the
    /// newest version as it stands, and only when it passes take a stamp and
    /// `apply` to the version opened for writing — a refused op takes no
    /// stamp and copies nothing. A missing slot — freed, or reused under a
    /// newer generation — means the resolution went stale and maps to
    /// NotFound, matching what a fresh one would report.
    fn mutate_by_id(
        &self,
        id: InodeId,
        p: &str,
        check: impl FnOnce(&Inode) -> Result<(), NsError>,
        apply: impl FnOnce(&mut Inode),
    ) -> Result<(), NsError> {
        let mut table = self.table.borrow_mut();
        self.sweep(&mut table);
        check(
            table.get(id).and_then(Slot::latest).ok_or_else(|| NsError::NotFound(p.to_string()))?,
        )?;
        let keep = self.watermark();
        let s = self.alloc_stamp();
        apply(table.open(id, s, keep).and_then(Option::as_mut).expect("checked above"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::DEFAULT_PERM;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A node owns its namespace and a node is `Send`, so the namespace must
    /// be too (it is not `Sync`: one thread drives it).
    const _: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<ShardedNamespace>()
    };

    fn both() -> (NamespaceTree, ShardedNamespace) {
        (NamespaceTree::new(), ShardedNamespace::new())
    }

    fn run_parity(ops: &[Txn]) -> (NamespaceTree, ShardedNamespace) {
        let (mut t, s) = both();
        for op in ops {
            let a = t.apply(op);
            let b = s.apply(op);
            assert_eq!(a.is_ok(), b.is_ok(), "parity broke on {op:?}: {a:?} vs {b:?}");
        }
        assert_eq!(t.fingerprint(), s.fingerprint());
        assert_eq!(t.num_files(), s.num_files());
        assert_eq!(t.num_dirs(), s.num_dirs());
        (t, s)
    }

    #[test]
    fn parity_basic_ops() {
        run_parity(&[
            Txn::Mkdir { path: "/a".into() },
            Txn::Mkdir { path: "/a/b".into() },
            Txn::Create { path: "/a/b/f0".into(), replication: 3 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 1, len: 64 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 2, len: 64 },
            Txn::CloseFile { path: "/a/b/f0".into() },
            Txn::Create { path: "/a/b/f1".into(), replication: 2 },
            Txn::SetPerm { path: "/a/b".into(), perm: 0o750 },
            Txn::SetPerm { path: "/".into(), perm: 0o711 },
            Txn::Rename { src: "/a/b/f1".into(), dst: "/a/g".into() },
            Txn::Delete { path: "/a/b/f0".into(), recursive: false },
            Txn::Create { path: "/a/b/f2".into(), replication: 1 },
            Txn::Mkdir { path: "/c".into() },
            Txn::Rename { src: "/a/b".into(), dst: "/c/b2".into() },
            Txn::Delete { path: "/c".into(), recursive: true },
        ]);
    }

    #[test]
    fn parity_error_kinds() {
        let (mut t, s) = both();
        for op in
            [Txn::Mkdir { path: "/a".into() }, Txn::Create { path: "/a/f".into(), replication: 1 }]
        {
            t.apply(&op).unwrap();
            s.apply(&op).unwrap();
        }
        let cases: Vec<(Result<(), NsError>, Result<(), NsError>)> = vec![
            (t.create("/no/f", 1).map(|_| ()), s.create("/no/f", 1).map(|_| ())),
            (t.create("/a/f/x", 1).map(|_| ()), s.create("/a/f/x", 1).map(|_| ())),
            (t.create("/a/f", 1).map(|_| ()), s.create("/a/f", 1).map(|_| ())),
            (t.delete("/", true).map(|_| ()), s.delete("/", true).map(|_| ())),
            (t.delete("/a", false).map(|_| ()), s.delete("/a", false).map(|_| ())),
            (t.delete("/a/f/x", false).map(|_| ()), s.delete("/a/f/x", false).map(|_| ())),
            (t.rename("/a", "/a/evil").map(|_| ()), s.rename("/a", "/a/evil").map(|_| ())),
            (t.rename("/missing", "/y").map(|_| ()), s.rename("/missing", "/y").map(|_| ())),
            (t.rename("/missing", "/no/y").map(|_| ()), s.rename("/missing", "/no/y").map(|_| ())),
            (t.rename("/a", "/no/where").map(|_| ()), s.rename("/a", "/no/where").map(|_| ())),
            (t.rename("/a", "/a/f/x/y").map(|_| ()), s.rename("/a", "/a/f/x/y").map(|_| ())),
            (t.rename("/a/f", "/a").map(|_| ()), s.rename("/a/f", "/a").map(|_| ())),
            (t.rename("/", "/r").map(|_| ()), s.rename("/", "/r").map(|_| ())),
            (t.add_block("/a", 1), s.add_block("/a", 1)),
            (t.add_block("/gone", 1), s.add_block("/gone", 1)),
            (t.mkdir_p("/a/f"), s.mkdir_p("/a/f")),
        ];
        for (i, (a, b)) in cases.iter().enumerate() {
            assert_eq!(a, b, "error parity case {i}");
        }
        assert_eq!(t.fingerprint(), s.fingerprint(), "no refused op moved anything");
    }

    /// An op refused in its one pass — the name is taken, the directory is
    /// populated — fails as the tree's does and leaves nothing a reader or a
    /// later op can see, with no pin and under a live one: the fingerprints
    /// hold still, the next inode ids are the ones a namespace that never
    /// saw the refused ops hands out, and what a pinned refusal displaced is
    /// cleared by the next unpinned write of the slot.
    #[test]
    fn refused_ops_leave_no_trace() {
        let setup = [
            Txn::Mkdir { path: "/a".into() },
            Txn::Create { path: "/a/f".into(), replication: 1 },
            Txn::Mkdir { path: "/a/d".into() },
            Txn::Mkdir { path: "/b".into() },
            Txn::Create { path: "/b/g".into(), replication: 1 },
        ];
        let refused = [
            Txn::Create { path: "/a/f".into(), replication: 2 },
            Txn::Create { path: "/a/d".into(), replication: 2 },
            Txn::Mkdir { path: "/a/d".into() },
            Txn::Mkdir { path: "/a/f".into() },
            Txn::Rename { src: "/a/f".into(), dst: "/a/d".into() },
            Txn::Rename { src: "/a/f".into(), dst: "/b/g".into() },
            Txn::Rename { src: "/a/d".into(), dst: "/b/g".into() },
            Txn::Rename { src: "/a/f".into(), dst: "/b/g/h".into() },
            Txn::Delete { path: "/a".into(), recursive: false },
        ];
        let next = [
            Txn::Create { path: "/a/h".into(), replication: 1 },
            Txn::Mkdir { path: "/a/d2".into() },
            Txn::Mkdir { path: "/a/f2".into() },
        ];
        for pinned in [false, true] {
            let mut t = NamespaceTree::new();
            let (s, twin) = (ShardedNamespace::new(), ShardedNamespace::new());
            for op in &setup {
                t.apply(op).unwrap();
                s.apply(op).unwrap();
                twin.apply(op).unwrap();
            }
            let view = pinned.then(|| s.pin());
            let before = s.fingerprint();
            for op in &refused {
                let (a, b) = (t.apply(op), s.apply(op));
                assert!(a.is_err() && a == b, "pinned {pinned}, {op:?}: {a:?} vs {b:?}");
                assert_eq!(s.fingerprint(), before, "pinned {pinned}, {op:?}");
                if let Some(view) = &view {
                    assert_eq!(view.fingerprint(), before, "pinned view, {op:?}");
                }
            }
            for op in &next {
                s.apply(op).unwrap();
                twin.apply(op).unwrap();
                let p = op.primary_path();
                assert_eq!(s.resolve_path(p), twin.resolve_path(p), "pinned {pinned}: id of {p}");
            }
            if let Some(view) = view {
                assert_eq!(view.fingerprint(), before);
                assert!(s.displaced_versions() > 0, "the pin kept what was written under it");
                drop(view);
            }
            // Write every slot an op above opened: `/a`, `/b` and the root.
            for p in ["/a/i", "/b/i", "/i"] {
                s.create(p, 1).unwrap();
            }
            assert_eq!(s.displaced_versions(), 0, "pinned {pinned}");
        }
    }

    /// A refused block op or seal checks the inode as it stands: it copies
    /// nothing and takes no stamp, pinned or not, and answers what the tree
    /// answers — on the live path and on a replica that replayed the same
    /// records.
    #[test]
    fn a_refused_op_by_id_takes_no_stamp_and_copies_nothing() {
        let (mut t, s) = both();
        let replica = ShardedNamespace::new();
        let setup = [
            Txn::Mkdir { path: "/d".into() },
            Txn::Create { path: "/d/f".into(), replication: 1 },
            Txn::AddBlock { path: "/d/f".into(), block_id: 1, len: 8 },
            Txn::CloseFile { path: "/d/f".into() },
        ];
        for op in &setup {
            t.apply(op).unwrap();
            s.apply(op).unwrap();
            replica.apply(op).unwrap();
        }
        let view = s.pin();
        s.set_perm("/d", 0o700).unwrap();
        t.set_perm("/d", 0o700).unwrap();
        let (epoch, displaced) = (s.pin().epoch(), s.displaced_versions());
        assert!(epoch > view.epoch() && displaced > 0, "an accepted op under the pin copies");
        let (sealed, is_dir) =
            (NsError::FileSealed("/d/f".into()), NsError::IsDirectory("/d".into()));
        let refused = [
            (Txn::AddBlock { path: "/d/f".into(), block_id: 2, len: 8 }, sealed),
            (Txn::AddBlock { path: "/d".into(), block_id: 2, len: 8 }, is_dir.clone()),
            (Txn::CloseFile { path: "/d".into() }, is_dir),
        ];
        for (op, error) in refused {
            let want = Err(error);
            assert_eq!(t.apply(&op), want, "{op:?}");
            assert_eq!(s.apply(&op), want, "{op:?}");
            assert_eq!(replica.apply(&op), want, "{op:?} on replay");
        }
        assert_eq!(s.pin().epoch(), epoch, "a refused op took a stamp");
        assert_eq!(s.displaced_versions(), displaced, "a refused op displaced a copy");
        assert_eq!(view.getfileinfo("/d/f").unwrap().blocks, [1]);
        assert_eq!(view.getfileinfo("/d").unwrap().perm, DEFAULT_PERM);
        assert_eq!(s.fingerprint(), t.fingerprint());
    }

    #[test]
    fn reads_match_legacy() {
        let ops = [
            Txn::Mkdir { path: "/d".into() },
            Txn::Mkdir { path: "/d/s".into() },
            Txn::Create { path: "/d/s/f".into(), replication: 2 },
            Txn::AddBlock { path: "/d/s/f".into(), block_id: 7, len: 1 },
        ];
        let (t, s) = run_parity(&ops);
        for p in ["/", "/d", "/d/s", "/d/s/f"] {
            let a = t.getfileinfo(p).unwrap();
            let b = s.getfileinfo(p).unwrap();
            assert_eq!(
                (a.path, a.is_dir, a.blocks, a.perm, a.child_count),
                (b.path, b.is_dir, b.blocks, b.perm, b.child_count)
            );
        }
        assert_eq!(t.list("/d").unwrap(), s.list("/d").unwrap());
        assert_eq!(s.resolve_path("/d/s/f"), s.resolve_path_uncached("/d/s/f"));
        assert!(s.exists("/d/s"));
        assert!(!s.exists("/d/x"));
    }

    /// Slots in the table.
    fn table_len(s: &ShardedNamespace) -> usize {
        s.table.borrow().slots.len()
    }

    #[test]
    fn stale_ids_read_as_absent_after_their_index_is_reused() {
        let s = ShardedNamespace::new();
        s.mkdir("/d").unwrap();
        s.create("/d/f", 1).unwrap();
        let (old_dir, old_file) = (s.resolve_path("/d").unwrap(), s.resolve_path("/d/f").unwrap());
        s.delete("/d", true).unwrap();
        s.mkdir("/e").unwrap();
        s.create("/e/g", 1).unwrap();
        let (dir, file) = (s.resolve_path("/e").unwrap(), s.resolve_path("/e/g").unwrap());
        assert_eq!(table_len(&s), 3, "both indexes were reused");
        let mut old = [old_dir as u32, old_file as u32];
        let mut new = [dir as u32, file as u32];
        old.sort();
        new.sort();
        assert_eq!(old, new, "the same two indexes");
        assert!(old_dir != dir && old_dir != file && old_file != dir && old_file != file);
        assert!(s.with_node(old_dir, None, |_| ()).is_none());
        assert!(s.with_node(old_file, None, |_| ()).is_none());
        let before = s.fingerprint();
        assert_eq!(
            s.attach_file(old_dir, "x", 1, "x", None),
            Err(NsError::ParentNotFound("x".into()))
        );
        assert_eq!(s.set_perm_at(old_file, "/d/f", 0o700), Err(NsError::NotFound("/d/f".into())));
        assert_eq!(
            s.unlink((old_dir, None), "f", false, "/d/f"),
            Err(NsError::NotFound("/d/f".into()))
        );
        assert_eq!(s.fingerprint(), before, "none touched the inode now at the index");
        assert_eq!(s.list("/e").unwrap(), ["g"]);
    }

    #[test]
    fn a_pinned_inode_keeps_its_index_until_the_pin_drops() {
        let s = ShardedNamespace::new();
        s.mkdir("/d").unwrap();
        s.create("/d/f", 1).unwrap();
        s.add_block("/d/f", 7).unwrap();
        let old = s.resolve_path("/d/f").unwrap();
        let view = s.pin();
        s.delete("/d/f", false).unwrap();
        s.create("/d/g", 1).unwrap();
        assert_eq!(table_len(&s), 4, "the deleted file's index was not reused");
        assert_eq!(view.getfileinfo("/d/f").unwrap().blocks, [7], "the view reads the old inode");
        assert_eq!(view.resolve_path("/d/f"), Some(old));
        assert!(s.with_node(old, None, |_| ()).is_none(), "the newest state has no such file");
        drop(view);
        // The next mutation sweeps the tombstone and its
        // allocation takes the freed index.
        s.create("/d/h", 1).unwrap();
        let h = s.resolve_path("/d/h").unwrap();
        assert_eq!(table_len(&s), 4);
        assert_eq!((h as u32, h == old), (old as u32, false), "same index, new generation");
        assert!(s.with_node(old, None, |_| ()).is_none());
        assert_eq!(s.getfileinfo("/d/h").unwrap().blocks, Vec::<u64>::new());
    }

    #[test]
    fn a_table_is_as_long_as_its_peak_of_live_inodes() {
        let s = ShardedNamespace::new();
        for i in 0..50_000 {
            if i >= 64 {
                s.delete(&format!("/f{}", i - 64), false).unwrap();
            }
            s.create(&format!("/f{i}"), 1).unwrap();
        }
        assert_eq!(s.num_files(), 64);
        assert!(table_len(&s) <= 65, "{} slots for 64 files and the root", table_len(&s));
    }

    #[test]
    fn snapshot_view_is_stable() {
        let s = ShardedNamespace::new();
        s.mkdir("/d").unwrap();
        s.mkdir("/d/sub").unwrap();
        s.create("/d/old", 1).unwrap();
        s.create("/d/kept", 1).unwrap();
        let before = s.list("/d").unwrap();
        let view = s.pin();
        s.create("/d/new", 1).unwrap();
        s.delete("/d/old", false).unwrap();
        s.set_perm("/d", 0o700).unwrap();
        s.set_perm("/d/kept", 0o600).unwrap();
        s.rename("/d/sub", "/moved").unwrap();
        // The view still sees the pinned state…
        assert_eq!(view.list("/d").unwrap(), before);
        assert!(view.exists("/d/old"));
        assert!(!view.exists("/d/new"));
        assert!(view.exists("/d/sub") && !view.exists("/moved"));
        assert_eq!(view.getfileinfo("/d").unwrap().perm, DEFAULT_PERM);
        assert_eq!(view.getfileinfo("/d/kept").unwrap().perm, DEFAULT_PERM);
        assert_eq!(s.table.borrow().dead.len(), 1, "the delete under the pin left a tombstone");
        // …while the latest state moved on.
        assert!(!s.exists("/d/old"));
        assert!(s.exists("/d/new"));
        assert_eq!(s.getfileinfo("/d").unwrap().perm, 0o700);
        // A second pin sees the new state.
        let view2 = s.pin();
        assert!(view2.exists("/d/new"));
        drop(view2);
        drop(view);
        // With pins gone, later mutations reclaim history and tombstones:
        // the first sweeps the tombstone, and writing each slot written
        // under the pin — the root, `/d`, `/d/kept` — drops its history.
        assert!(s.displaced_versions() > 0);
        for p in ["/", "/d", "/d/kept"] {
            s.set_perm(p, 0o750).unwrap();
        }
        assert_eq!(s.displaced_versions(), 0);
        let table = s.table.borrow();
        assert!(table.dead.is_empty(), "the sweep freed the tombstone");
        assert!(table.hist.is_empty(), "history outlived its pin: {:?}", table.hist.keys());
        drop(table);
        s.create("/d/later", 1).unwrap();
        assert!(s.exists("/d/later"));
    }

    /// One thread pins and then mutates the pinned directory 500 times —
    /// creates, renames, deletes — reading the view between every two: the
    /// view holds still throughout, and the copies it kept go with the next
    /// unpinned write once it is dropped.
    #[test]
    fn a_pinned_view_holds_still_while_its_directory_churns() {
        let s = ShardedNamespace::new();
        s.mkdir("/w").unwrap();
        s.create("/w/seed", 1).unwrap();
        s.mkdir("/w/sub").unwrap();
        let (names, frozen) = (s.list("/w").unwrap(), s.fingerprint());
        let view = s.pin();
        for i in 0..500 {
            match i % 3 {
                0 => s.create(&format!("/w/f{i}"), 1).map(|_| ()),
                1 => s.rename(&format!("/w/f{}", i - 1), &format!("/w/r{}", i - 1)),
                _ => s.delete(&format!("/w/r{}", i - 2), false).map(|_| ()),
            }
            .unwrap();
            assert_eq!(view.list("/w").unwrap(), names, "after op {i}");
            assert!(view.exists("/w/seed") && !view.exists("/w/f0"), "after op {i}");
            assert_eq!(view.fingerprint(), frozen, "after op {i}");
        }
        assert_eq!(s.list("/w").unwrap(), ["r498", "seed", "sub"]);
        assert!(s.displaced_versions() > 0);
        drop(view);
        s.create("/w/after", 1).unwrap();
        assert_eq!(s.displaced_versions(), 0);
    }

    /// Pins are a multiset of epochs with no cap: 64 views at 64 epochs,
    /// and a second view at every eighth, each read their own epoch; the
    /// watermark is the oldest left while they are dropped in a seeded
    /// random order; once the last is gone, one write to each slot the
    /// mutations opened leaves no displaced version and no tombstone.
    #[test]
    fn any_number_of_pins_each_read_their_epoch() {
        let s = ShardedNamespace::new();
        s.mkdir("/d").unwrap();
        let mut views = Vec::new();
        let mut frozen = Vec::new();
        for i in 0..64 {
            views.push(s.pin());
            frozen.push(s.fingerprint());
            if i % 8 == 0 {
                views.push(s.pin());
                frozen.push(s.fingerprint());
            }
            s.create(&format!("/d/f{i}"), 1).unwrap();
            if i % 2 == 1 {
                s.delete(&format!("/d/f{}", i - 1), false).unwrap();
                s.set_perm("/d", 0o700 + i as u16).unwrap();
            }
        }
        assert_eq!(views.len(), 72);
        let mut rng = SmallRng::seed_from_u64(31);
        while !views.is_empty() {
            for (view, &fp) in views.iter().zip(&frozen) {
                assert_eq!(view.fingerprint(), fp, "the view pinned at {}", view.epoch());
            }
            let oldest = views.iter().map(SnapshotView::epoch).min();
            assert_eq!(s.watermark(), oldest);
            let at = rng.gen_range(0..views.len());
            drop(views.swap_remove(at));
            frozen.swap_remove(at);
        }
        assert_eq!(s.watermark(), None);
        assert!(s.displaced_versions() > 0, "nothing was written since the pins went");
        s.create("/d/after", 1).unwrap();
        assert_eq!(s.displaced_versions(), 0);
        let table = s.table.borrow();
        assert!(table.dead.is_empty(), "a tombstone outlived every pin");
        let empty = table.slots.iter().filter(|slot| slot.node.is_none()).count();
        assert_eq!(empty, table.free.len(), "every empty slot is free for reuse");
    }

    #[test]
    fn snapshot_fingerprint_matches_quiesced_copy() {
        let s = ShardedNamespace::new();
        s.mkdir_p("/a/b").unwrap();
        s.create("/a/b/f", 2).unwrap();
        let frozen = s.fingerprint();
        let view = s.pin();
        s.create("/a/b/g", 2).unwrap();
        s.rename("/a/b/f", "/a/f2").unwrap();
        assert_eq!(view.fingerprint(), frozen);
        assert_ne!(s.fingerprint(), frozen);
    }

    /// What two replica groups must agree on: the directories, whatever
    /// files each holds, in whatever order they were made.
    #[test]
    fn skeleton_fingerprint_sees_directories_and_nothing_else() {
        let a = ShardedNamespace::new();
        a.mkdir_p("/x/y").unwrap();
        a.mkdir("/z").unwrap();
        a.create("/x/y/f", 2).unwrap();
        let b = ShardedNamespace::new();
        b.mkdir("/z").unwrap();
        b.create("/z/g", 1).unwrap();
        b.mkdir_p("/x/y").unwrap();
        assert_eq!(a.skeleton_fingerprint(), b.skeleton_fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.set_perm("/z", 0o700).unwrap();
        assert_ne!(a.skeleton_fingerprint(), b.skeleton_fingerprint(), "a directory's perm counts");
        a.set_perm("/z", 0o700).unwrap();
        a.mkdir("/x/yy").unwrap();
        assert_ne!(
            a.skeleton_fingerprint(),
            b.skeleton_fingerprint(),
            "so does one more directory"
        );
    }

    /// Replay answers what the tree answers, record for record, also for a
    /// record whose path a rename or delete moved away or that is malformed.
    #[test]
    fn replay_matches_the_tree_across_renames_and_deletes() {
        let workload = [
            Txn::Mkdir { path: "/a".into() },
            Txn::Mkdir { path: "/a/b".into() },
            Txn::Create { path: "/a/b/f0".into(), replication: 3 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 1, len: 64 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 2, len: 64 },
            Txn::CloseFile { path: "/a/b/f0".into() },
            Txn::Create { path: "/a/b/f1".into(), replication: 2 },
            Txn::SetPerm { path: "/".into(), perm: 0o711 },
            Txn::Rename { src: "/a/b/f1".into(), dst: "/a/g".into() },
            Txn::Delete { path: "/a/b/f0".into(), recursive: false },
            Txn::Create { path: "/a/b/f2".into(), replication: 1 },
            Txn::SetPerm { path: "/a/b".into(), perm: 0o700 },
        ];
        let mut naive = NamespaceTree::new();
        let sharded = ShardedNamespace::new();
        for txn in &workload {
            let a = naive.apply(txn);
            let b = sharded.apply(txn);
            assert_eq!(a, b, "replay parity broke on {txn:?}");
        }
        assert_eq!(naive.fingerprint(), sharded.fingerprint());
        // Stale paths: a record against a deleted file or a renamed-away
        // directory fails in both instead of touching the old inode, and
        // malformed shapes are rejected.
        let rename = Txn::Rename { src: "/a/b".into(), dst: "/a/c".into() };
        sharded.apply(&rename).unwrap();
        naive.apply(&rename).unwrap();
        for stale in [
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 3, len: 64 },
            Txn::Create { path: "/a/b/h".into(), replication: 1 },
            Txn::Create { path: "/".into(), replication: 1 },
            Txn::Mkdir { path: "/a/".into() },
            Txn::Delete { path: "/".into(), recursive: true },
            Txn::Delete { path: "/a/b/f2".into(), recursive: false },
            Txn::Rename { src: "/a/b/f2".into(), dst: "/a/f2".into() },
            Txn::Rename { src: "/a/c".into(), dst: "/a/c/d".into() },
            Txn::Rename { src: "/".into(), dst: "/x".into() },
        ] {
            assert!(sharded.apply(&stale).is_err(), "{stale:?}");
            assert!(naive.apply(&stale).is_err(), "{stale:?}");
        }
        assert_eq!(naive.fingerprint(), sharded.fingerprint());
        // A create under a directory's old path fails once a rename or a
        // delete took the directory away, as the naive apply's does, between
        // two that succeed; a file's delete or rename leaves its directory
        // where it was.
        for txn in [
            Txn::Mkdir { path: "/p".into() },
            Txn::Create { path: "/p/f1".into(), replication: 1 },
            Txn::Rename { src: "/p/f1".into(), dst: "/p/f2".into() },
            Txn::Create { path: "/p/f3".into(), replication: 1 },
            Txn::Delete { path: "/p/f2".into(), recursive: false },
            Txn::Create { path: "/p/f4".into(), replication: 1 },
            Txn::Rename { src: "/p".into(), dst: "/q".into() },
            Txn::Create { path: "/p/f5".into(), replication: 1 },
            Txn::Create { path: "/q/f5".into(), replication: 1 },
            Txn::Delete { path: "/q".into(), recursive: true },
            Txn::Create { path: "/q/f6".into(), replication: 1 },
            Txn::Mkdir { path: "/q".into() },
            Txn::Create { path: "/q/f6".into(), replication: 1 },
        ] {
            let failing = matches!(&txn, Txn::Create { path, .. } if path == "/p/f5")
                || (matches!(&txn, Txn::Create { path, .. } if path == "/q/f6")
                    && !naive.exists("/q"));
            let a = naive.apply(&txn);
            assert_eq!(a, sharded.apply(&txn), "replay parity broke on {txn:?}");
            assert_eq!(a.is_err(), failing, "{txn:?}: {a:?}");
        }
        assert_eq!(naive.fingerprint(), sharded.fingerprint());
    }

    /// A random entry of `dir` whose name starts with `prefix`, as a path.
    fn pick(rng: &mut SmallRng, t: &NamespaceTree, dir: &str, prefix: char) -> Option<String> {
        let names: Vec<String> =
            t.list(dir).ok()?.into_iter().filter(|n| n.starts_with(prefix)).collect();
        (!names.is_empty()).then(|| format!("{dir}/{}", names[rng.gen_range(0..names.len())]))
    }

    /// One record of a seeded journal shaped like `write_steady`'s — create,
    /// rename and delete rounds interleaved across 32 directories, with
    /// blocks and seals — mixed with directory renames, recursive deletes
    /// and records that must fail: a delete of a missing path, a rename onto
    /// an existing name, a rename into the source itself, a populated
    /// directory deleted without `recursive`. Aimed at what `t` holds.
    fn churn_record(rng: &mut SmallRng, t: &NamespaceTree, n: u64) -> Txn {
        let (a, b) = (rng.gen_range(0..32), rng.gen_range(0..32));
        let (dir, other) = (format!("/w/d{a}"), format!("/w/d{b}"));
        let or_missing = |p: Option<String>| p.unwrap_or_else(|| format!("{dir}/missing"));
        match rng.gen_range(0..100) {
            0..30 => Txn::Create { path: format!("{dir}/f{n}"), replication: 1 },
            30..50 => {
                let src = or_missing(pick(rng, t, &dir, 'f'));
                let dst = src.replacen("/f", "/r", 1);
                Txn::Rename { src, dst }
            }
            50..68 => Txn::Delete { path: or_missing(pick(rng, t, &dir, 'r')), recursive: false },
            68..74 => {
                Txn::AddBlock { path: or_missing(pick(rng, t, &dir, 'f')), block_id: n, len: 1 }
            }
            74..77 => Txn::CloseFile { path: or_missing(pick(rng, t, &dir, 'f')) },
            77..80 => Txn::Rename { src: dir.clone(), dst: format!("{other}/d{a}") },
            80..82 => Txn::Rename { src: format!("{other}/d{a}"), dst: dir },
            82..84 => Txn::Delete { path: dir, recursive: true },
            84..89 => Txn::Mkdir { path: dir },
            89..91 => Txn::Delete { path: format!("{dir}/missing"), recursive: false },
            91..94 => {
                let src = or_missing(pick(rng, t, &dir, 'f'));
                Txn::Rename { src, dst: or_missing(pick(rng, t, &dir, 'r')) }
            }
            94..96 => Txn::Rename { src: dir.clone(), dst: format!("{dir}/d{b}") },
            96..98 => Txn::Delete { path: dir, recursive: false },
            _ => {
                let src = or_missing(pick(rng, t, &dir, 'f'));
                Txn::Rename { dst: src.replacen(&dir, &other, 1), src }
            }
        }
    }

    /// Seeded `write_steady`-shaped journals through an active's namespace
    /// and a replica's, each applying every record, beside the reference
    /// tree: both answer exactly what the tree answers, error included,
    /// record for record, and all three end in one fingerprint.
    #[test]
    fn replay_matches_the_tree_on_churn_journals() {
        let cases: u64 =
            std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
        for case in 0..cases {
            let mut rng = SmallRng::seed_from_u64(2000 + case);
            let mut naive = NamespaceTree::new();
            let (live, replica) = (ShardedNamespace::new(), ShardedNamespace::new());
            let mut journal = vec![Txn::Mkdir { path: "/w".into() }];
            journal.extend((0..32).map(|d| Txn::Mkdir { path: format!("/w/d{d}") }));
            // Per kind — a directory's rename, a file's, a populated
            // directory's delete, any other delete, a create, the rest —
            // how many records went through and how many were refused.
            let (mut applied, mut failed) = ([0u32; 6], [0u32; 6]);
            for n in 0..3_000u64 {
                let txn = if (n as usize) < journal.len() {
                    journal[n as usize].clone()
                } else {
                    churn_record(&mut rng, &naive, n)
                };
                let kind = match &txn {
                    Txn::Rename { src, .. } if naive.list(src).is_ok() => 0,
                    Txn::Rename { .. } => 1,
                    Txn::Delete { path, .. } if naive.list(path).is_ok_and(|l| !l.is_empty()) => 2,
                    Txn::Delete { .. } => 3,
                    Txn::Create { .. } => 4,
                    _ => 5,
                };
                let want = naive.apply(&txn);
                assert_eq!(live.apply(&txn), want, "case {case}, live, record {n}: {txn:?}");
                let got = replica.apply(&txn);
                assert_eq!(got, want, "case {case}, replay, record {n}: {txn:?}");
                if want.is_ok() {
                    applied[kind] += 1;
                } else {
                    failed[kind] += 1;
                }
                if n % 250 == 0 {
                    assert_eq!(live.fingerprint(), naive.fingerprint(), "case {case} at {n}");
                    assert_eq!(replica.fingerprint(), naive.fingerprint(), "case {case} at {n}");
                }
            }
            assert_eq!(live.fingerprint(), naive.fingerprint(), "case {case}");
            assert_eq!(replica.fingerprint(), naive.fingerprint(), "case {case}");
            assert_eq!(
                (replica.num_files(), replica.num_dirs()),
                (naive.num_files(), naive.num_dirs())
            );
            // The mix went through, and was refused, in every kind.
            assert!(
                applied.iter().chain(&failed[..4]).all(|&k| k > 0),
                "case {case}: applied {applied:?}, failed {failed:?}"
            );
        }
    }

    #[test]
    fn cache_counters_move() {
        let s = ShardedNamespace::new();
        s.mkdir_p("/warm/dir").unwrap();
        s.create("/warm/dir/f", 1).unwrap();
        let before = s.cache_stats();
        for _ in 0..10 {
            s.getfileinfo("/warm/dir/f").unwrap();
        }
        let after = s.cache_stats();
        assert!(after.hits >= before.hits + 10, "expected hits: {before:?} -> {after:?}");
        // A cold deep path walks (miss).
        let _ = s.resolve_path("/warm/dir/unseen");
        assert!(s.cache_stats().misses >= after.misses);
    }
}
