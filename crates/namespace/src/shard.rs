//! A sharded namespace with epoch-snapshot reads.
//!
//! [`NamespaceTree`] is a single mutable structure: one op at a time, reads
//! blocking behind mutations. This module breaks that ceiling for the active
//! server's hot path while keeping the replicated-state contract intact:
//!
//! * **Inode-id sharding.** Inodes live in N power-of-two shards keyed by
//!   `id % N`, each behind its own `RwLock`. An id is an index: the rest of
//!   its low word is the inode's position in its shard's slot table, and its
//!   high word a generation that goes stale when the slot is freed (see
//!   `GEN_SHIFT`), so an inode is reached without hashing and a table is
//!   as long as its shard's peak number of live inodes. Directory entries —
//!   each name inline in its directory's map ([`Name`]), no table of names
//!   beside them — and the parent-directory resolution cache are per-shard
//!   state, so ops on unrelated directories touch disjoint
//!   locks. New *file* ids are allocated from their parent directory's shard
//!   (a create or block op locks exactly one shard); new *directory* ids are
//!   spread by hashing `(parent, name)` so a deep tree doesn't collapse into
//!   the root's shard.
//!
//! * **Epoch-snapshot reads.** Every mutation is stamped from a global
//!   counter and published in stamp order to a `visible` epoch. A reader can
//!   [`pin`] the current epoch and see a point-in-time namespace regardless
//!   of concurrent mutations: mutators that run while a pin is registered
//!   preserve the displaced version of each inode they touch in a per-slot
//!   history chain (copy-on-write at inode granularity). When no pin is
//!   registered — the common case on the hot path — mutations write in
//!   place and the structure behaves like the legacy tree plus a lock.
//!
//! * **Deterministic multi-shard lock order.** Ops that touch several shards
//!   (mkdir, cross-directory file rename) lock them in ascending shard-index
//!   order; structural subtree ops (directory rename, recursive delete) take
//!   every shard — the namespace-level analogue of the paper's "structural
//!   operations are distributed transactions". Path readers never hold two
//!   shard locks at once (each path step locks exactly one shard), and the
//!   two readers that visit the whole namespace — the image encoder and the
//!   delta fold, through [`LockedShards`] — read-lock every shard in the
//!   same ascending order, so neither can deadlock against the writers.
//!
//! * **One descent per directory map.** A mutation resolves without the
//!   write locks (the cache probe or the walk, then for delete and rename
//!   the child's id and kind under a read lock), takes its write locks —
//!   one or two shards held inline, every shard for a subtree op — checks
//!   kinds on the slots, and then touches each directory's map once through
//!   `entry`: create and mkdir insert if vacant, delete removes if the name
//!   still binds the resolved id, rename claims the vacant destination and
//!   removes the matching source (two descents when both are one map),
//!   undoing the claim if the source went stale. The directory is opened for
//!   writing *before* that descent, so an op it refuses or finds stale has
//!   taken a stamp and, under a pin, displaced a copy equal to the newest
//!   version: it publishes the stamp, no reader pinned or not sees a
//!   difference, no inode id is spent, and the copy goes with the next
//!   unpinned write of the slot (see `Slot::open`).
//!
//! ### Pin/mutator protocol
//!
//! The correctness pivot is the race between a mutator deciding "no pins ⇒
//! in-place write is safe" and a reader concurrently registering a pin at an
//! epoch that still needs the displaced version. A `gate: RwLock<()>` closes
//! it: every mutator holds `gate.read()` from before its first write until
//! after it publishes its stamp; a pin registers under `gate.write()`. Pin
//! registration therefore sees a quiescent namespace (`visible` equals the
//! latest allocated stamp) and any mutator that starts afterwards observes
//! the registered pin and copies on write. Unpinning is a plain atomic store
//! — a mutator that still sees a dying pin merely preserves a version nobody
//! reads, which the lazy pruning below reclaims.
//!
//! Version chains are pruned on the next write to a slot once the pins that
//! needed them are gone; deletions performed while a pin was active leave
//! tombstones that each shard sweeps at the start of a later mutation. A
//! slot's index is reused only once it is freed — at the delete when no pin
//! is registered, at the sweep otherwise — so no pinned reader ever finds
//! another inode where the one it pinned was.
//!
//! ### Replay parity
//!
//! Standbys replay journal records through [`ShardedReplaySession`] (the
//! validate-skip fast path, checked against per-record
//! [`NamespaceTree::apply`]), and a junior's image decodes straight into the
//! shards, each inode loaded under its parent where a live create or mkdir
//! would have put it. Either way the [`fingerprint`] is byte-for-byte the
//! legacy tree's over the same history — inode ids may differ (per-shard
//! allocators), but the fingerprint hashes structure, names, and attributes,
//! never ids. The active's checkpoint is [`SnapshotView::encode_image`], the
//! image encoder reading the shards at a pinned epoch, and its bytes are
//! those of the tree's image. Property tests pin all three
//! (`tests/sharded_parity.rs`).
//!
//! [`pin`]: ShardedNamespace::pin
//! [`fingerprint`]: ShardedNamespace::fingerprint

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mams_journal::{Sn, Txn};

use crate::image::{encode_image_with_window, NamespaceImage};
use crate::inode::{child, FileInfo, Inode, InodeId, InodeSource, Name, ROOT_ID};
use crate::partition::fnv1a64;
use crate::path::{self, PathError};
use crate::retry::RetryWindow;
use crate::tree::{NamespaceTree, NsError};

/// Mutation stamp: allocated per mutation, published in order to `visible`.
pub type Stamp = u64;

/// Default shard count (power of two).
pub const DEFAULT_SHARDS: usize = 16;
/// The most shards a namespace can be built with.
pub const MAX_SHARDS: usize = 256;
/// Concurrent snapshot-pin capacity; `pin` waits for a free slot beyond it.
const MAX_PINS: usize = 32;
/// Sentinel for an unoccupied pin slot.
const PIN_EMPTY: u64 = u64::MAX;
/// Per-shard resolution-cache bound, in entries.
const SHARD_CACHE_CAP: usize = 1 << 10;
/// Entries per cache set. A path's hash picks one set; a full set replaces
/// its oldest binding.
const CACHE_WAYS: usize = 4;
const CACHE_SETS: usize = SHARD_CACHE_CAP / CACHE_WAYS;

/// Where an id's generation starts. An id is `generation << GEN_SHIFT |
/// index << log2 N | shard`: the shard in the low bits, so `id & (N - 1)`
/// names it; the index of the inode's slot in that shard's table in the rest
/// of the low word (`32 - log2 N` bits: 2^28 slots a shard at the default 16
/// shards, 2^24 at [`MAX_SHARDS`]); and above them the slot's generation, a
/// `u32` bumped each time the slot is freed. An id whose generation is not
/// its slot's reads as absent, as a removed key would. The generation wraps
/// after 2^32 frees of one index: a stale id could resolve again only if it
/// were held across four billion reuses of its slot, and every holder keeps
/// one for one op, or for a replay session between two records.
const GEN_SHIFT: u32 = 32;

/// One inode's versions. `stamp`/`node` is the newest version; `hist` holds
/// displaced versions (oldest first) and is empty unless mutations ran while
/// a snapshot pin was registered. `node == None` is a tombstone — the inode
/// was deleted at `stamp` but an older version may still be pinned — or a
/// free slot, on its shard's free list. `gen` is the generation of the ids
/// that name this slot now (see [`GEN_SHIFT`]).
#[derive(Debug, Default)]
struct Slot {
    stamp: Stamp,
    gen: u32,
    node: Option<Inode>,
    hist: Vec<(Stamp, Option<Inode>)>,
}

impl Slot {
    /// Newest version (what unpinned readers and mutators see).
    fn latest(&self) -> Option<&Inode> {
        self.node.as_ref()
    }

    /// The version visible at `epoch`, if the inode existed then.
    fn at(&self, epoch: Stamp) -> Option<&Inode> {
        if self.stamp <= epoch {
            return self.node.as_ref();
        }
        self.hist.iter().rev().find(|(s, _)| *s <= epoch).and_then(|(_, n)| n.as_ref())
    }

    /// Version visible at `epoch`, or newest when `epoch` is `None`.
    fn view(&self, epoch: Option<Stamp>) -> Option<&Inode> {
        match epoch {
            None => self.latest(),
            Some(e) => self.at(e),
        }
    }

    /// Open the newest version for writing at `stamp`. `keep` is the oldest
    /// registered pin epoch: when present, the displaced version is pushed
    /// onto the history chain (after pruning what no pin can read any more);
    /// when absent the chain is cleared and the write happens in place.
    /// Idempotent per stamp, so one op may touch a slot twice.
    ///
    /// A directory is opened *before* its one descent says whether the op
    /// goes through, so an op refused there (the name is taken, the
    /// directory is not empty) or found stale has opened the slot and
    /// written nothing: every reader sees what it saw, a pinned one through
    /// a displaced copy equal to the newest version, which the next unpinned
    /// write clears like any other. Such an op publishes its stamp all the
    /// same — a stamp taken and never published would stop `visible` for good.
    fn open(&mut self, stamp: Stamp, keep: Option<Stamp>) -> &mut Option<Inode> {
        if self.stamp == stamp {
            return &mut self.node;
        }
        match keep {
            None => self.hist.clear(),
            Some(w) => {
                // Keep the newest history entry at-or-below the oldest pin
                // (it serves that pin) and everything newer.
                if let Some(pos) = self.hist.iter().rposition(|(s, _)| *s <= w) {
                    self.hist.drain(..pos);
                }
                self.hist.push((self.stamp, self.node.clone()));
            }
        }
        self.stamp = stamp;
        &mut self.node
    }
}

/// Mutable per-shard state, behind the shard's `RwLock`.
#[derive(Debug, Default)]
struct ShardState {
    /// The slot table: id `g << GEN_SHIFT | i << shift | shard` is
    /// `slots[i]` while that slot's generation is `g`.
    slots: Vec<Slot>,
    /// Freed indexes, the last freed reused first.
    free: Vec<u32>,
    /// Tombstoned ids awaiting the no-pins sweep.
    dead: Vec<InodeId>,
    /// This shard's index and log2 N: the fixed fields of its ids.
    shard: u64,
    shift: u32,
}

impl ShardState {
    fn index(&self, id: InodeId) -> usize {
        (id as u32 >> self.shift) as usize
    }

    fn id(&self, index: usize, gen: u32) -> InodeId {
        (gen as u64) << GEN_SHIFT | (index as u64) << self.shift | self.shard
    }

    /// The slot `id` names, unless it was freed since `id` was handed out.
    fn get(&self, id: InodeId) -> Option<&Slot> {
        self.slots.get(self.index(id)).filter(|s| s.gen == (id >> GEN_SHIFT) as u32)
    }

    fn get_mut(&mut self, id: InodeId) -> Option<&mut Slot> {
        let index = self.index(id);
        self.slots.get_mut(index).filter(|s| s.gen == (id >> GEN_SHIFT) as u32)
    }

    /// Whether the newest version of `id` is a directory.
    fn has_live_dir(&self, id: InodeId) -> bool {
        self.get(id).and_then(Slot::latest).is_some_and(Inode::is_dir)
    }

    /// The id this shard's next [`take`](Self::take) hands out. Reading it
    /// takes nothing, so an op refused after it spends no id.
    fn next_id(&self) -> InodeId {
        match self.free.last() {
            Some(&i) => self.id(i as usize, self.slots[i as usize].gen),
            None => self.id(self.slots.len(), 0),
        }
    }

    /// Store `node`, written at `stamp`, under the id
    /// [`next_id`](Self::next_id) named.
    fn take(&mut self, stamp: Stamp, node: Inode) -> InodeId {
        let index = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                assert!(self.slots.len() >> (32 - self.shift) == 0, "shard table full");
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[index];
        (slot.stamp, slot.node) = (stamp, Some(node));
        self.id(index, self.slots[index].gen)
    }

    /// Free the slot of `id` for reuse: every id naming it goes stale.
    fn free(&mut self, id: InodeId) {
        let index = self.index(id);
        let slot = &mut self.slots[index];
        *slot = Slot { gen: slot.gen.wrapping_add(1), ..Slot::default() };
        self.free.push(index as u32);
    }
}

#[derive(Debug)]
struct Shard {
    state: RwLock<ShardState>,
}

/// A directory path hashed once — the hash picks the cache shard and the set
/// inside it — with the cache generation read *before* the path was
/// resolved, so a binding resolved across a subtree move is dead on insert.
#[derive(Clone, Copy)]
struct CacheKey<'p> {
    path: &'p str,
    hash: u64,
    gen: u64,
}

impl CacheKey<'_> {
    fn set(&self) -> std::ops::Range<usize> {
        // The bits just above the shard index (at most 8 bits): FNV-1a
        // carries a path's last characters into its low bits, hardly at all
        // into bits 32–39.
        let first = (self.hash >> 8) as usize % CACHE_SETS * CACHE_WAYS;
        first..first + CACHE_WAYS
    }
}

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

/// One shard of the path → directory-id resolution cache (sharded by path
/// hash, independently of the inode shards): [`CACHE_SETS`] sets of
/// [`CACHE_WAYS`] entries. Only directories are cached, and only by a
/// mutation holding the write lock of the directory's inode shard, having
/// seen the directory live there.
///
/// An entry of the current generation is a live binding. Removing an *empty*
/// directory drops exactly its own key — it has no cached descendants,
/// because every cached descendant is a live directory beneath it — and a
/// subtree move (directory rename, recursive delete of a populated
/// directory) bumps the namespace's generation instead of searching for the
/// descendants, which retires every entry at once. A pinned reader at epoch
/// `E` additionally needs `stamp ≤ E`: the binding has held continuously from
/// the stamp to now, which covers `E`.
struct CacheShard {
    ways: Mutex<Box<[CacheEntry]>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheShard {
    fn new() -> CacheShard {
        CacheShard {
            ways: Mutex::new((0..SHARD_CACHE_CAP).map(|_| CacheEntry::default()).collect()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Probe for `k` at `epoch`. Contended probes count as misses
    /// (`try_lock`): the reader falls back to the walk rather than blocking.
    fn get(&self, k: &CacheKey<'_>, epoch: Option<Stamp>) -> Option<InodeId> {
        let ways = self.ways.try_lock().ok()?;
        let e = ways[k.set()].iter().find(|e| e.holds(k))?;
        epoch.is_none_or(|at| e.stamp <= at).then_some(e.id)
    }

    /// Bind `k → id` as of `stamp`, into a dead way when the set has one and
    /// over its oldest binding otherwise.
    fn put(&self, k: &CacheKey<'_>, id: InodeId, stamp: Stamp) {
        let mut ways = self.ways.lock().expect("cache shard lock poisoned");
        let set = &mut ways[k.set()];
        if let Some(e) = set.iter().find(|e| e.holds(k)) {
            // Keep the older entry: the binding is unchanged and the older
            // stamp serves more pinned epochs.
            debug_assert_eq!(e.id, id, "two live bindings for {}", k.path);
            return;
        }
        let victim = match set.iter().position(|e| e.gen != k.gen) {
            Some(dead) => dead,
            None => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                (0..CACHE_WAYS).min_by_key(|&i| set[i].stamp).expect("CACHE_WAYS > 0")
            }
        };
        set[victim] = CacheEntry { hash: k.hash, gen: k.gen, stamp, id, path: Box::from(k.path) };
    }

    /// Drop the binding for `k`, if cached.
    fn remove(&self, k: &CacheKey<'_>) {
        let mut ways = self.ways.lock().expect("cache shard lock poisoned");
        if let Some(e) = ways[k.set()].iter_mut().find(|e| e.holds(k)) {
            *e = CacheEntry::default();
        }
    }
}

impl std::fmt::Debug for CacheShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheShard")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

/// Resolution-cache counters, summed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Generation bumps: each retired every cached binding at once.
    pub flushes: u64,
    /// Live bindings replaced because their set was full.
    pub evictions: u64,
}

/// The write guards of one mutation, taken in ascending shard order (the
/// deterministic multi-shard lock order). An op on one or two directories
/// holds its guards here, inline; only a subtree op, which takes every
/// shard, allocates for them.
enum Locked<'a> {
    One(usize, RwLockWriteGuard<'a, ShardState>),
    Two([(usize, RwLockWriteGuard<'a, ShardState>); 2]),
    All(Vec<RwLockWriteGuard<'a, ShardState>>),
}

impl Locked<'_> {
    fn get(&mut self, shard: usize) -> &mut ShardState {
        match self {
            Locked::One(k, g) if *k == shard => g,
            Locked::Two([(k, g), _]) if *k == shard => g,
            Locked::Two([_, (k, g)]) if *k == shard => g,
            Locked::All(guards) => &mut guards[shard],
            _ => panic!("op touched shard {shard}, outside its lock set"),
        }
    }
}

/// Every shard read-locked at once, for a reader that visits the whole
/// namespace by inode id: the image encoder at a pinned epoch, the delta
/// fold at the newest state (`epoch: None`, which the held locks keep
/// still). One lock acquisition per shard instead of one per inode; taken in
/// ascending shard order, like the writers' lock sets, so the two cannot
/// deadlock. Mutators wait while it lives — hold it for one pass, not for
/// the life of a pin.
pub struct LockedShards<'a> {
    guards: Box<[RwLockReadGuard<'a, ShardState>]>,
    epoch: Option<Stamp>,
    counts: (u64, u64),
}

impl InodeSource for LockedShards<'_> {
    fn inode(&self, id: InodeId) -> Option<&Inode> {
        // The shard count is a power of two.
        self.guards[(id as usize) & (self.guards.len() - 1)].get(id)?.view(self.epoch)
    }

    fn counts(&self) -> (u64, u64) {
        self.counts
    }
}

/// The sharded, concurrently-usable namespace. All operations take `&self`;
/// the structure is `Sync` and is shared across shard workers and reader
/// threads without external locking.
pub struct ShardedNamespace {
    shards: Box<[Shard]>,
    cache: Box<[CacheShard]>,
    /// Resolution-cache generation (starts at 1): entries of an earlier
    /// generation are dead. Bumped by subtree moves, under every shard lock.
    cache_gen: AtomicU64,
    mask: usize,
    /// Pin/mutator coordination gate (see module docs): mutators hold it
    /// shared across apply+publish, pin registration takes it exclusively.
    gate: RwLock<()>,
    next_stamp: AtomicU64,
    visible: AtomicU64,
    pins_active: AtomicUsize,
    pin_slots: Box<[AtomicU64]>,
    num_files: AtomicU64,
    num_dirs: AtomicU64,
}

impl std::fmt::Debug for ShardedNamespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNamespace")
            .field("shards", &self.shards.len())
            .field("num_files", &self.num_files())
            .field("num_dirs", &self.num_dirs())
            .field("visible", &self.visible.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for ShardedNamespace {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedNamespace {
    /// A namespace containing only the root directory, with
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A namespace with `n` shards (rounded up to a power of two, clamped to
    /// `1..=`[`MAX_SHARDS`]).
    pub fn with_shards(n: usize) -> Self {
        let n = n.clamp(1, MAX_SHARDS).next_power_of_two();
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            let mut st =
                ShardState { shard: k as u64, shift: n.trailing_zeros(), ..ShardState::default() };
            if k == 0 {
                st.take(0, Inode::new_dir()); // ROOT_ID: index 0, generation 0
            }
            shards.push(Shard { state: RwLock::new(st) });
        }
        ShardedNamespace {
            shards: shards.into_boxed_slice(),
            cache: (0..n).map(|_| CacheShard::new()).collect(),
            cache_gen: AtomicU64::new(1),
            mask: n - 1,
            gate: RwLock::new(()),
            next_stamp: AtomicU64::new(0),
            visible: AtomicU64::new(0),
            pins_active: AtomicUsize::new(0),
            pin_slots: (0..MAX_PINS).map(|_| AtomicU64::new(PIN_EMPTY)).collect(),
            num_files: AtomicU64::new(0),
            num_dirs: AtomicU64::new(0),
        }
    }

    /// Build from a legacy tree: a preorder walk of it into
    /// [`load`](Self::load), the image decoder's loader, so the result is
    /// laid out as the decode of the tree's image is. The oracle bridge the
    /// parity suites and `bench_e2e`'s probes use; no server calls it.
    pub fn from_tree(tree: NamespaceTree) -> Self {
        Self::from_tree_with_shards(tree, DEFAULT_SHARDS)
    }

    /// [`from_tree`](Self::from_tree) with an explicit shard count.
    pub fn from_tree_with_shards(tree: NamespaceTree, n: usize) -> Self {
        let mut ns = Self::with_shards(n);
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

    /// Load `node` under the directory `parent` as `name`, where a live
    /// create or mkdir would place it: a file in its parent's shard, a
    /// directory in `dir_home`'s, each through `ShardState::take`. For a
    /// namespace being built before anyone reads it — the image decoder,
    /// [`from_tree`](Self::from_tree) — so no gate, stamp or cache entry:
    /// what it loads is in every epoch, and no table has a hole. A parent
    /// that is not a live directory and a repeated name are refused, as an
    /// attach under the locks refuses them.
    pub(crate) fn load(
        &mut self,
        parent: InodeId,
        name: &str,
        node: Inode,
    ) -> Result<InodeId, NsError> {
        debug_assert!(!matches!(&node, Inode::Directory { children, .. } if !children.is_empty()));
        let is_dir = node.is_dir();
        let home = if is_dir { self.dir_home(parent, name) } else { self.shard_of(parent) };
        let id = self.state_mut(home).next_id();
        let st = self.state_mut(self.shard_of(parent));
        Self::check_parent(st.get(parent), name)?;
        Self::link(Self::open_dir(st, parent, 0, None), name, id, name)?;
        self.state_mut(home).take(0, node);
        let count = if is_dir { &mut self.num_dirs } else { &mut self.num_files };
        *count.get_mut() += 1;
        Ok(id)
    }

    /// Set the root's permission bits while the namespace is being loaded
    /// (see [`load`](Self::load)).
    pub(crate) fn set_root_perm(&mut self, perm: u16) {
        self.state_mut(0).slots[0].node.as_mut().expect("the root is live").set_perm(perm);
    }

    /// Shard `k`'s state, reached through exclusive access: no lock taken.
    fn state_mut(&mut self, k: usize) -> &mut ShardState {
        self.shards[k].state.get_mut().expect("shard lock poisoned")
    }

    /// Flatten the newest versions into a legacy tree (ids are preserved).
    /// The oracle the parity suites and `bench_e2e`'s probes hold
    /// [`SnapshotView::encode_image`] against; the server never calls it.
    pub fn to_tree(&self) -> NamespaceTree {
        let mut inodes = HashMap::with_capacity((self.num_files() + self.num_dirs() + 1) as usize);
        let mut next_id: InodeId = 1;
        for shard in self.shards.iter() {
            let st = shard.state.read().unwrap();
            for (i, slot) in st.slots.iter().enumerate() {
                if let Some(node) = slot.latest() {
                    let id = st.id(i, slot.gen);
                    next_id = next_id.max(id + 1);
                    inodes.insert(id, node.clone());
                }
            }
        }
        NamespaceTree::from_parts(inodes, next_id, self.num_files(), self.num_dirs())
    }

    /// Number of files.
    pub fn num_files(&self) -> u64 {
        self.num_files.load(Ordering::Relaxed)
    }

    /// Number of directories, excluding the root.
    pub fn num_dirs(&self) -> u64 {
        self.num_dirs.load(Ordering::Relaxed)
    }

    /// Displaced versions still chained behind live inodes for pinned
    /// readers. A write with no pin registered clears its slot's chain, so
    /// once every pin is gone this falls to 0 as the inodes are next
    /// written.
    pub fn displaced_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let st = s.state.read().expect("shard lock poisoned");
                st.slots.iter().filter(|s| s.node.is_some()).map(|s| s.hist.len()).sum::<usize>()
            })
            .sum()
    }

    /// Resolution-cache counters summed over shards (`bench_e2e` reports
    /// them as `namespace.cache_hit_ratio`).
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = CacheStats {
            flushes: self.cache_gen.load(Ordering::Relaxed) - 1,
            ..CacheStats::default()
        };
        for c in self.cache.iter() {
            s.hits += c.hits.load(Ordering::Relaxed);
            s.misses += c.misses.load(Ordering::Relaxed);
            s.evictions += c.evictions.load(Ordering::Relaxed);
        }
        s
    }

    /// The shard worker an op on `p` should run on: ops against the same
    /// parent directory map to the same worker, so per-shard journal order
    /// matches per-directory serve order. Purely a scheduling hint — any
    /// assignment is correct.
    pub fn home_shard(&self, p: &str) -> usize {
        let dir = path::parent(p).unwrap_or("/");
        (fnv1a64(dir.as_bytes()) as usize) & self.mask
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    #[inline]
    fn shard_of(&self, id: InodeId) -> usize {
        (id as usize) & self.mask
    }

    /// Target shard for a new directory id: spread by (parent, name) so deep
    /// trees don't pile into one shard. Deterministic, so replicas replaying
    /// the same journal allocate identically.
    fn dir_home(&self, parent: InodeId, name: &str) -> usize {
        let mut h = fnv1a64(name.as_bytes());
        h ^= parent.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h as usize) & self.mask
    }

    fn alloc_stamp(&self) -> Stamp {
        self.next_stamp.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publish `s` once every earlier stamp is visible. Called after the
    /// shard locks are dropped but while the gate is still held shared.
    fn publish(&self, s: Stamp) {
        let mut spins = 0u32;
        while self.visible.load(Ordering::Acquire) != s - 1 {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.visible.store(s, Ordering::Release);
    }

    /// Oldest registered pin epoch, or `None` when no snapshot is pinned
    /// (the in-place fast path).
    fn watermark(&self) -> Option<Stamp> {
        if self.pins_active.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut w = None;
        for s in self.pin_slots.iter() {
            let v = s.load(Ordering::Acquire);
            if v != PIN_EMPTY {
                w = Some(w.map_or(v, |x: u64| x.min(v)));
            }
        }
        w
    }

    /// Free tombstoned slots once no pin can see them. Runs at the start
    /// of mutations on shards that accumulated tombstones.
    fn sweep(&self, st: &mut ShardState) {
        if st.dead.is_empty() || self.pins_active.load(Ordering::Acquire) != 0 {
            return;
        }
        while let Some(id) = st.dead.pop() {
            if st.get(id).is_some_and(|s| s.node.is_none()) {
                st.free(id);
            }
        }
    }

    /// Write-lock shards `a` and `b` — one lock when they are the same.
    fn lock_set(&self, a: usize, b: usize) -> Locked<'_> {
        let lock = |k: usize| (k, self.shards[k].state.write().expect("shard lock poisoned"));
        let (lo, hi) = (a.min(b), a.max(b));
        let first = lock(lo);
        if lo == hi {
            Locked::One(first.0, first.1)
        } else {
            Locked::Two([first, lock(hi)])
        }
    }

    fn lock_all(&self) -> Locked<'_> {
        Locked::All(
            self.shards.iter().map(|s| s.state.write().expect("shard lock poisoned")).collect(),
        )
    }

    /// Read-lock every shard for a by-id reader at `epoch` (newest when
    /// `None`); see [`LockedShards`]. The counts are the newest ones — a
    /// sizing hint, exact when nothing has mutated since `epoch`.
    pub(crate) fn lock_shards(&self, epoch: Option<Stamp>) -> LockedShards<'_> {
        LockedShards {
            guards: self
                .shards
                .iter()
                .map(|s| s.state.read().expect("shard lock poisoned"))
                .collect(),
            epoch,
            counts: (self.num_files(), self.num_dirs()),
        }
    }

    /// Hash `dir` for the cache and read the generation a binding resolved
    /// from here on may be inserted under. Take the key *before* resolving.
    fn cache_key<'p>(&self, dir: &'p str) -> CacheKey<'p> {
        CacheKey {
            path: dir,
            hash: fnv1a64(dir.as_bytes()),
            gen: self.cache_gen.load(Ordering::Acquire),
        }
    }

    fn cache_shard(&self, k: &CacheKey<'_>) -> &CacheShard {
        &self.cache[(k.hash as usize) & self.mask]
    }

    /// Record `k → id`. Mutation paths only, while holding the write lock of
    /// `id`'s inode shard and having seen `id` live there: removing or moving
    /// a directory takes that lock too, so a binding is never inserted behind
    /// its own invalidation.
    fn cache_put(&self, k: &CacheKey<'_>, id: InodeId, stamp: Stamp) {
        // A key taken before a flush would be dead on arrival.
        if k.gen == self.cache_gen.load(Ordering::Acquire) {
            self.cache_shard(k).put(k, id, stamp);
        }
    }

    /// An empty directory at `p` was removed: drop its key. Nothing is cached
    /// beneath it (see [`CacheShard`]).
    fn cache_remove(&self, p: &str) {
        let k = self.cache_key(p);
        self.cache_shard(&k).remove(&k);
    }

    /// A subtree moved or disappeared: retire every cached binding. Called
    /// under every shard lock, so no insert is in flight.
    fn cache_flush(&self) {
        self.cache_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Read the version of `id` visible at `epoch` (newest when `None`).
    fn with_node<R>(
        &self,
        id: InodeId,
        epoch: Option<Stamp>,
        f: impl FnOnce(&Inode) -> R,
    ) -> Option<R> {
        let st = self.shards[self.shard_of(id)].state.read().unwrap();
        st.get(id).and_then(|s| s.view(epoch)).map(f)
    }

    /// From-root component walk at `epoch`. One shard read lock per step —
    /// readers never hold two shard locks at once.
    fn walk(&self, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            let st = self.shards[self.shard_of(cur)].state.read().unwrap();
            match st.get(cur)?.view(epoch)? {
                Inode::Directory { children, .. } => cur = child(children, comp)?,
                Inode::File { .. } => return None,
            }
        }
        Some(cur)
    }

    /// Resolve the validated directory path `dir` at `epoch`: one hash, one
    /// cache probe, and the walk from the root when that misses. A walked
    /// answer comes back with its key, for the mutation that goes on to lock
    /// the directory's shard to bind (see [`cache_put`](Self::cache_put)).
    /// Maintains the hit/miss counters; the root costs no lookup and counts
    /// as neither.
    fn lookup_dir<'p>(
        &self,
        dir: &'p str,
        epoch: Option<Stamp>,
    ) -> Option<(InodeId, Option<CacheKey<'p>>)> {
        if dir == "/" {
            return Some((ROOT_ID, None));
        }
        let k = self.cache_key(dir);
        let cs = self.cache_shard(&k);
        if let Some(id) = cs.get(&k, epoch) {
            cs.hits.fetch_add(1, Ordering::Relaxed);
            return Some((id, None));
        }
        cs.misses.fetch_add(1, Ordering::Relaxed);
        self.walk(dir, epoch).map(|id| (id, Some(k)))
    }

    /// The child `name` of directory `dir_id` at `epoch`.
    fn child_of(&self, dir_id: InodeId, name: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        self.with_node(dir_id, epoch, |n| match n {
            Inode::Directory { children, .. } => child(children, name),
            Inode::File { .. } => None,
        })
        .flatten()
    }

    /// The newest child `name` of directory `dir_id` and whether it is a
    /// directory — what delete and rename choose their lock set from. One
    /// read lock when the child lives in its parent's shard (every file
    /// does), as in [`getfileinfo`](Self::getfileinfo).
    fn child_kind(&self, dir_id: InodeId, name: &str) -> Option<(InodeId, bool)> {
        let pk = self.shard_of(dir_id);
        let st = self.shards[pk].state.read().expect("shard lock poisoned");
        let Inode::Directory { children, .. } = st.get(dir_id)?.latest()? else {
            return None;
        };
        let id = child(children, name)?;
        if self.shard_of(id) == pk {
            return Some((id, st.get(id)?.latest()?.is_dir()));
        }
        drop(st);
        Some((id, self.with_node(id, None, Inode::is_dir)?))
    }

    /// Resolve a validated path at `epoch` through its parent directory's
    /// cache entry — directories are the only cached population, so the full
    /// path is never probed.
    fn resolve(&self, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        let Some((dir, name)) = path::split(p) else { return Some(ROOT_ID) };
        let (pid, _) = self.lookup_dir(dir, epoch)?;
        self.child_of(pid, name, epoch)
    }

    /// Classify a failed parent resolution the way the legacy tree does:
    /// a file somewhere along the chain is `ParentNotDirectory`, anything
    /// else `ParentNotFound`.
    fn parent_missing_error(&self, p: &str, parent: &str, epoch: Option<Stamp>) -> NsError {
        if self.chain_has_file(parent, epoch) {
            NsError::ParentNotDirectory(p.to_string())
        } else {
            NsError::ParentNotFound(p.to_string())
        }
    }

    fn chain_has_file(&self, p: &str, epoch: Option<Stamp>) -> bool {
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            let st = self.shards[self.shard_of(cur)].state.read().unwrap();
            match st.get(cur).and_then(|s| s.view(epoch)) {
                Some(Inode::Directory { children, .. }) => match child(children, comp) {
                    Some(id) => cur = id,
                    None => return false,
                },
                Some(Inode::File { .. }) => return true,
                None => return false,
            }
        }
        self.with_node(cur, epoch, Inode::is_file).unwrap_or(false)
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
    // Reads (newest-version path; snapshot reads live on SnapshotView)
    // ------------------------------------------------------------------

    /// `getfileinfo`: read-only metadata lookup against the newest published
    /// state. When the target is co-located in its parent's shard (the
    /// file-create layout), the whole read is one cache probe plus one shard
    /// read lock.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let missing = || NsError::NotFound(p.to_string());
        let Some((dir, name)) = path::split(p) else {
            return self.with_node(ROOT_ID, None, |n| Self::info_of(p, n)).ok_or_else(missing);
        };
        let (pid, _) = self.lookup_dir(dir, None).ok_or_else(missing)?;
        let pk = self.shard_of(pid);
        let st = self.shards[pk].state.read().unwrap();
        let id = match st.get(pid).and_then(Slot::latest) {
            Some(Inode::Directory { children, .. }) => child(children, name).ok_or_else(missing)?,
            _ => return Err(missing()),
        };
        if self.shard_of(id) == pk {
            return st
                .get(id)
                .and_then(Slot::latest)
                .map(|n| Self::info_of(p, n))
                .ok_or_else(missing);
        }
        drop(st);
        self.with_node(id, None, |n| Self::info_of(p, n)).ok_or_else(missing)
    }

    /// List child names of a directory (sorted), newest state.
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        path::validate(p)?;
        let id = self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.with_node(id, None, |n| match n {
            Inode::Directory { children, .. } => {
                Ok(children.keys().map(|k| k.as_str().to_owned()).collect())
            }
            Inode::File { .. } => Err(NsError::IsFile(p.to_string())),
        })
        .ok_or_else(|| NsError::NotFound(p.to_string()))?
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
        self.walk(p, None)
    }

    /// Whether a path exists in the newest state.
    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.resolve(p, None).is_some()
    }

    // ------------------------------------------------------------------
    // Snapshot pinning
    // ------------------------------------------------------------------

    /// Pin the current epoch: the returned view reads a frozen namespace
    /// while mutations proceed underneath. Registration excludes in-flight
    /// mutators via the gate (see module docs); the view itself never blocks
    /// mutators and mutators never block it.
    pub fn pin(&self) -> SnapshotView<'_> {
        let _g = self.gate.write().unwrap();
        let slot = loop {
            match self.pin_slots.iter().position(|s| s.load(Ordering::Acquire) == PIN_EMPTY) {
                Some(i) => break i,
                // All pin slots taken: wait for an unpin (which does not
                // need the gate, so progress is guaranteed).
                None => std::thread::yield_now(),
            }
        };
        let epoch = self.visible.load(Ordering::Acquire);
        self.pin_slots[slot].store(epoch, Ordering::SeqCst);
        self.pins_active.fetch_add(1, Ordering::SeqCst);
        SnapshotView { ns: self, epoch, slot }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// `create`: make an empty file. The new id comes from the parent's
    /// shard, so the op locks exactly one shard.
    pub fn create(&self, p: &str, replication: u8) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        // Bare lookup for the candidate parent id; its kind (and the legacy
        // error precedence) is classified under the write lock, saving a
        // separate read-locked kind check per create.
        let (pid, bind) =
            self.lookup_dir(dir, None).ok_or_else(|| self.parent_missing_error(p, dir, None))?;
        self.attach_file(pid, name, replication, p, bind)?;
        Ok(FileInfo::new_file(p, replication))
    }

    /// `mkdir`: make a directory (parent must exist). The new id is spread
    /// across shards, so this locks the parent's shard and the new id's.
    pub fn mkdir(&self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        let new = self.cache_key(p);
        let (pid, bind) =
            self.lookup_dir(dir, None).ok_or_else(|| self.parent_missing_error(p, dir, None))?;
        self.attach_dir(pid, name, p, bind, new).map(|_| ())
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
    /// Returns `(files_removed, dirs_removed)`. Directory deletion takes
    /// every shard (the subtree may live anywhere); file deletion locks at
    /// most two.
    pub fn delete(&self, p: &str, recursive: bool) -> Result<(u64, u64), NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        let missing = || NsError::NotFound(p.to_string());
        loop {
            let (pid, bind) = self.lookup_dir(dir, None).ok_or_else(missing)?;
            let (id, is_dir) = self.child_kind(pid, name).ok_or_else(missing)?;
            let _gate = self.gate.read().unwrap();
            let (pk, ck) = (self.shard_of(pid), self.shard_of(id));
            let mut locked = if is_dir { self.lock_all() } else { self.lock_set(pk, ck) };
            // A concurrent structural op may have run since the unlocked
            // resolution: the child must still be of the kind the lock set
            // was chosen for, and the parent a live directory.
            let empty = match locked.get(ck).get(id).and_then(Slot::latest) {
                Some(Inode::Directory { children, .. }) if is_dir => children.is_empty(),
                Some(Inode::File { .. }) if !is_dir => true,
                _ => continue,
            };
            if !locked.get(pk).has_live_dir(pid) {
                continue;
            }
            let keep = self.watermark();
            let s = self.alloc_stamp();
            let outcome = 'locked: {
                // Whether the parent still binds `name` to `id` is learnt by
                // unlinking it: one descent of the parent's map.
                let children = Self::open_dir(locked.get(pk), pid, s, keep);
                let Entry::Occupied(bound) = children.entry(Name::from(name)) else {
                    break 'locked None;
                };
                if *bound.get() != id {
                    break 'locked None;
                }
                if is_dir && !empty && !recursive {
                    break 'locked Some(Err(NsError::NotEmpty(p.to_string())));
                }
                bound.remove();
                let (files, dirs) = if is_dir {
                    self.drop_subtree(&mut locked, id, s, keep)
                } else {
                    Self::bury(locked.get(ck), id, s, keep);
                    (1, 0)
                };
                // Files are never cached; an empty directory is cached under
                // its own key at most; a populated one takes its subtree
                // with it.
                if is_dir && empty {
                    self.cache_remove(p);
                } else if is_dir {
                    self.cache_flush();
                }
                if let Some(k) = bind {
                    self.cache_put(&k, pid, s);
                }
                self.num_files.fetch_sub(files, Ordering::Relaxed);
                self.num_dirs.fetch_sub(dirs, Ordering::Relaxed);
                Some(Ok((files, dirs)))
            };
            drop(locked);
            self.publish(s);
            if let Some(done) = outcome {
                return done;
            }
        }
    }

    /// `rename`: move `src` to `dst` (which must not exist). File renames
    /// lock the two parents' shards; directory renames take every shard
    /// (the subtree's cached paths are retired with the cache generation).
    pub fn rename(&self, src: &str, dst: &str) -> Result<(), NsError> {
        self.rename_entry(src, dst).map(|_moved_dir| ())
    }

    /// [`rename`](Self::rename), answering whether what moved is a directory
    /// (the replay session keeps its directory handle across a file's move).
    fn rename_entry(&self, src: &str, dst: &str) -> Result<bool, NsError> {
        path::validate(src)?;
        path::validate(dst)?;
        let (Some((src_dir, src_name)), Some((dst_dir, dst_name))) =
            (path::split(src), path::split(dst))
        else {
            return Err(NsError::RootImmutable);
        };
        if src == dst {
            return Err(NsError::AlreadyExists(dst.to_string()));
        }
        if path::is_strict_descendant(dst, src) {
            return Err(NsError::RenameIntoSelf { src: src.to_string(), dst: dst.to_string() });
        }
        let missing = || NsError::NotFound(src.to_string());
        loop {
            let (src_parent, src_bind) = self.lookup_dir(src_dir, None).ok_or_else(missing)?;
            let (src_id, src_is_dir) = self.child_kind(src_parent, src_name).ok_or_else(missing)?;
            let (dst_parent, dst_bind) = if dst_dir == src_dir {
                (src_parent, None)
            } else {
                self.lookup_dir(dst_dir, None)
                    .ok_or_else(|| self.parent_missing_error(dst, dst_dir, None))?
            };
            // Unlocked classification of the destination, in the legacy
            // tree's error order; the locks below revalidate the clean case.
            match self.with_node(dst_parent, None, |n| match n {
                Inode::Directory { children, .. } => Some(child(children, dst_name).is_some()),
                Inode::File { .. } => None,
            }) {
                Some(Some(false)) => {}
                Some(Some(true)) => return Err(NsError::AlreadyExists(dst.to_string())),
                Some(None) => return Err(NsError::ParentNotDirectory(dst.to_string())),
                None => return Err(NsError::ParentNotFound(dst.to_string())),
            }
            let _gate = self.gate.read().unwrap();
            let (sk, dk) = (self.shard_of(src_parent), self.shard_of(dst_parent));
            let mut locked = if src_is_dir { self.lock_all() } else { self.lock_set(sk, dk) };
            if !locked.get(sk).has_live_dir(src_parent) || !locked.get(dk).has_live_dir(dst_parent)
            {
                continue;
            }
            let keep = self.watermark();
            let s = self.alloc_stamp();
            let moved = 'locked: {
                // Claim the destination, which shows it vacant…
                let Entry::Vacant(claim) =
                    Self::open_dir(locked.get(dk), dst_parent, s, keep).entry(Name::from(dst_name))
                else {
                    break 'locked false;
                };
                claim.insert(src_id);
                // …and remove the source, which shows it is still what was
                // resolved. One descent of each map; two of a shared one.
                let unlinked = match Self::open_dir(locked.get(sk), src_parent, s, keep)
                    .entry(Name::from(src_name))
                {
                    Entry::Occupied(bound) if *bound.get() == src_id => {
                        bound.remove();
                        true
                    }
                    _ => false,
                };
                if !unlinked {
                    Self::open_dir(locked.get(dk), dst_parent, s, keep).remove(dst_name.as_bytes());
                    break 'locked false;
                }
                if src_is_dir {
                    // Every cached path at or under `src` now points
                    // somewhere else (or nowhere).
                    self.cache_flush();
                }
                for (bind, parent) in [(src_bind, src_parent), (dst_bind, dst_parent)] {
                    if let Some(k) = bind {
                        self.cache_put(&k, parent, s);
                    }
                }
                true
            };
            drop(locked);
            self.publish(s);
            if moved {
                return Ok(src_is_dir);
            }
        }
    }

    /// Shared frame for the single-inode file mutations (`add_block`,
    /// `close_file`, `set_perm`): resolve, then mutate by id.
    fn mutate_node(
        &self,
        p: &str,
        f: impl Fn(&mut Inode, &str) -> Result<(), NsError>,
    ) -> Result<(), NsError> {
        path::validate(p)?;
        let id = self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.mutate_by_id(id, p, f)
    }

    /// Append a block to an unsealed file.
    pub fn add_block(&self, p: &str, block_id: u64) -> Result<(), NsError> {
        self.mutate_node(p, |node, p| match node {
            Inode::File { blocks, sealed, .. } => {
                if *sealed {
                    return Err(NsError::FileSealed(p.to_string()));
                }
                blocks.push(block_id);
                Ok(())
            }
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        })
    }

    /// Seal a file. Idempotent.
    pub fn close_file(&self, p: &str) -> Result<(), NsError> {
        self.mutate_node(p, |node, p| match node {
            Inode::File { sealed, .. } => {
                *sealed = true;
                Ok(())
            }
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        })
    }

    /// Change permission bits (files, directories, and the root).
    pub fn set_perm(&self, p: &str, perm: u16) -> Result<(), NsError> {
        self.mutate_node(p, |node, _| {
            node.set_perm(perm);
            Ok(())
        })
    }

    /// Apply a journalled transaction (the naive replay path; standbys use
    /// [`ShardedReplaySession`]).
    pub fn apply(&self, txn: &Txn) -> Result<(), NsError> {
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

    /// Deterministic structural fingerprint, byte-for-byte identical to
    /// [`NamespaceTree::fingerprint`] over the same namespace (inode ids are
    /// not hashed, so per-shard allocation does not affect it).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_at(None)
    }

    fn fingerprint_at(&self, epoch: Option<Stamp>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        let mut stack: Vec<(InodeId, u32)> = vec![(ROOT_ID, 0)];
        while let Some((id, depth)) = stack.pop() {
            mix(&depth.to_le_bytes());
            let st = self.shards[self.shard_of(id)].state.read().unwrap();
            match st.get(id).and_then(|s| s.view(epoch)) {
                Some(Inode::Directory { children, perm }) => {
                    mix(b"D");
                    mix(&perm.to_le_bytes());
                    for (name, child) in children.iter().rev() {
                        mix(name.as_bytes());
                        stack.push((*child, depth + 1));
                    }
                }
                Some(Inode::File { blocks, replication, sealed, perm }) => {
                    mix(&[b'F', *replication, *sealed as u8]);
                    mix(&perm.to_le_bytes());
                    for b in blocks {
                        mix(&b.to_le_bytes());
                    }
                }
                None => {
                    // Unreachable in a quiescent namespace; a concurrent
                    // delete between parent visit and child visit lands
                    // here. Mix nothing: the caller wanted a point-in-time
                    // fingerprint and should have pinned first.
                }
            }
        }
        h
    }

    /// Fingerprint of the directory skeleton alone: every directory's path
    /// and permission, files ignored, summed so that neither creation order
    /// nor inode ids show. Replica groups partition files but run every
    /// structural operation, so at quiescence all groups report one value.
    pub fn skeleton_fingerprint(&self) -> u64 {
        let mut sum = 0u64;
        let mut stack: Vec<(InodeId, String)> = vec![(ROOT_ID, String::new())];
        while let Some((id, dir)) = stack.pop() {
            let st = self.shards[self.shard_of(id)].state.read().unwrap();
            if let Some(Inode::Directory { children, perm }) = st.get(id).and_then(Slot::latest) {
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
/// concurrent mutations; dropping the view unpins the epoch and lets the
/// preserved versions be reclaimed.
pub struct SnapshotView<'a> {
    ns: &'a ShardedNamespace,
    epoch: Stamp,
    slot: usize,
}

impl Drop for SnapshotView<'_> {
    fn drop(&mut self) {
        self.ns.pin_slots[self.slot].store(PIN_EMPTY, Ordering::SeqCst);
        self.ns.pins_active.fetch_sub(1, Ordering::SeqCst);
    }
}

impl SnapshotView<'_> {
    /// The pinned epoch (the stamp of the last mutation this view sees).
    pub fn epoch(&self) -> Stamp {
        self.epoch
    }

    /// `getfileinfo` against the pinned epoch.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let e = Some(self.epoch);
        let id = self.ns.resolve(p, e).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.ns
            .with_node(id, e, |n| ShardedNamespace::info_of(p, n))
            .ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    /// `list` against the pinned epoch.
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        path::validate(p)?;
        let e = Some(self.epoch);
        let id = self.ns.resolve(p, e).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.ns
            .with_node(id, e, |n| match n {
                Inode::Directory { children, .. } => {
                    Ok(children.keys().map(|k| k.as_str().to_owned()).collect())
                }
                Inode::File { .. } => Err(NsError::IsFile(p.to_string())),
            })
            .ok_or_else(|| NsError::NotFound(p.to_string()))?
    }

    /// Resolve a path at the pinned epoch.
    pub fn resolve_path(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.ns.resolve(p, Some(self.epoch))
    }

    /// Whether a path exists at the pinned epoch.
    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.ns.resolve(p, Some(self.epoch)).is_some()
    }

    /// Structural fingerprint of the pinned state.
    pub fn fingerprint(&self) -> u64 {
        self.ns.fingerprint_at(Some(self.epoch))
    }

    /// The image of the pinned state, checkpointed at `checkpoint_sn` (the
    /// journal position the caller knows the pin to reflect) and carrying
    /// `window`: encoded straight from the shards, byte for byte what
    /// [`encode_image_with_window`] makes of a [`NamespaceTree`] holding the
    /// same namespace. Shard locks are held for the encode only, so a pin
    /// kept across mutations yields the same image afterwards.
    pub fn encode_image(&self, checkpoint_sn: Sn, window: &RetryWindow) -> NamespaceImage {
        encode_image_with_window(&self.ns.lock_shards(Some(self.epoch)), checkpoint_sn, window)
    }
}

/// Resolution-skipping journal replay for the sharded namespace.
///
/// Journalled records were fully validated by the active before they were
/// logged, so a replica replaying them can skip `path::validate` and most
/// of the resolution work a per-record [`NamespaceTree::apply`] does: the
/// last-resolved parent directory and last-touched node are remembered
/// across records (journals have heavy directory locality, and
/// `Create f → AddBlock f → CloseFile f` runs are ubiquitous). A `Delete` or
/// `Rename` drops the node handle, and the directory handle too when what
/// went was a directory (or the record failed); an external
/// [`reset`](Self::reset) drops both. Success/failure agrees with the naive apply
/// record for record; error *kinds* can differ on malformed records.
#[derive(Debug, Default)]
pub struct ShardedReplaySession {
    dir: String,
    dir_id: InodeId,
    dir_valid: bool,
    node: String,
    node_id: InodeId,
    node_valid: bool,
}

impl ShardedReplaySession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the cached handles (image install, state reset, or a stint as
    /// active mutating the namespace through other paths).
    pub fn reset(&mut self) {
        self.dir_valid = false;
        self.node_valid = false;
    }

    /// Apply one journalled record via the fast path.
    pub fn apply(&mut self, ns: &ShardedNamespace, txn: &Txn) -> Result<(), NsError> {
        match txn {
            Txn::Create { path, replication } => {
                let (pid, name, bind) = self.parent_of(ns, path)?;
                let id = ns.attach_file(pid, name, *replication, name, bind)?;
                self.remember_node(path, id);
                Ok(())
            }
            Txn::Mkdir { path } => {
                let new = ns.cache_key(path);
                let (pid, name, bind) = self.parent_of(ns, path)?;
                let id = ns.attach_dir(pid, name, name, bind, new)?;
                self.remember_dir(path, id);
                Ok(())
            }
            Txn::Delete { path, recursive } => {
                let removed = ns.delete(path, *recursive);
                self.forget(!matches!(removed, Ok((_, 0))));
                removed.map(|_| ())
            }
            Txn::Rename { src, dst } => {
                let moved_dir = ns.rename_entry(src, dst);
                self.forget(!matches!(moved_dir, Ok(false)));
                moved_dir.map(|_| ())
            }
            Txn::AddBlock { path, block_id, .. } => {
                let id = self.resolve_node(ns, path)?;
                ns.mutate_by_id(id, path, |node, p| match node {
                    Inode::File { blocks, sealed, .. } => {
                        if *sealed {
                            return Err(NsError::FileSealed(p.to_string()));
                        }
                        blocks.push(*block_id);
                        Ok(())
                    }
                    Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
                })
            }
            Txn::CloseFile { path } => {
                let id = self.resolve_node(ns, path)?;
                ns.mutate_by_id(id, path, |node, p| match node {
                    Inode::File { sealed, .. } => {
                        *sealed = true;
                        Ok(())
                    }
                    Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
                })
            }
            Txn::SetPerm { path, perm } => {
                let id = self.resolve_node(ns, path)?;
                ns.mutate_by_id(id, path, |node, _| {
                    node.set_perm(*perm);
                    Ok(())
                })
            }
        }
    }

    /// A record removed or moved something. Only a directory's going can
    /// leave the directory handle naming the wrong inode; a file's takes the
    /// node handle alone.
    fn forget(&mut self, maybe_dir: bool) {
        self.node_valid = false;
        self.dir_valid &= !maybe_dir;
    }

    fn remember_dir(&mut self, path: &str, id: InodeId) {
        self.dir.clear();
        self.dir.push_str(path);
        self.dir_id = id;
        self.dir_valid = true;
    }

    fn remember_node(&mut self, path: &str, id: InodeId) {
        self.node.clear();
        self.node.push_str(path);
        self.node_id = id;
        self.node_valid = true;
    }

    /// The parent directory of `path`, the child's name, and — when the
    /// namespace had to walk for it — the key the caller's attach binds it
    /// under, so later records (and other sessions) hit the namespace's
    /// resolution cache.
    fn parent_of<'p>(
        &mut self,
        ns: &ShardedNamespace,
        path: &'p str,
    ) -> Result<(InodeId, &'p str, Option<CacheKey<'p>>), NsError> {
        let (dir, name) = path::split(path).ok_or(NsError::RootImmutable)?;
        if name.is_empty() {
            return Err(NsError::Invalid(PathError(format!("{path:?} has a trailing slash"))));
        }
        if self.dir_valid && self.dir == dir {
            return Ok((self.dir_id, name, None));
        }
        let (pid, bind) =
            ns.lookup_dir(dir, None).ok_or_else(|| NsError::ParentNotFound(path.to_string()))?;
        self.remember_dir(dir, pid);
        Ok((pid, name, bind))
    }

    fn resolve_node(&mut self, ns: &ShardedNamespace, path: &str) -> Result<InodeId, NsError> {
        if path == "/" {
            return Ok(ROOT_ID);
        }
        if self.node_valid && self.node == path {
            return Ok(self.node_id);
        }
        if self.dir_valid && self.dir == path {
            return Ok(self.dir_id);
        }
        let (pid, name, _) = self.parent_of(ns, path)?;
        let id = ns.child_of(pid, name, None).ok_or_else(|| NsError::NotFound(path.to_string()))?;
        self.remember_node(path, id);
        Ok(id)
    }
}

impl ShardedNamespace {
    /// Attach a new file under directory `parent` — the body of `create`, and
    /// the replay path's whole create. Errors name `what`: the path on the
    /// live path, the bare name on replay, as the legacy tree's do. `bind` is
    /// the parent's cache key when its lookup walked.
    fn attach_file(
        &self,
        parent: InodeId,
        name: &str,
        replication: u8,
        what: &str,
        bind: Option<CacheKey<'_>>,
    ) -> Result<InodeId, NsError> {
        let _gate = self.gate.read().unwrap();
        let mut st = self.shards[self.shard_of(parent)].state.write().unwrap();
        self.sweep(&mut st);
        Self::check_parent(st.get(parent), what)?;
        let keep = self.watermark();
        let s = self.alloc_stamp();
        // The id the file gets if the name is free: a refused op takes none.
        let id = st.next_id();
        let linked = Self::link(Self::open_dir(&mut st, parent, s, keep), name, id, what);
        if linked.is_ok() {
            st.take(s, Inode::new_file(replication));
            if let Some(k) = bind {
                self.cache_put(&k, parent, s);
            }
            self.num_files.fetch_add(1, Ordering::Relaxed);
        }
        drop(st);
        self.publish(s);
        linked.map(|()| id)
    }

    /// Attach a new directory under `parent` (see
    /// [`attach_file`](Self::attach_file)), and cache it under `new`, the key
    /// of its own path.
    fn attach_dir(
        &self,
        parent: InodeId,
        name: &str,
        what: &str,
        bind: Option<CacheKey<'_>>,
        new: CacheKey<'_>,
    ) -> Result<InodeId, NsError> {
        let _gate = self.gate.read().unwrap();
        let pk = self.shard_of(parent);
        let tk = self.dir_home(parent, name);
        let mut locked = self.lock_set(pk, tk);
        self.sweep(locked.get(pk));
        Self::check_parent(locked.get(pk).get(parent), what)?;
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let id = locked.get(tk).next_id();
        let linked = Self::link(Self::open_dir(locked.get(pk), parent, s, keep), name, id, what);
        if linked.is_ok() {
            locked.get(tk).take(s, Inode::new_dir());
            if let Some(k) = bind {
                self.cache_put(&k, parent, s);
            }
            self.cache_put(&new, id, s);
            self.num_dirs.fetch_add(1, Ordering::Relaxed);
        }
        drop(locked);
        self.publish(s);
        linked.map(|()| id)
    }

    /// The legacy tree's classification of an attach under `parent`, from
    /// the slot alone; whether the name is free is [`link`](Self::link)'s.
    fn check_parent(parent: Option<&Slot>, what: &str) -> Result<(), NsError> {
        match parent.and_then(Slot::latest) {
            Some(Inode::Directory { .. }) => Ok(()),
            Some(Inode::File { .. }) => Err(NsError::ParentNotDirectory(what.to_string())),
            None => Err(NsError::ParentNotFound(what.to_string())),
        }
    }

    /// Open the entries of `dir` for writing at `stamp`. The caller has seen
    /// it a live directory under the write lock it still holds.
    fn open_dir(
        st: &mut ShardState,
        dir: InodeId,
        stamp: Stamp,
        keep: Option<Stamp>,
    ) -> &mut BTreeMap<Name, InodeId> {
        match st.get_mut(dir).and_then(|slot| slot.open(stamp, keep).as_mut()) {
            Some(Inode::Directory { children, .. }) => children,
            _ => unreachable!("inode {dir} was a live directory under this lock"),
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

    /// Drop the unlinked directory `root` and everything under it, every
    /// shard being locked; `(files, directories)` dropped.
    fn drop_subtree(
        &self,
        locked: &mut Locked<'_>,
        root: InodeId,
        stamp: Stamp,
        keep: Option<Stamp>,
    ) -> (u64, u64) {
        let (mut files, mut dirs) = (0, 0);
        let mut stack = vec![root];
        while let Some(cur) = stack.pop() {
            let st = locked.get(self.shard_of(cur));
            match st.get(cur).and_then(Slot::latest) {
                Some(Inode::Directory { children, .. }) => {
                    dirs += 1;
                    stack.extend(children.values().copied());
                }
                Some(Inode::File { .. }) => files += 1,
                None => continue,
            }
            Self::bury(st, cur, stamp, keep);
        }
        (files, dirs)
    }

    /// Drop the deleted inode `id`: free its slot, or — while a pin may
    /// still read it — leave a tombstone for the sweep to free.
    fn bury(st: &mut ShardState, id: InodeId, stamp: Stamp, keep: Option<Stamp>) {
        if keep.is_none() {
            st.free(id);
        } else {
            *st.get_mut(id).expect("seen live under this lock").open(stamp, keep) = None;
            st.dead.push(id);
        }
    }

    /// Mutate the node `id`, which the caller resolved from `p`: lock one
    /// shard, validate, mutate at a fresh stamp. A missing slot — freed, or
    /// reused under a newer generation — means the resolution went stale
    /// and maps to NotFound, matching what a fresh one would report.
    fn mutate_by_id(
        &self,
        id: InodeId,
        p: &str,
        f: impl Fn(&mut Inode, &str) -> Result<(), NsError>,
    ) -> Result<(), NsError> {
        let _gate = self.gate.read().unwrap();
        let mut st = self.shards[self.shard_of(id)].state.write().unwrap();
        self.sweep(&mut st);
        match st.get(id).and_then(Slot::latest) {
            Some(node) => {
                let mut probe = node.clone();
                f(&mut probe, p)?;
            }
            None => return Err(NsError::NotFound(p.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let node = st.get_mut(id).expect("checked above").open(s, keep);
        f(node.as_mut().expect("latest version exists"), p).expect("validated above");
        drop(st);
        self.publish(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::DEFAULT_PERM;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn both() -> (NamespaceTree, ShardedNamespace) {
        (NamespaceTree::new(), ShardedNamespace::with_shards(8))
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
            (t.rename("/a", "/a/evil").map(|_| ()), s.rename("/a", "/a/evil").map(|_| ())),
            (t.rename("/missing", "/y").map(|_| ()), s.rename("/missing", "/y").map(|_| ())),
            (t.rename("/a", "/no/where").map(|_| ()), s.rename("/a", "/no/where").map(|_| ())),
            (t.add_block("/a", 1), s.add_block("/a", 1)),
            (t.add_block("/gone", 1), s.add_block("/gone", 1)),
            (t.mkdir_p("/a/f"), s.mkdir_p("/a/f")),
        ];
        for (i, (a, b)) in cases.iter().enumerate() {
            assert_eq!(a, b, "error parity case {i}");
        }
        refused_ops_leave_no_trace(1);
        refused_ops_leave_no_trace(8);
    }

    /// An op refused under the write locks — the name is taken, the
    /// directory is populated — fails as the tree's does and leaves nothing
    /// a reader or a later op can see, with no pin and under a live one: the
    /// fingerprints hold still, the next inode ids are the ones a namespace
    /// that never saw the refused ops hands out, and what a pinned refusal
    /// displaced is cleared by the next unpinned write of the slot.
    fn refused_ops_leave_no_trace(shards: usize) {
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
            Txn::Delete { path: "/a".into(), recursive: false },
        ];
        let next = [
            Txn::Create { path: "/a/h".into(), replication: 1 },
            Txn::Mkdir { path: "/a/d2".into() },
            Txn::Mkdir { path: "/a/f2".into() },
        ];
        for pinned in [false, true] {
            let mut t = NamespaceTree::new();
            let (s, twin) =
                (ShardedNamespace::with_shards(shards), ShardedNamespace::with_shards(shards));
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

    /// Slots in the one table of a `with_shards(1)` namespace.
    fn table_len(s: &ShardedNamespace) -> usize {
        s.shards[0].state.read().unwrap().slots.len()
    }

    #[test]
    fn stale_ids_read_as_absent_after_their_index_is_reused() {
        let s = ShardedNamespace::with_shards(1);
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
        assert_eq!(
            s.mutate_by_id(old_file, "/d/f", |node, _| {
                node.set_perm(0o700);
                Ok(())
            }),
            Err(NsError::NotFound("/d/f".into()))
        );
        assert_eq!(s.fingerprint(), before, "neither touched the inode now at the index");
        assert_eq!(s.list("/e").unwrap(), ["g"]);
    }

    #[test]
    fn a_pinned_inode_keeps_its_index_until_the_pin_drops() {
        let s = ShardedNamespace::with_shards(1);
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
        // The next mutation of the shard sweeps the tombstone and its
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
        let s = ShardedNamespace::with_shards(1);
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
        let s = ShardedNamespace::with_shards(4);
        s.mkdir("/d").unwrap();
        s.create("/d/old", 1).unwrap();
        let before = s.list("/d").unwrap();
        let view = s.pin();
        s.create("/d/new", 1).unwrap();
        s.delete("/d/old", false).unwrap();
        s.set_perm("/d", 0o700).unwrap();
        // The view still sees the pinned state…
        assert_eq!(view.list("/d").unwrap(), before);
        assert!(view.exists("/d/old"));
        assert!(!view.exists("/d/new"));
        assert_eq!(view.getfileinfo("/d").unwrap().perm, DEFAULT_PERM);
        // …while the latest state moved on.
        assert!(!s.exists("/d/old"));
        assert!(s.exists("/d/new"));
        assert_eq!(s.getfileinfo("/d").unwrap().perm, 0o700);
        // A second pin sees the new state.
        let view2 = s.pin();
        assert!(view2.exists("/d/new"));
        drop(view2);
        drop(view);
        // With pins gone, later mutations reclaim history and tombstones.
        s.create("/d/later", 1).unwrap();
        assert!(s.exists("/d/later"));
    }

    #[test]
    fn snapshot_fingerprint_matches_quiesced_copy() {
        let s = ShardedNamespace::with_shards(4);
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
    /// files each holds, in whatever order and shard layout they were made.
    #[test]
    fn skeleton_fingerprint_sees_directories_and_nothing_else() {
        let a = ShardedNamespace::with_shards(4);
        a.mkdir_p("/x/y").unwrap();
        a.mkdir("/z").unwrap();
        a.create("/x/y/f", 2).unwrap();
        let b = ShardedNamespace::with_shards(16);
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

    #[test]
    fn replay_session_matches_naive_apply() {
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
        let sharded = ShardedNamespace::with_shards(8);
        let mut sess = ShardedReplaySession::new();
        for txn in &workload {
            let a = naive.apply(txn);
            let b = sess.apply(&sharded, txn);
            assert_eq!(a, b, "session parity broke on {txn:?}");
        }
        assert_eq!(naive.fingerprint(), sharded.fingerprint());
        // Stale handles: a record against a deleted file or a renamed-away
        // directory fails in both instead of touching the old inode, and
        // malformed shapes are rejected although validation is skipped.
        let rename = Txn::Rename { src: "/a/b".into(), dst: "/a/c".into() };
        sess.apply(&sharded, &rename).unwrap();
        naive.apply(&rename).unwrap();
        for stale in [
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 3, len: 64 },
            Txn::Create { path: "/a/b/h".into(), replication: 1 },
            Txn::Create { path: "/".into(), replication: 1 },
            Txn::Mkdir { path: "/a/".into() },
            Txn::Delete { path: "/".into(), recursive: true },
        ] {
            assert!(sess.apply(&sharded, &stale).is_err(), "{stale:?}");
            assert!(naive.apply(&stale).is_err(), "{stale:?}");
        }
        assert_eq!(naive.fingerprint(), sharded.fingerprint());
        // The directory handle outlives a file's delete or rename and not
        // the directory's own: a create under a path that was renamed or
        // deleted away fails as the naive apply's does, between two that
        // succeed.
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
            assert_eq!(a, sess.apply(&sharded, &txn), "session parity broke on {txn:?}");
            assert_eq!(a.is_err(), failing, "{txn:?}: {a:?}");
        }
        assert_eq!(naive.fingerprint(), sharded.fingerprint());
    }

    #[test]
    fn cache_counters_move() {
        let s = ShardedNamespace::with_shards(4);
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

    #[test]
    fn concurrent_writers_and_readers_smoke() {
        let s = Arc::new(ShardedNamespace::with_shards(8));
        for w in 0..4 {
            s.mkdir(&format!("/w{w}")).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut log = Vec::new();
                for i in 0..300 {
                    let p = format!("/w{w}/f{i}");
                    s.create(&p, 1).unwrap();
                    log.push(Txn::Create { path: p.clone(), replication: 1 });
                    if i % 3 == 0 {
                        s.add_block(&p, i).unwrap();
                        log.push(Txn::AddBlock { path: p.clone(), block_id: i, len: 1 });
                    }
                    if i % 7 == 0 {
                        let q = format!("/w{w}/r{i}");
                        s.rename(&p, &q).unwrap();
                        log.push(Txn::Rename { src: p, dst: q });
                    }
                }
                log
            }));
        }
        {
            let s = s.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for w in 0..4 {
                        let _ = s.getfileinfo(&format!("/w{w}"));
                        let _ = s.list(&format!("/w{w}"));
                    }
                }
                Vec::new()
            }));
        }
        let mut logs = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            if i == 4 {
                stop.store(true, Ordering::Relaxed);
            }
            logs.push(h.join().unwrap());
            if i == 3 {
                stop.store(true, Ordering::Relaxed);
            }
        }
        // Writers hit disjoint directories, so replaying their logs in any
        // per-thread order yields the same structure.
        let mut legacy = NamespaceTree::new();
        for w in 0..4 {
            legacy.mkdir(&format!("/w{w}")).unwrap();
        }
        for log in &logs {
            for txn in log {
                legacy.apply(txn).unwrap();
            }
        }
        assert_eq!(legacy.fingerprint(), s.fingerprint());
        // Cached and uncached resolution agree everywhere we look.
        for w in 0..4 {
            for p in s.list(&format!("/w{w}")).unwrap() {
                let full = format!("/w{w}/{p}");
                assert_eq!(s.resolve_path(&full), s.resolve_path_uncached(&full));
            }
        }
    }

    #[test]
    fn pinned_reader_concurrent_with_writer() {
        let s = Arc::new(ShardedNamespace::with_shards(8));
        s.mkdir("/w").unwrap();
        s.create("/w/seed", 1).unwrap();
        let before = s.list("/w").unwrap();
        let view_owner = s.clone();
        let view = view_owner.pin();
        let writer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 0..500 {
                    s.create(&format!("/w/f{i}"), 1).unwrap();
                }
            })
        };
        // Interleave snapshot reads with the writer's progress.
        for _ in 0..50 {
            assert_eq!(view.list("/w").unwrap(), before);
            assert!(view.exists("/w/seed"));
            std::thread::yield_now();
        }
        writer.join().unwrap();
        assert_eq!(view.list("/w").unwrap(), before);
        assert_eq!(s.list("/w").unwrap().len(), before.len() + 500);
    }

    #[test]
    fn home_shard_groups_by_parent() {
        let s = ShardedNamespace::with_shards(8);
        assert_eq!(s.home_shard("/a/b/f1"), s.home_shard("/a/b/f2"));
        assert!(s.home_shard("/a/b/f1") < 8);
    }
}
