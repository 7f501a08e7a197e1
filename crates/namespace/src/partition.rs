//! Hash-based namespace partitioning across replica groups.
//!
//! CFS distributes the namespace over multiple actives by hashing
//! (Section III-A). Files are owned by exactly one replica group — the one
//! their full path hashes to — so `create` and `getfileinfo` scale with the
//! number of actives. Structural operations (`mkdir`, `delete`, `rename`)
//! must keep the directory skeleton consistent on *every* group, which is
//! why the paper classifies them as distributed transactions whose
//! throughput does not improve with more actives (Figure 5 discussion).

/// Index of a replica group within a deployment.
pub type GroupId = u32;

/// FNV-1a, stable across runs and platforms (clients and servers must agree
/// on routing forever). Group-level partitioning here, the resolution
/// cache's sets in [`crate::shard`], and the active's reply-release buckets
/// in `mams-core` all hash with it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Stable path → group mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    groups: u32,
}

impl Partitioner {
    pub fn new(groups: u32) -> Self {
        assert!(groups >= 1, "need at least one replica group");
        Partitioner { groups }
    }

    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Owner group of the file at `path`. One group owns everything, and
    /// is told so without hashing the path.
    pub fn owner(&self, path: &str) -> GroupId {
        if self.groups == 1 {
            return 0;
        }
        (fnv1a64(path.as_bytes()) % self.groups as u64) as GroupId
    }

    /// Groups an operation must touch: file ops touch the owner only,
    /// structural ops touch every group (their directory skeletons must stay
    /// in lock-step).
    pub fn groups_for(&self, txn: &mams_journal::Txn) -> Vec<GroupId> {
        if txn.is_structural() {
            (0..self.groups).collect()
        } else {
            vec![self.owner(txn.primary_path())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_journal::Txn;

    /// Pinned owners: a different hash would move `multi_group`'s groups,
    /// and with them every virtual-time figure it reports.
    #[test]
    fn routing_is_stable() {
        let p = Partitioner::new(3);
        let table = [
            ("/", 2),
            ("/a", 2),
            ("/a/b", 1),
            ("/x", 1),
            ("/data/file-17", 0),
            ("/bench/dir0/file0", 0),
            ("/bench/dir7/file123", 0),
        ];
        for (path, owner) in table {
            assert_eq!(p.owner(path), owner, "{path}");
        }
        let one = Partitioner::new(1);
        for (path, _) in table {
            assert_eq!(one.owner(path), 0, "{path}");
        }
    }

    #[test]
    fn routing_is_spread() {
        let p = Partitioner::new(4);
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[p.owner(&format!("/bench/dir{}/file{}", i % 100, i)) as usize] += 1;
        }
        for c in counts {
            assert!((1_500..4_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn single_group_owns_everything() {
        let p = Partitioner::new(1);
        assert_eq!(p.owner("/x"), 0);
        assert_eq!(p.owner("/y/z"), 0);
    }

    #[test]
    fn structural_ops_touch_all_groups() {
        let p = Partitioner::new(3);
        let mk = Txn::Mkdir { path: "/d".into() };
        assert_eq!(p.groups_for(&mk), vec![0, 1, 2]);
        let rn = Txn::Rename { src: "/a".into(), dst: "/b".into() };
        assert_eq!(p.groups_for(&rn), vec![0, 1, 2]);
        let cr = Txn::Create { path: "/d/f".into(), replication: 1 };
        assert_eq!(p.groups_for(&cr), vec![p.owner("/d/f")]);
        assert_eq!(p.groups_for(&cr).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_groups_rejected() {
        Partitioner::new(0);
    }
}
