//! Block-location map.
//!
//! Data servers split file contents into blocks and "periodically report
//! block locations to both the active and standby nodes" (Section III-A), so
//! a promoted standby already knows where every block lives — the key
//! structural difference from HDFS BackupNode, whose replacement must
//! recollect all block locations before serving (and whose MTTR therefore
//! grows with file-system scale in Table I).

use std::collections::{BTreeSet, HashMap};

/// Identifies a data server.
pub type DataServerId = u32;

/// Metadata for one block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockInfo {
    pub len: u32,
    /// Data servers currently holding a replica (sorted for determinism).
    pub locations: BTreeSet<DataServerId>,
}

/// block id → replica locations, fed by data-server block reports.
#[derive(Debug, Clone, Default)]
pub struct BlockMap {
    blocks: HashMap<u64, BlockInfo>,
}

impl BlockMap {
    pub fn new() -> Self {
        BlockMap::default()
    }

    /// Register a block's existence with its length (journal `AddBlock`).
    pub fn register(&mut self, block_id: u64, len: u32) {
        self.blocks.entry(block_id).or_default().len = len;
    }

    /// Absorb a full block report from one data server: `held` is the
    /// complete set of blocks the server stores, so blocks it no longer
    /// reports are dropped from its location set.
    pub fn report(&mut self, server: DataServerId, held: &[u64]) {
        for info in self.blocks.values_mut() {
            info.locations.remove(&server);
        }
        for &b in held {
            self.blocks.entry(b).or_default().locations.insert(server);
        }
    }

    /// Look up a block.
    pub fn get(&self, block_id: u64) -> Option<&BlockInfo> {
        self.blocks.get(&block_id)
    }

    /// Replica count for a block (0 if unknown).
    pub fn replication_of(&self, block_id: u64) -> usize {
        self.blocks.get(&block_id).map_or(0, |i| i.locations.len())
    }

    /// Forget a block (file deletion).
    pub fn remove(&mut self, block_id: u64) {
        self.blocks.remove(&block_id);
    }

    /// Number of known blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_replace_per_server_state() {
        let mut m = BlockMap::new();
        m.register(1, 100);
        m.register(2, 200);
        m.report(7, &[1, 2]);
        assert_eq!(m.replication_of(1), 1);
        // Server 7 now reports only block 2: it must lose block 1.
        m.report(7, &[2]);
        assert_eq!(m.replication_of(1), 0);
        assert_eq!(m.replication_of(2), 1);
    }

    #[test]
    fn multiple_servers_accumulate() {
        let mut m = BlockMap::new();
        m.register(5, 10);
        m.report(1, &[5]);
        m.report(2, &[5]);
        m.report(3, &[5]);
        assert_eq!(m.replication_of(5), 3);
        let info = m.get(5).unwrap();
        assert_eq!(info.len, 10);
        assert_eq!(info.locations.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn reports_can_precede_registration() {
        // A data server may report a block before the journal record
        // arrives (races are normal); the location must not be lost.
        let mut m = BlockMap::new();
        m.report(4, &[9]);
        assert_eq!(m.replication_of(9), 1);
        m.register(9, 77);
        assert_eq!(m.get(9).unwrap().len, 77);
        assert_eq!(m.replication_of(9), 1);
    }

    #[test]
    fn removal() {
        let mut m = BlockMap::new();
        m.register(1, 1);
        m.remove(1);
        assert!(m.get(1).is_none());
        assert!(m.is_empty());
    }
}
