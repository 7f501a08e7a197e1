//! MDS configuration.

use mams_namespace::Partitioner;
use mams_sim::{Duration, NodeId};

/// Role a member boots into before the first view round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialRole {
    /// Race for the lock at startup (the deployment's designated active).
    Active,
    /// Hot backup from the start (empty namespace = trivially in sync).
    Standby,
    /// Out-of-sync backup: must be renewed before it can cover failures
    /// (a freshly added backup node).
    Junior,
}

/// The protocol settings some caller sets. Defaults follow the paper's
/// setup (Section IV): ZooKeeper heartbeat 2 s against a 5 s session
/// timeout. Every period or size with a single value in use is a constant
/// beside the code that reads it (`commit`, `server`, `failover`,
/// `renewing`).
#[derive(Debug, Clone, Copy)]
pub struct MdsTiming {
    /// Coordination heartbeat interval.
    pub heartbeat: Duration,
    /// Journal-sn gap above which a junior loads the image instead of
    /// replaying the journal record-by-record.
    pub renew_image_gap: u64,
    /// Image transfer chunk size (bytes).
    pub image_chunk: u64,
    /// Automatic image-checkpoint cadence for the active (`None` = only on
    /// explicit `MdsReq::Checkpoint`). Checkpoints compact the shared
    /// journal and bound junior recovery time.
    pub checkpoint_interval: Option<Duration>,
    /// Incremental-checkpoint cadence: the active folds the journal range
    /// since the last checkpoint artifact into a delta image and appends it
    /// to the pool's manifest chain (`None` = full images only). Much
    /// cheaper than a full image — cost is proportional to churn — so it
    /// can run far more often, keeping junior recovery time flat.
    pub delta_interval: Option<Duration>,
    /// **Deliberate bug switch**, compiled only into debug builds: the
    /// active acknowledges `delete` without applying it, so the chaos
    /// checker can be shown to convict a real double-ack defect
    /// (`mams_chaos::double_ack`). No release binary carries it.
    #[cfg(debug_assertions)]
    pub fault_double_ack: bool,
}

impl Default for MdsTiming {
    fn default() -> Self {
        MdsTiming {
            heartbeat: Duration::from_secs(2),
            renew_image_gap: 512,
            image_chunk: 4 * 1024 * 1024,
            checkpoint_interval: None,
            delta_interval: None,
            #[cfg(debug_assertions)]
            fault_double_ack: false,
        }
    }
}

impl MdsTiming {
    /// Self-fencing lease: an active that has heard *nothing* from the
    /// coordination service for this long must assume its session expired
    /// and step down before a successor can be elected. The coordinator
    /// renews the session on *any* request arrival and we renew the lease
    /// on *any* response arrival (milliseconds later), so the lease clock
    /// can never lag the expiry clock — any value strictly below the
    /// session timeout fences the zombie before a successor serves
    /// (`mams_cluster::deploy::build` asserts it, the one place both are
    /// known). Two heartbeats, which is at least two [`Self::view_refresh`]
    /// rounds: one lost round does not fence.
    pub fn coord_lease(&self) -> Duration {
        Duration::from_micros(2 * self.heartbeat.micros())
    }

    /// Period of the view-refresh round: a listing that heals lost watch
    /// events, and whose response is the contact that renews the lease
    /// (heartbeats are not acknowledged). 1 s, or the heartbeat when that
    /// is shorter, so that the lease always spans two rounds.
    pub fn view_refresh(&self) -> Duration {
        self.heartbeat.min(Duration::from_secs(1))
    }
}

/// Static configuration of one replica-group member.
#[derive(Debug, Clone)]
pub struct MdsConfig {
    /// This member's replica group.
    pub group: u32,
    /// All members of this replica group (including this node).
    pub members: Vec<NodeId>,
    /// The coordination server.
    pub coord: NodeId,
    /// Shared-storage-pool nodes (requests round-robin across them).
    pub pool: Vec<NodeId>,
    /// Namespace partitioning across all groups in the deployment.
    pub partitioner: Partitioner,
    /// Boot role.
    pub initial_role: InitialRole,
    pub timing: MdsTiming,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_defaults_fit_together() {
        use crate::commit::{FLUSH_IDLE, FLUSH_MAX, FLUSH_MIN};
        let t = MdsTiming::default();
        assert_eq!(t.heartbeat, Duration::from_secs(2));
        assert!(FLUSH_MIN < FLUSH_IDLE && FLUSH_IDLE < FLUSH_MAX);
        assert!(crate::renewing::RENEW_FINAL_GAP < t.renew_image_gap);
        assert_eq!(t.coord_lease(), Duration::from_secs(4));
        assert_eq!(t.view_refresh(), Duration::from_secs(1));
        assert!(t.coord_lease() < mams_coord::CoordConfig::default().session_timeout);
    }
}
