//! # mams-baselines — the comparison systems from the paper's evaluation
//!
//! Reimplementations of each baseline's *recovery structure* over the same
//! simulator, coordination service, and client protocol as MAMS, so the
//! comparisons in Figures 5/6, Table I, and Figure 9 measure mechanism
//! differences rather than implementation accidents:
//!
//! * [`hdfs`] — vanilla single-namenode HDFS: no replication, no recovery;
//!   the throughput reference line.
//! * [`backupnode`] — HDFS BackupNode: asynchronous journal streaming to one
//!   backup (fast normal ops, no consistency guarantee); on takeover the
//!   backup must **recollect every block location** from the data servers,
//!   so its MTTR grows with file-system scale (Table I's rising column).
//! * [`avatar`] — Facebook AvatarNode: hot standby tailing an NFS-shared
//!   edit log, data servers reporting to both avatars; failover is dominated
//!   by the client/VIP redirection machinery (flat, tens of seconds).
//! * [`hadoop_ha`] — Hadoop HA with a Quorum Journal Manager: edits written
//!   to a quorum of journal nodes, ZKFC-style election, epoch fencing on the
//!   quorum (flat, in the teens of seconds).
//! * [`boomfs`] — Boom-FS: metadata replicated through a Paxos distributed
//!   log (`mams-paxos`'s RSM); every mutation pays a consensus round and
//!   failover pays leader election plus log repair.
//!
//! Where a baseline's cost is driven by machinery we do not simulate at
//! full fidelity (Avatar's VIP switch, the HA namenode's state transition),
//! the cost appears as a **named, documented calibration constant** derived
//! from the published numbers; everything structural (quorum rounds, block
//! recollection proportional to scale, journal tailing) is executed for
//! real.

pub mod avatar;
pub mod backupnode;
pub mod boomfs;
pub mod common;
pub mod hadoop_ha;
pub mod hdfs;

pub use common::FsScale;
