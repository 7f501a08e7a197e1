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
//! **One builder.** A [`Mechanism`] names MAMS or one of the five, and
//! [`Mechanism::build`] returns the same [`mams_cluster::Deployment`] for
//! each; [`KillRig`] is the MTTR rig over any of them.
//!
//! **One front-end, one prefix.** All five sit behind [`common::NameNode`],
//! which holds what a comparison must not vary: the coordination session
//! and the `g/0/active` pointer clients route by, the bounded admission
//! queue under MAMS's CPU model, MAMS's duplicate-suppression cache, the
//! window of executed-but-unsealed mutations with their replies, and the
//! same [`mams_core::Prefix`] a MAMS member holds — so every system
//! executes an operation (`Prefix::exec`), seals a batch (`Prefix::seal`)
//! and replays one (`Prefix::ingest`: duplicates dropped by `sn`, a batch
//! past a hole stashed until the hole is filled) through the same code over
//! the same sharded namespace, and restarts from a checkpoint by the same
//! image round trip (`Prefix::from_image`). There is one `admit`, `drain`,
//! `serve`, `seal`, `release`, `replay` and `restart_from_checkpoint`.
//!
//! **What a comparator may still differ in** is what makes it that system
//! and nothing else: where a sealed batch must be durable before its
//! replies go (local-disk timer, fire-and-forget stream, NFS append,
//! journal quorum, consensus round), how failure is detected (ping budget,
//! watch on the ephemeral pointer, election timeout), what takeover costs
//! (block recollection, fencing and drain, the calibrated constants), and
//! its journaling CPU per mutation. No comparator journals ack records, so
//! its prefix's retry window stays empty: at-most-once across a takeover is
//! MAMS's alone. Boom-FS takes admission and the flush tick from the same
//! front-end and hands what it drains to its RSM instead of
//! [`common::NameNode::serve`]; its replicated application is a `Prefix`
//! driven by the consensus log, which is its journal.
//!
//! Duplicate handling is weaker than MAMS's in ways that are written down
//! at `serve` and not yet measured: no `RetryCache::begin` (a duplicate of
//! a mutation still waiting on durability executes again), no `note_acked`
//! (the receipt watermark is ignored), and Boom-FS does not ask the cache a
//! second time at its flush tick. No recorded harness sends a duplicate
//! any comparator's cache answers; one unit test in [`hdfs`] does.
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
pub mod mechanism;

pub use common::{BaselineTrace, FsScale};
pub use mechanism::{KillRig, Mechanism};
