//! # mams-coord — the global view and distributed coordination service
//!
//! The paper uses ZooKeeper "to monitor nodes, trigger events and maintain
//! the consistent global view" (Section IV), with a 2 s heartbeat and 5 s
//! session timeout. This crate is that service, built from scratch:
//!
//! * **Sessions** — clients register and heartbeat; a silent client's
//!   session expires after the timeout, deleting its ephemeral keys and
//!   releasing its locks (this is how active failures are *detected*).
//! * **Global view** — a small hierarchical key space (`g/0/state/5 = "S"`)
//!   with plain and ephemeral entries and atomic multi-key updates (step 2
//!   of the failover protocol flips several states at once).
//! * **Watches** — prefix subscriptions; every change pushes an event to the
//!   watcher. MAMS servers keep three watchers: on their own state, on the
//!   active, and on the distributed lock (Section III-C). Unlike ZooKeeper's
//!   one-shot watches ours are persistent, which only removes re-arm
//!   boilerplate — the event-driven structure is the same.
//! * **Distributed lock** — at most one holder per lock path; each grant
//!   carries a monotonically increasing **epoch** used as the fencing token
//!   for SSP writes, so a deposed active can never scribble on shared files
//!   ("it ensures that no processes can obtain the distributed lock before
//!   the active loses it").
//!
//! The service runs as a single [`CoordServer`] node — the paper treats the
//! ZooKeeper ensemble as one reliable endpoint, and so do we (the ensemble's
//! internal replication is exercised separately in `mams-paxos`).

pub mod client;
pub mod proto;
pub mod server;

pub use client::{CoordClient, Incoming, COORD_HB_TOKEN};
pub use proto::{CoordEvent, CoordReq, CoordResp, KeyOp, ReqId};
pub use server::{CoordConfig, CoordServer, CoordTrace};
