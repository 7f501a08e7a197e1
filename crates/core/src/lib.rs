//! # mams-core — the MAMS (multiple actives multiple standbys) policy
//!
//! The paper's contribution: replica groups of metadata servers with one
//! **active**, several hot **standbys**, and possibly out-of-sync
//! **juniors**, coordinated through a global view and two distributed
//! protocols (Section III):
//!
//! * the **failover protocol** — event-driven failure detection through the
//!   global view, Algorithm 1 active election (standbys race for the
//!   distributed lock with random bids; with no standbys left, the junior
//!   with the maximum journal `sn` takes over), and the six-step
//!   active-standby switch with `sn`-based duplicate suppression and
//!   epoch-fenced SSP access;
//! * the **renewing protocol** — background recovery that upgrades a junior
//!   to a standby by loading the namespace image from the SSP (resumable,
//!   checkpointed) and replaying the journal tail, finishing with a final
//!   synchronization handshake once the `sn` gap is small.
//!
//! One rule ties the two together: **one role pulls**. A member reads the
//! pool only as a renewing junior or as the elected member inside the
//! switch, both through the one catch-up ladder in `renewing.rs`, and
//! which of the two is running is the role it is in. A standby never reads the
//! pool: what it misses the active re-pushes, out of a log the active
//! keeps back to what every standby and the pool have acknowledged.
//!
//! The central type is [`MdsServer`]: one replica-group member — a replica
//! (the process: configuration, the coordination client, clocks; and the
//! one [`Prefix`] it has derived from the journal: namespace, log,
//! block map, retry window) and beside it the one value of its role:
//! member, upgrading, or the active's tenure. It runs on any `mams-sim`
//! runtime. [`Prefix`] is public because the comparators in
//! `mams-baselines` execute and replay through the same value.

// clippy.toml's maps are banned from the retry cache alone (retry.rs).
#![allow(clippy::disallowed_types)]

pub mod commit;
pub mod config;
pub mod ingress;
pub mod prefix;
pub mod proto;
pub mod retry;
pub mod server;
pub mod trace;
pub mod view;

mod active;
mod failover;
mod renewing;

pub use commit::GroupCommitPolicy;
pub use config::{InitialRole, MdsConfig, MdsTiming};
pub use ingress::{CpuModel, Ingress, IngressItem};
pub use mams_namespace::NsError;
pub use prefix::{DeltaError, Prefix};
pub use proto::{FsOp, GroupMsg, MdsReq, MdsResp, OpOutput, Xid};
pub use retry::RetryCache;
pub use server::{MdsServer, Role};
pub use trace::MdsTrace;
pub use view::ViewKey;
