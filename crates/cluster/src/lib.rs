//! # mams-cluster — the CFS-like file system assembled on the simulator
//!
//! Everything needed to stand up and exercise a full deployment: the
//! [`deploy`] builder (coordination server + shared storage pool + replica
//! groups), the retrying [`client`] library (partition
//! routing, active discovery through the global view, transparent
//! reconnect-and-resend on failover — the paper's "the client can reconnect
//! to the new active directly and automatically ... and resend requests
//! when needed" — as one state machine, [`FsIo`], with [`FsClient`] its
//! closed-loop driver), [`workload`] generators for every benchmark in the
//! paper's evaluation, [`metrics`] collection, [`faults`] injection
//! (Tests A/B/C), and [`mttr`] computation.

// clippy.toml's hash map is banned from `FsIo` alone (client.rs).
#![allow(clippy::disallowed_types)]

pub mod client;
pub mod datasrv;
pub mod deploy;
pub mod faults;
pub mod history;
pub mod metrics;
pub mod mttr;
pub mod workload;

pub use client::{ClientConfig, ClientTrace, FsClient, FsIo, IoEvent};
pub use datasrv::DataServer;
pub use deploy::{DeploySpec, Deployment};
pub use history::{History, OpRecord, Recorder};
pub use metrics::{Completion, Metrics};
pub use mttr::{mttr_from_completions, OutageStats};
pub use workload::Workload;
