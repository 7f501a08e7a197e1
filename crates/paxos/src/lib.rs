//! # mams-paxos — consensus for election and replicated state
//!
//! The Boom-FS baseline (Section II, Figure 9) replicates its metadata
//! through a Paxos-backed, globally-consistent distributed log; its extra
//! normal-case latency and centralized-repair failover cost come from that
//! structure. (MAMS itself elects through the coordination service's lock —
//! `mams-coord` does not depend on this crate.)
//!
//! This crate provides [`rsm::RsmNode`] — a multi-decree replicated log
//! (multi-Paxos with a stable leader, Raft-flavored commit rule) that runs
//! on the simulator — over a per-slot [`Acceptor`]. The application names
//! its command, query and reply types ([`rsm::RsmApp`]); simulator messages
//! are typed values, so nothing is serialized.

pub mod acceptor;
pub mod ballot;
pub mod rsm;

pub use acceptor::{AcceptReply, Acceptor};
pub use ballot::Ballot;
pub use rsm::RsmTrace;
