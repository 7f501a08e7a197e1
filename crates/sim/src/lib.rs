//! # mams-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other MAMS crate runs on. The paper
//! evaluated MAMS on a 20-node Linux cluster; we reproduce the protocols on a
//! deterministic discrete-event simulator so that experiments measured in
//! (virtual) seconds — session timeouts, failover windows, MapReduce jobs —
//! complete in milliseconds of wall time and are exactly reproducible from a
//! seed.
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`Duration`] — microsecond-resolution virtual time,
//! * [`Node`] — the sans-IO protocol trait (messages in, actions out),
//! * [`Ctx`] — the capability handle a node uses to send messages, set
//!   timers, sample randomness and emit trace events,
//! * [`Sim`] — the world: event queue, network model, node lifecycle
//!   (crash / restart / pause), control hooks for fault injection,
//! * [`net::Network`] — per-link latency models, partitions, loss,
//! * [`trace::Trace`] — time-stamped protocol traces of typed events (one
//!   enum per recording crate, read back with [`Trace::of`]) used by the
//!   figure harnesses (e.g. the Figure 7 failover-stage breakdown),
//! * [`reliability`] — the analytic MTBF model behind Figure 1.
//!
//! Protocol crates (`mams-coord`, `mams-core`, `mams-cluster`, …) implement
//! [`Node`] and never touch wall-clock time or OS I/O, which is what makes
//! the whole evaluation deterministic.

pub mod event;
pub mod live;
pub mod net;
pub mod node;
pub mod reliability;
pub mod rng;
pub mod time;
pub mod trace;
pub mod world;

pub use live::RealTimePacer;
pub use net::{LatencyModel, LinkShape, Network, RouteFate};
pub use node::{AnyMessage, Ctx, Message, Node, NodeId, TimerId};
pub use rng::DetRng;
pub use time::{Duration, SimTime};
pub use trace::{Event, Trace, TraceEvent};
pub use world::{NodeStatus, Sim, SimConfig, SimTrace};
