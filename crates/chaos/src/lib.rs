//! # mams-chaos — chaos campaign engine for the MAMS cluster
//!
//! Three layers, designed to be driven by the `campaign` binary in
//! `mams-bench` (or directly from tests):
//!
//! * [`scenario`] — the declarative model: a [`Scenario`](scenario::Scenario)
//!   is a cluster shape, a contended workload, and a *fault program* — a
//!   seeded list of timed
//!   [`FaultAction`](mams_cluster::faults::FaultAction)s over symbolic node
//!   references (partitions during failover, gray-slow standbys, message
//!   loss/duplication, storage corruption mid-catch-up, clock skew, frozen
//!   zombies). The fault vocabulary is `mams_cluster::faults`', the one the
//!   tests and the paper harnesses inject through too. Programs are data:
//!   shrinkable, printable, replayable.
//! * [`engine`] — injects a program's actions through
//!   [`mams_cluster::faults::inject`], runs them against history-recorded
//!   clients, lifts every fault, grants a grace window, and sweeps the
//!   invariants (an active per group, post-heal progress, zero replica
//!   divergence, linearizable history).
//! * [`checker`] — the Wing–Gong-style linearizability checker over the
//!   per-client histories, specialized to the metadata op model. The
//!   retry window is replicated through the journal, so every history is
//!   held to *strict* linearizability — retries across failover included
//!   (see DESIGN.md §11).
//! * [`shrink`] — greedy delta-debugging of failing programs down to a
//!   minimal witness.

pub mod checker;
pub mod engine;
pub mod scenario;
pub mod shrink;

pub use checker::{check_history, CheckOutcome};
pub use engine::{run_scenario, RunConfig, RunReport};
#[cfg(debug_assertions)]
pub use scenario::double_ack;
pub use scenario::{by_name, corpus, quiet, Scenario};
pub use shrink::{shrink, Shrunk};
