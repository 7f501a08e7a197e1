//! # mams-mapreduce — a minimal MapReduce engine over the simulated FS
//!
//! Reproduces the paper's Figure 9 experiment: a wordcount-style job whose
//! tasks create and stat files through the metadata service, with a
//! metadata-server failure injected mid-job. "The reduce jobs needed the
//! former maps to write intermediate results into the file system before
//! continuing subsequent operations" — so a slow metadata failover shows up
//! directly as delayed map completions and stalled reduces.
//!
//! Components:
//! * [`JobTracker`] / [`TaskWorker`] — scheduling and execution, each
//!   issuing its metadata operations through an embedded
//!   `mams_cluster::FsIo` (the client state machine, many ops outstanding),
//! * [`JobStats`] — per-task completion timestamps for the CDF plots.

pub mod engine;
pub mod stats;

pub use engine::{build_job, JobSpec, JobTracker, MrMsg, MrTrace, TaskWorker};
pub use stats::JobStats;
