//! MTTR computation, following the paper's definition:
//!
//! ```text
//! MTTR = Σ (Time_return_success − Time_return_failure) / Times
//! ```
//!
//! i.e. for each injected failure, the span from the first failed/blocked
//! operation to the first successful operation after recovery.

use std::sync::Arc;

use mams_coord::{CoordConfig, CoordServer};
use mams_namespace::Partitioner;
use mams_sim::{DetRng, NodeId, Sim, SimConfig, SimTime};

use crate::client::{ClientConfig, FsClient};
use crate::deploy::{build, DeploySpec, Deployment};
use crate::metrics::{Completion, Metrics};
use crate::workload::Workload;

/// One measured outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageStats {
    /// Last success before the outage (µs).
    pub last_success_us: u64,
    /// First success after recovery (µs).
    pub recovered_us: u64,
}

impl OutageStats {
    /// The recovery time in seconds.
    pub fn mttr_secs(&self) -> f64 {
        (self.recovered_us.saturating_sub(self.last_success_us)) as f64 / 1e6
    }
}

/// Detect outages from a completion log: an outage begins when successes
/// stop flowing for more than `gap_threshold_us` and ends at the next
/// success. `injected_at_us` anchors each expected outage (one per injected
/// failure), so unrelated hiccups are not miscounted.
pub fn mttr_from_completions(
    completions: &[Completion],
    injected_at_us: &[u64],
) -> Vec<OutageStats> {
    let successes: Vec<u64> = completions.iter().filter(|c| c.ok).map(|c| c.at_us).collect();
    let mut out = Vec::new();
    for &inj in injected_at_us {
        // Last success at or before the injection, first success after.
        let last_before = successes.iter().copied().take_while(|&t| t <= inj).last();
        let first_after = successes.iter().copied().find(|&t| t > inj);
        if let (Some(last_success_us), Some(recovered_us)) = (last_before, first_after) {
            out.push(OutageStats { last_success_us, recovered_us });
        }
    }
    out
}

/// Mean MTTR in seconds over a set of outages (`None` when empty).
pub fn mean_mttr_secs(outages: &[OutageStats]) -> Option<f64> {
    if outages.is_empty() {
        return None;
    }
    Some(outages.iter().map(|o| o.mttr_secs()).sum::<f64>() / outages.len() as f64)
}

/// The kill-and-measure rig behind every MTTR comparison: a system that
/// publishes group 0's active at `coord`, one closed-loop client creating
/// files against it, the serving node crashed mid-run.
pub struct KillRig {
    pub sim: Sim,
    pub coord: NodeId,
    metrics: Arc<Metrics>,
}

impl KillRig {
    /// A simulation holding a coordination server and nothing else: the
    /// caller adds the system under test to `sim`, then the client.
    pub fn new(cfg: SimConfig) -> KillRig {
        let mut sim = Sim::new(cfg);
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        KillRig { sim, coord, metrics: Metrics::new(true) }
    }

    /// The rig over a MAMS cluster, which brings its own coordinator; the
    /// client is the deployment's first.
    pub fn deployed(cfg: SimConfig, spec: DeploySpec) -> (KillRig, Deployment) {
        let mut sim = Sim::new(cfg);
        let mut d = build(&mut sim, spec);
        let metrics = Metrics::new(true);
        d.add_client(&mut sim, Workload::create_only(0), metrics.clone());
        (KillRig { sim, coord: d.coord, metrics }, d)
    }

    /// The client, drawing from `rng_seed`; `tune` may adjust its config.
    pub fn add_client(&mut self, rng_seed: u64, tune: impl FnOnce(&mut ClientConfig)) {
        let mut cfg = ClientConfig::new(self.coord, Partitioner::new(1));
        tune(&mut cfg);
        let rng = DetRng::seed_from_u64(rng_seed);
        let client = FsClient::new(cfg, Workload::create_only(0), self.metrics.clone(), rng);
        self.sim.add_node("client", Box::new(client));
    }

    /// Run `kill` at `kill_at` and the simulation until `until`: the span in
    /// seconds from the client's last success before the kill to its first
    /// after it, `None` if service never came back.
    pub fn mttr_after(
        mut self,
        kill_at: SimTime,
        kill: impl FnOnce(&mut Sim) + Send + 'static,
        until: SimTime,
    ) -> Option<f64> {
        self.sim.at(kill_at, kill);
        self.sim.run_until(until);
        let outages = mttr_from_completions(&self.metrics.completions(), &[kill_at.micros()]);
        outages.first().map(OutageStats::mttr_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(at: u64, ok: bool) -> Completion {
        Completion { at_us: at, issued_us: at.saturating_sub(1_000), ok }
    }

    #[test]
    fn single_outage_measured() {
        // Successes every 100ms, outage injected at 1.0s, recovery at 6.2s.
        let mut log: Vec<Completion> = (1..=10).map(|i| c(i * 100_000, true)).collect();
        log.push(c(1_500_000, false));
        log.push(c(2_500_000, false));
        log.push(c(6_200_000, true));
        log.push(c(6_300_000, true));
        let outages = mttr_from_completions(&log, &[1_000_000]);
        assert_eq!(outages.len(), 1);
        let o = outages[0];
        assert_eq!(o.last_success_us, 1_000_000);
        assert_eq!(o.recovered_us, 6_200_000);
        assert!((o.mttr_secs() - 5.2).abs() < 1e-9);
    }

    #[test]
    fn multiple_outages() {
        let mut log = Vec::new();
        for i in 1..=5 {
            log.push(c(i * 1_000_000, true));
        }
        log.push(c(8_000_000, true)); // recovery 1 (injected at 5s): 3s
        for i in 9..=12 {
            log.push(c(i * 1_000_000, true));
        }
        log.push(c(20_000_000, true)); // recovery 2 (injected at 12s): 8s
        let outages = mttr_from_completions(&log, &[5_000_000, 12_000_000]);
        assert_eq!(outages.len(), 2);
        assert!((outages[0].mttr_secs() - 3.0).abs() < 1e-9);
        assert!((outages[1].mttr_secs() - 8.0).abs() < 1e-9);
        assert!((mean_mttr_secs(&outages).unwrap() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn unrecovered_outage_is_skipped() {
        let log = vec![c(1_000_000, true), c(2_000_000, false)];
        assert!(mttr_from_completions(&log, &[1_500_000]).is_empty());
        assert_eq!(mean_mttr_secs(&[]), None);
    }
}
