//! Scenario execution: compile a fault program onto the simulator, run it
//! against a recorded workload, then sweep the invariants.
//!
//! A run has three phases:
//!
//! 1. **Load + faults** (`run_secs`): clients hammer the shared key set
//!    while the program's actions fire at their scheduled times, each
//!    scheduling its own end (restart, resume, heal, clear) on the nodes
//!    it hit.
//! 2. **Cleanup**: whatever is still standing — a fault without an end, or
//!    one whose end falls past the run phase — is lifted through the
//!    kernel: cuts healed, shapes cleared, loss and duplication zeroed,
//!    paused nodes resumed, clocks trued, crashed MDS nodes restarted.
//! 3. **Grace**: the cluster gets a recovery window, after which the
//!    invariants must hold: an active per group, post-heal progress, no
//!    replica divergence, and a linearizable client history.

use mams_cluster::deploy::{self, DeploySpec};
use mams_cluster::faults::{self, active_of, FaultAction};
use mams_cluster::{History, Metrics, Recorder};
use mams_core::{MdsTiming, MdsTrace};
use mams_sim::{DetRng, Duration, NodeStatus, Sim, SimConfig, SimTime};

use crate::checker::{check_history, CheckOutcome};
use crate::scenario::Scenario;

/// Post-fault recovery window before invariants are checked.
const GRACE: Duration = Duration::from_secs(25);

/// How one run of a scenario should be driven.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    pub seed: u64,
    /// Replace the scenario's generated fault program (shrinking).
    pub program: Option<Vec<FaultAction>>,
}

/// Everything observed in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub scenario: &'static str,
    pub seed: u64,
    /// The program that actually ran (witness for shrinking).
    pub program: Vec<FaultAction>,
    pub ops_ok: u64,
    pub ops_failed: u64,
    pub records: usize,
    pub check: CheckOutcome,
    /// Violated run invariants, human-readable.
    pub invariants: Vec<String>,
    /// The run's trace, one event per line, when it [`failed`](Self::failed);
    /// empty for a clean run.
    pub timeline: String,
}

impl RunReport {
    /// An unexpected failure (what campaigns shrink and report): a broken
    /// invariant, or a history the checker did not prove linearizable.
    pub fn failed(&self) -> bool {
        !matches!(self.check, CheckOutcome::Ok { .. }) || !self.invariants.is_empty()
    }
}

/// Run one scenario once. Deterministic in `(scenario, cfg)`.
pub fn run_scenario(sc: &Scenario, cfg: &RunConfig) -> RunReport {
    let mut sim = Sim::new(SimConfig { seed: cfg.seed, ..SimConfig::default() });

    let spec = DeploySpec {
        groups: sc.groups,
        standbys_per_group: sc.standbys,
        juniors_per_group: sc.juniors,
        timing: (sc.tune)(MdsTiming::default()),
        ..DeploySpec::default()
    };
    let mut deployment = deploy::build(&mut sim, spec);

    let history = History::new();
    let metrics = Metrics::new(false);
    for i in 0..sc.clients {
        let client = deployment.next_client_id();
        let log = history.clone();
        let think = Duration::from_millis(sc.think_ms);
        deployment.add_client_with(
            &mut sim,
            (sc.workload)(i, sc.keys),
            metrics.clone(),
            move |mut c| {
                c.history = Some(Recorder { client, log });
                c.think = think;
                c
            },
        );
    }

    // Compile the program: every action becomes a scheduled fault.
    let program = cfg
        .program
        .clone()
        .unwrap_or_else(|| (sc.faults)(&mut DetRng::seed_from_u64(cfg.seed ^ 0x5EED_CAFE)));
    let t0 = sim.now();
    for action in &program {
        let at = t0 + Duration::from_millis(action.at_ms);
        faults::inject(&mut sim, &deployment, at, action.kind.clone());
    }

    sim.run_for(Duration::from_secs(sc.run_secs));

    // Cleanup: lift everything the program may have left standing.
    let net = sim.net_mut();
    net.heal_all();
    net.clear_shapes();
    net.set_loss_probability(0.0);
    net.set_dup_probability(0.0);
    for g in &deployment.groups {
        for &n in &g.members {
            sim.set_clock_skew(n, 1.0);
            if sim.is_paused(n) {
                sim.resume(n);
            }
            if sim.node_status(n) == NodeStatus::Down {
                sim.restart(n);
            }
        }
    }

    let heal_time = sim.now();
    sim.run_for(GRACE);
    // ---- invariants ----
    let mut invariants = Vec::new();
    // Only a failed replay of an acknowledged record counts:
    // `MdsTrace::ResetDivergent` is the *legitimate* discard of a
    // never-acknowledged journal suffix on re-registration.
    let mut events = sim.trace().of::<MdsTrace>();
    if let Some((_, node, e)) = events.find(|(_, _, e)| matches!(e, MdsTrace::Diverged { .. })) {
        invariants.push(format!("replica divergence: n{node} {e:?}"));
    }
    for g in 0..sc.groups {
        if active_of(&sim, deployment.coord, g).is_none() {
            invariants.push(format!("no active for group {g} after grace"));
        }
    }
    let records = history.records();
    if !post_heal_progress(&records, heal_time) {
        invariants.push("no successful operation after faults were lifted".into());
    }

    let check = check_history(&records);

    let mut report = RunReport {
        scenario: sc.name,
        seed: cfg.seed,
        program,
        ops_ok: metrics.ok_count(),
        ops_failed: metrics.failed_count(),
        records: records.len(),
        check,
        invariants,
        timeline: String::new(),
    };
    if report.failed() {
        report.timeline = sim.trace().to_string();
    }
    report
}

fn post_heal_progress(records: &[mams_cluster::OpRecord], heal: SimTime) -> bool {
    records.iter().any(|r| r.ok == Some(true) && r.completed_us.is_some_and(|t| t > heal.micros()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn quiet_scenario_is_clean() {
        let rep = run_scenario(&scenario::quiet(), &RunConfig { seed: 11, ..Default::default() });
        assert!(!rep.failed(), "invariants: {:?} check: {:?}", rep.invariants, rep.check);
        assert!(rep.ops_ok > 50, "got {}", rep.ops_ok);
        assert!(matches!(rep.check, CheckOutcome::Ok { .. }));
        assert!(rep.timeline.is_empty(), "a clean run keeps no timeline");
    }

    #[test]
    fn an_inconclusive_check_is_a_failure() {
        let rep = RunReport {
            scenario: "quiet",
            seed: 1,
            program: Vec::new(),
            ops_ok: 1,
            ops_failed: 0,
            records: 1,
            check: CheckOutcome::Inconclusive { states: 400_000 },
            invariants: Vec::new(),
            timeline: String::new(),
        };
        assert!(rep.failed());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn checker_has_teeth_against_injected_double_ack() {
        // The deliberate bug: the active acks deletes without applying
        // them. Fault-free runs have no retries, hence no echo slack — the
        // checker must convict.
        let rep =
            run_scenario(&scenario::double_ack(), &RunConfig { seed: 11, ..Default::default() });
        assert!(
            rep.check.is_violation(),
            "double-ack must be caught, got {:?} (inv {:?})",
            rep.check,
            rep.invariants
        );
        // The conviction comes with the run's own timeline.
        assert!(rep.timeline.contains("LockGranted"), "{}", rep.timeline);
    }

    #[test]
    fn failover_crash_scenario_survives() {
        let sc = scenario::by_name("failover_crash").unwrap();
        let rep = run_scenario(&sc, &RunConfig { seed: 3, ..Default::default() });
        assert!(!rep.failed(), "invariants: {:?} check: {:?}", rep.invariants, rep.check);
        // The program really fired: the active changed hands at least once.
        assert!(rep.ops_ok > 0);
    }

    #[test]
    fn double_failover_scenario_survives() {
        let sc = scenario::by_name("double_failover").unwrap();
        let rep = run_scenario(&sc, &RunConfig { seed: 5, ..Default::default() });
        assert!(!rep.failed(), "invariants: {:?} check: {:?}", rep.invariants, rep.check);
        assert!(rep.ops_ok > 0);
    }

    #[test]
    fn retry_across_failover_scenario_is_strictly_linearizable() {
        // Reply cuts force same-seq retries onto a freshly promoted
        // active; the window seeded from journal replay must answer them
        // exactly-once.
        let sc = scenario::by_name("retry_across_failover").unwrap();
        let rep = run_scenario(&sc, &RunConfig { seed: 9, ..Default::default() });
        assert!(!rep.failed(), "invariants: {:?} check: {:?}", rep.invariants, rep.check);
        assert!(rep.ops_ok > 0);
    }

    #[test]
    fn retry_after_delta_restart_scenario_is_strictly_linearizable() {
        let sc = scenario::by_name("retry_after_delta_restart").unwrap();
        let rep = run_scenario(&sc, &RunConfig { seed: 13, ..Default::default() });
        assert!(!rep.failed(), "invariants: {:?} check: {:?}", rep.invariants, rep.check);
        assert!(rep.ops_ok > 0);
    }

    #[test]
    fn adaptive_gray_standby_scenario_survives() {
        let sc = scenario::by_name("adaptive_gray_standby").unwrap();
        let rep = run_scenario(&sc, &RunConfig { seed: 7, ..Default::default() });
        assert!(!rep.failed(), "invariants: {:?} check: {:?}", rep.invariants, rep.check);
        assert!(rep.ops_ok > 0);
    }
}
