//! Scenario execution: compile a fault program onto the simulator, run it
//! against a recorded workload, then sweep the invariants.
//!
//! A run has three phases:
//!
//! 1. **Load + faults** (`run_secs`): clients hammer the shared key set
//!    while the program's actions fire at their scheduled times.
//! 2. **Cleanup**: every injected condition is lifted — cuts healed,
//!    shapes cleared, paused nodes resumed, clocks trued, crashed MDS
//!    nodes restarted.
//! 3. **Grace**: the cluster gets a recovery window, after which the
//!    invariants must hold: an active per group, post-heal progress, no
//!    replica divergence, and a linearizable client history.

use mams_cluster::deploy::{self, DeploySpec, Deployment};
use mams_cluster::{History, Metrics, Recorder};
use mams_coord::CoordServer;
use mams_core::{MdsTiming, MdsTrace, ViewKey};
use mams_sim::node::EXTERNAL;
use mams_sim::{DetRng, Duration, Event, NodeId, NodeStatus, Sim, SimConfig, SimTime};

use crate::checker::{check_history, CheckOutcome};
use crate::scenario::{FaultAction, FaultKind, NodeRef, Scenario};

/// Post-fault recovery window before invariants are checked.
const GRACE: Duration = Duration::from_secs(25);

/// How one run of a scenario should be driven.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    pub seed: u64,
    /// Arm the deliberate double-ack defect (teeth test for the checker).
    pub inject_double_ack: bool,
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
    /// An unexpected failure (what campaigns shrink and report).
    pub fn failed(&self) -> bool {
        self.check.is_violation() || !self.invariants.is_empty()
    }
}

/// What a fault program records that the kernel does not: its faults on the
/// shared pool's contents, and whether each found something to hit.
#[derive(Debug)]
pub enum FaultTrace {
    CorruptImage { group: u32, hit: bool },
    CorruptDelta { group: u32, hit: bool },
}

impl Event for FaultTrace {}

/// Resolve a symbolic node reference against the live cluster.
fn resolve(sim: &Sim, d: &Deployment, r: NodeRef) -> Option<NodeId> {
    let members = |group: u32| d.groups.get(group as usize).map(|g| &g.members);
    match r {
        NodeRef::Coord => Some(d.coord),
        NodeRef::Pool(i) => d.pool.get(i).copied(),
        NodeRef::Member { group, idx } => members(group).and_then(|g| g.get(idx)).copied(),
        NodeRef::Active { group } => active_of(sim, d.coord, group),
        NodeRef::BackupOf { group } => {
            let act = active_of(sim, d.coord, group);
            members(group).and_then(|g| {
                g.iter()
                    .find(|&&n| {
                        Some(n) != act && sim.node_status(n) == NodeStatus::Up && !sim.is_paused(n)
                    })
                    .copied()
            })
        }
        // A set, not a node: only the set-valued positions (resolve_all)
        // expand it.
        NodeRef::Clients => None,
    }
}

/// The group's current active according to the coordinator `coord`: the
/// value of the group's active pointer in the global view.
pub fn active_of(sim: &Sim, coord: NodeId, group: u32) -> Option<NodeId> {
    let view: &CoordServer = sim.node(coord)?;
    view.get(&ViewKey::Active(group).to_string())?.parse().ok()
}

/// Resolve a set of references; [`NodeRef::Clients`] is `clients`.
fn resolve_all(sim: &Sim, d: &Deployment, clients: &[NodeId], refs: &[NodeRef]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for &r in refs {
        match r {
            NodeRef::Clients => out.extend(clients),
            _ => out.extend(resolve(sim, d, r)),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Apply one fault action right now. Status guards make actions no-ops
/// when their target is already in the desired state, so shrunk programs
/// (with crash/restart pairs broken up) stay well-formed.
fn apply(sim: &mut Sim, d: &Deployment, clients: &[NodeId], kind: &FaultKind) {
    match kind {
        FaultKind::Crash(r) => {
            if let Some(n) = resolve(sim, d, *r) {
                if sim.node_status(n) == NodeStatus::Up {
                    sim.crash(n);
                }
            }
        }
        FaultKind::Restart(r) => {
            if let Some(n) = resolve(sim, d, *r) {
                if sim.node_status(n) == NodeStatus::Down {
                    sim.restart(n);
                }
            }
        }
        FaultKind::Pause(r) => {
            if let Some(n) = resolve(sim, d, *r) {
                if sim.node_status(n) == NodeStatus::Up && !sim.is_paused(n) {
                    sim.pause(n);
                }
            }
        }
        FaultKind::Resume(r) => {
            if let Some(n) = resolve(sim, d, *r) {
                if sim.is_paused(n) {
                    sim.resume(n);
                }
            }
        }
        FaultKind::Partition { a, b, heal_ms } => {
            let (sa, sb) = (resolve_all(sim, d, clients, a), resolve_all(sim, d, clients, b));
            let now = sim.now();
            mams_cluster::faults::schedule_partition(
                sim,
                sa,
                sb,
                now,
                heal_ms.map(Duration::from_millis),
            );
        }
        FaultKind::OneWay { from, to, heal_ms } => {
            let (sf, st) = (resolve_all(sim, d, clients, from), resolve_all(sim, d, clients, to));
            for &f in &sf {
                for &t in &st {
                    if f != t {
                        sim.net_mut().cut_one_way(f, t);
                    }
                }
            }
            if let Some(ms) = heal_ms {
                sim.after(Duration::from_millis(*ms), move |s| {
                    for &f in &sf {
                        for &t in &st {
                            if f != t {
                                s.net_mut().heal_one_way(f, t);
                            }
                        }
                    }
                });
            }
        }
        FaultKind::SlowNode { node, factor, clear_ms } => {
            if let Some(n) = resolve(sim, d, *node) {
                let now = sim.now();
                mams_cluster::faults::schedule_slow_node(
                    sim,
                    n,
                    *factor,
                    now,
                    clear_ms.map(Duration::from_millis),
                );
            }
        }
        FaultKind::GlobalLoss(p) => sim.net_mut().set_loss_probability(*p),
        FaultKind::GlobalDup(p) => sim.net_mut().set_dup_probability(*p),
        FaultKind::ClockSkew { node, factor } => {
            if let Some(n) = resolve(sim, d, *node) {
                sim.set_clock_skew(n, *factor);
            }
        }
        FaultKind::CorruptImage { group } => {
            let hit = d.shared_pool.lock().group_mut(*group).corrupt_image();
            sim.record(EXTERNAL, || FaultTrace::CorruptImage { group: *group, hit });
        }
        FaultKind::CorruptDelta { group } => {
            let hit = d.shared_pool.lock().group_mut(*group).corrupt_delta();
            sim.record(EXTERNAL, || FaultTrace::CorruptDelta { group: *group, hit });
        }
        FaultKind::ClearNetwork => {
            let net = sim.net_mut();
            net.heal_all();
            net.clear_shapes();
            net.set_loss_probability(0.0);
            net.set_dup_probability(0.0);
        }
    }
}

/// Run one scenario once. Deterministic in `(scenario, cfg)`.
pub fn run_scenario(sc: &Scenario, cfg: &RunConfig) -> RunReport {
    let mut sim = Sim::new(SimConfig { seed: cfg.seed, ..SimConfig::default() });

    let mut timing = (sc.tune)(MdsTiming::default());
    timing.fault_double_ack = cfg.inject_double_ack;
    let spec = DeploySpec {
        groups: sc.groups,
        standbys_per_group: sc.standbys,
        juniors_per_group: sc.juniors,
        timing,
        ..DeploySpec::default()
    };
    let mut deployment = deploy::build(&mut sim, spec);
    let mut clients = Vec::new();

    let history = History::new();
    let metrics = Metrics::new(false);
    for i in 0..sc.clients {
        let client = deployment.next_client_id();
        let log = history.clone();
        let think = Duration::from_millis(sc.think_ms);
        let node = deployment.add_client_with(
            &mut sim,
            (sc.workload)(i, sc.keys),
            metrics.clone(),
            move |mut c| {
                c.history = Some(Recorder { client, log });
                c.think = think;
                c
            },
        );
        clients.push(node);
    }

    // Compile the program: every action becomes a scheduled callback.
    let program = cfg
        .program
        .clone()
        .unwrap_or_else(|| (sc.faults)(&mut DetRng::seed_from_u64(cfg.seed ^ 0x5EED_CAFE)));
    let t0 = sim.now();
    for action in &program {
        let kind = action.kind.clone();
        let (d, clients) = (deployment.clone(), clients.clone());
        sim.at(t0 + Duration::from_millis(action.at_ms), move |s| {
            apply(s, &d, &clients, &kind);
        });
    }

    sim.run_for(Duration::from_secs(sc.run_secs));

    // Cleanup: lift everything the program may have left standing.
    apply(&mut sim, &deployment, &clients, &FaultKind::ClearNetwork);
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
    fn checker_has_teeth_against_injected_double_ack() {
        // The deliberate bug: the active acks deletes without applying
        // them. Fault-free runs have no retries, hence no echo slack — the
        // checker must convict.
        let rep = run_scenario(
            &scenario::quiet(),
            &RunConfig { seed: 11, inject_double_ack: true, ..Default::default() },
        );
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
