//! Fault injection: one vocabulary for the paper's three error classes and
//! the gray failures the chaos campaign composes from.
//!
//! * **Test A** — "modifying the global view to make the active lose the
//!   lock": [`FaultKind::LockLoss`] force-expires the victim's coordination
//!   session.
//! * **Test B** — "unplugging and reconnecting network wires":
//!   [`FaultKind::Unplug`] isolates a node's NIC for a while;
//!   [`FaultKind::Partition`] cuts between two named sides and
//!   [`FaultKind::OneWay`] only one direction (asymmetric gray failure).
//! * **Test C** — "shutting down and restarting processes":
//!   [`FaultKind::Crash`], with a restart of the node it killed `restart_ms`
//!   later (fresh in-memory state on restart, like a real process).
//! * **Gray failures** — pauses, slow nodes, network-wide loss and
//!   duplication, clock skew, and corrupted pool artifacts.
//!
//! A fault names its targets by [`NodeRef`] because the interesting nodes
//! move: by the time the second fault of a run fires, the active may be two
//! failovers away from where it started. [`inject`] resolves the targets
//! against the deployment and the coordinator's view when the fault fires.
//! A fault carries its own end (a restart, a resume, a heal, a cleared
//! shape or rate): no kind needs a partner action, and an end acts on the
//! nodes the start hit and never resolves them again.

use mams_coord::{CoordReq, CoordServer};
use mams_core::ViewKey;
use mams_sim::node::EXTERNAL;
use mams_sim::{Duration, Event, LinkShape, Network, NodeId, NodeStatus, Sim, SimTime};

use crate::deploy::Deployment;

/// A symbolic node reference, resolved when the fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// The coordination server.
    Coord,
    /// The `i`-th shared-storage-pool node.
    Pool(usize),
    /// A replica-group member by boot index (0 = boot active).
    Member { group: u32, idx: usize },
    /// Whoever the view says is the group's active *right now*.
    Active { group: u32 },
    /// The first group member that is currently *not* the active (a hot
    /// standby if any is up, else a junior).
    BackupOf { group: u32 },
    /// Every client the deployment added, as a set. Only meaningful in the
    /// set-valued positions of [`FaultKind::Partition`] /
    /// [`FaultKind::OneWay`] (it resolves to nothing as a single-node
    /// target) — used to cut the reply path so clients must retry.
    Clients,
}

/// One fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill the node (state lost; restartable), and restart that same node
    /// `restart_ms` later when given.
    Crash { node: NodeRef, restart_ms: Option<u64> },
    /// Force the node's coordination session to expire (Test A).
    LockLoss(NodeRef),
    /// Unplug the node's network cable; plug it back `heal_ms` later
    /// (Test B).
    Unplug { node: NodeRef, heal_ms: u64 },
    /// Freeze the process without killing it (gray failure: a zombie that
    /// later resumes believing it still holds its old role), and resume
    /// that same node `resume_ms` later.
    Pause { node: NodeRef, resume_ms: u64 },
    /// Cut every link between the two sides (both directions). Nodes
    /// outside both sides keep full connectivity — unlike
    /// [`FaultKind::Unplug`]'s node-vs-world isolation.
    Partition { a: Vec<NodeRef>, b: Vec<NodeRef>, heal_ms: Option<u64> },
    /// Cut only `from → to` (asymmetric partition: acks flow, data does
    /// not).
    OneWay { from: Vec<NodeRef>, to: Vec<NodeRef>, heal_ms: Option<u64> },
    /// Multiply every delivery latency on links touching the node
    /// (gray-slow node, not dead — heartbeats still arrive, late).
    SlowNode { node: NodeRef, factor: f64, clear_ms: Option<u64> },
    /// Network-wide independent message loss, set back to 0 `clear_ms`
    /// later.
    GlobalLoss { p: f64, clear_ms: u64 },
    /// Network-wide independent message duplication, set back to 0
    /// `clear_ms` later.
    GlobalDup { p: f64, clear_ms: u64 },
    /// Run the node's timers at `factor` speed (clock skew; 1.0 = clear).
    ClockSkew { node: NodeRef, factor: f64 },
    /// Flip a byte in the group's checkpoint image in the shared pool
    /// (silent storage corruption mid-catch-up).
    CorruptImage { group: u32 },
    /// Flip a byte in a mid-chain delta artifact (silent corruption of an
    /// incremental checkpoint; consumers must fall back down the recovery
    /// ladder, never apply the damage).
    CorruptDelta { group: u32 },
}

/// A fault at a time: one step of a fault program.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAction {
    /// Milliseconds after the program starts.
    pub at_ms: u64,
    pub kind: FaultKind,
}

impl FaultAction {
    pub fn at(at_ms: u64, kind: FaultKind) -> Self {
        FaultAction { at_ms, kind }
    }
}

/// What a fault records that the kernel does not: its faults on the shared
/// pool's contents, and whether each found something to hit.
#[derive(Debug)]
pub enum FaultTrace {
    CorruptImage { group: u32, hit: bool },
    CorruptDelta { group: u32, hit: bool },
}

impl Event for FaultTrace {}

/// Schedule `kind` at `at`. Its targets resolve when it fires, against the
/// view then and against `d` as it is now: a client added later is not in
/// [`NodeRef::Clients`].
pub fn inject(sim: &mut Sim, d: &Deployment, at: SimTime, kind: FaultKind) {
    let d = d.clone();
    sim.at(at, move |s| apply(s, &d, &kind));
}

/// The group's current active according to the coordinator `coord`: the
/// value of the group's active pointer in the global view.
pub fn active_of(sim: &Sim, coord: NodeId, group: u32) -> Option<NodeId> {
    let view: &CoordServer = sim.node(coord)?;
    view.get(&ViewKey::Active(group).to_string())?.parse().ok()
}

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
        // A set, not a node: only the set-valued positions (`links`)
        // expand it.
        NodeRef::Clients => None,
    }
}

/// Resolve a set of references; [`NodeRef::Clients`] is `d.clients`.
fn resolve_all(sim: &Sim, d: &Deployment, refs: &[NodeRef]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for &r in refs {
        match r {
            NodeRef::Clients => out.extend(&d.clients),
            _ => out.extend(resolve(sim, d, r)),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Every `(from, to)` pair of the two resolved sides; a node is never
/// paired with itself.
fn links(sim: &Sim, d: &Deployment, from: &[NodeRef], to: &[NodeRef]) -> Vec<(NodeId, NodeId)> {
    let to = resolve_all(sim, d, to);
    let from = resolve_all(sim, d, from);
    from.iter().flat_map(|&f| to.iter().filter(move |&&t| t != f).map(move |&t| (f, t))).collect()
}

type LinkOp = fn(&mut Network, NodeId, NodeId);

/// `cut` every link now; `heal` the same links `heal_ms` later, if given.
fn sever(
    sim: &mut Sim,
    links: Vec<(NodeId, NodeId)>,
    heal_ms: Option<u64>,
    cut: LinkOp,
    heal: LinkOp,
) {
    for &(a, b) in &links {
        cut(sim.net_mut(), a, b);
    }
    end_after(sim, heal_ms, move |s| {
        for &(a, b) in &links {
            heal(s.net_mut(), a, b);
        }
    });
}

/// Run `end` `ms` later, if given.
fn end_after(sim: &mut Sim, ms: Option<u64>, end: impl FnOnce(&mut Sim) + Send + 'static) {
    if let Some(ms) = ms {
        sim.after(Duration::from_millis(ms), end);
    }
}

/// Apply one fault right now and schedule its end, if it has one. Status
/// guards make a start a no-op when its target is already in the desired
/// state (two faults can hit one node). A restart, resume or cleared rate
/// acts only while its own fault is in force: not once the node crashed or
/// restarted since (the engine's cleanup, which an end can outlast, restarts
/// it too), nor once a later fault set another rate.
fn apply(sim: &mut Sim, d: &Deployment, kind: &FaultKind) {
    match kind {
        FaultKind::Crash { node, restart_ms } => {
            let Some(n) = resolve(sim, d, *node) else { return };
            if sim.node_status(n) != NodeStatus::Up {
                return;
            }
            sim.crash(n);
            let epoch = sim.epoch(n);
            end_after(sim, *restart_ms, move |s| {
                if s.epoch(n) == epoch {
                    s.restart(n);
                }
            });
        }
        FaultKind::LockLoss(r) => {
            if let Some(victim) = resolve(sim, d, *r) {
                sim.send_external(d.coord, CoordReq::ForceExpire { victim });
            }
        }
        FaultKind::Unplug { node, heal_ms } => {
            if let Some(n) = resolve(sim, d, *node) {
                sim.net_mut().isolate(n);
                sim.after(Duration::from_millis(*heal_ms), move |s| s.net_mut().rejoin(n));
            }
        }
        FaultKind::Pause { node, resume_ms } => {
            let Some(n) = resolve(sim, d, *node) else { return };
            if sim.node_status(n) != NodeStatus::Up || sim.is_paused(n) {
                return;
            }
            sim.pause(n);
            let epoch = sim.epoch(n);
            sim.after(Duration::from_millis(*resume_ms), move |s| {
                if s.epoch(n) == epoch {
                    s.resume(n);
                }
            });
        }
        FaultKind::Partition { a, b, heal_ms } => {
            let links = links(sim, d, a, b);
            sever(sim, links, *heal_ms, Network::cut, Network::heal);
        }
        FaultKind::OneWay { from, to, heal_ms } => {
            let links = links(sim, d, from, to);
            sever(sim, links, *heal_ms, Network::cut_one_way, Network::heal_one_way);
        }
        FaultKind::SlowNode { node, factor, clear_ms } => {
            if let Some(n) = resolve(sim, d, *node) {
                sim.net_mut().shape_node(n, LinkShape::slow(*factor));
                end_after(sim, *clear_ms, move |s| s.net_mut().clear_node_shape(n));
            }
        }
        FaultKind::GlobalLoss { p, clear_ms } => {
            let p = *p;
            sim.net_mut().set_loss_probability(p);
            sim.after(Duration::from_millis(*clear_ms), move |s| {
                if s.net_mut().loss_probability() == p {
                    s.net_mut().set_loss_probability(0.0);
                }
            });
        }
        FaultKind::GlobalDup { p, clear_ms } => {
            let p = *p;
            sim.net_mut().set_dup_probability(p);
            sim.after(Duration::from_millis(*clear_ms), move |s| {
                if s.net_mut().dup_probability() == p {
                    s.net_mut().set_dup_probability(0.0);
                }
            });
        }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_sim::{Ctx, DetRng, Message, Node, SimConfig};

    struct Idle;
    impl Node for Idle {
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
    }

    /// `n` idle restartable nodes as the one group of a deployment whose
    /// coordinator is the first of them.
    fn idle_group(n: usize) -> (Sim, Deployment) {
        let mut sim = Sim::new(SimConfig::default());
        let members: Vec<NodeId> =
            (0..n).map(|i| sim.add_restartable(format!("n{i}"), || Box::new(Idle))).collect();
        let d = Deployment::one_group(members[0], Vec::new(), members);
        (sim, d)
    }

    fn member(idx: usize) -> NodeRef {
        NodeRef::Member { group: 0, idx }
    }

    #[test]
    fn crash_restart_cycle() {
        let (mut sim, d) = idle_group(1);
        let kind = FaultKind::Crash { node: member(0), restart_ms: Some(2_000) };
        inject(&mut sim, &d, SimTime(1_000_000), kind);
        let n = d.initial_active(0);
        sim.run_until(SimTime(1_500_000));
        assert_eq!(sim.node_status(n), NodeStatus::Down);
        sim.run_until(SimTime(3_500_000));
        assert_eq!(sim.node_status(n), NodeStatus::Up);
    }

    #[test]
    fn pause_resume_cycle() {
        let (mut sim, d) = idle_group(1);
        let kind = FaultKind::Pause { node: member(0), resume_ms: 2_000 };
        inject(&mut sim, &d, SimTime(1_000_000), kind);
        let n = d.initial_active(0);
        sim.run_until(SimTime(1_500_000));
        assert!(sim.is_paused(n));
        sim.run_until(SimTime(3_500_000));
        assert!(!sim.is_paused(n));
    }

    #[test]
    fn global_loss_and_dup_clear() {
        let (mut sim, d) = idle_group(2);
        let (a, b) = (d.groups[0].members[0], d.groups[0].members[1]);
        let loss = FaultKind::GlobalLoss { p: 1.0, clear_ms: 1_000 };
        let dup = FaultKind::GlobalDup { p: 1.0, clear_ms: 2_000 };
        inject(&mut sim, &d, SimTime(1_000_000), loss);
        inject(&mut sim, &d, SimTime(1_000_000), dup);
        let fate = |sim: &mut Sim| {
            let f = sim.net_mut().route_fate(a, b, &mut DetRng::seed_from_u64(1));
            (f.deliver.is_some(), f.duplicate.is_some())
        };
        sim.run_until(SimTime(1_500_000));
        assert_eq!(fate(&mut sim), (false, false), "every message lost");
        sim.run_until(SimTime(2_500_000));
        assert_eq!(fate(&mut sim), (true, true), "loss cleared, every message doubled");
        sim.run_until(SimTime(3_500_000));
        assert_eq!(fate(&mut sim), (true, false), "both cleared");
    }

    #[test]
    fn an_end_leaves_a_later_fault_standing() {
        let (mut sim, d) = idle_group(2);
        let (p, c) = (d.groups[0].members[0], d.groups[0].members[1]);
        let ms = |t: u64| SimTime(t * 1_000);
        let pause = |resume_ms| FaultKind::Pause { node: member(0), resume_ms };
        let crash = |restart_ms| FaultKind::Crash { node: member(1), restart_ms: Some(restart_ms) };
        let loss = |p, clear_ms| FaultKind::GlobalLoss { p, clear_ms };
        // The first of each pair ends at 4 s, inside the second.
        inject(&mut sim, &d, ms(1_000), pause(3_000));
        inject(
            &mut sim,
            &d,
            ms(1_500),
            FaultKind::Crash { node: member(0), restart_ms: Some(500) },
        );
        inject(&mut sim, &d, ms(2_500), pause(5_000));
        inject(&mut sim, &d, ms(1_000), crash(3_000));
        inject(&mut sim, &d, ms(2_500), crash(5_000));
        inject(&mut sim, &d, ms(1_000), loss(0.5, 3_000));
        inject(&mut sim, &d, ms(2_500), loss(0.25, 5_000));
        sim.run_until(ms(2_000));
        sim.restart(c); // what the engine's cleanup does
        sim.run_until(ms(5_000));
        assert!(sim.is_paused(p), "the first pause's resume skips the second pause");
        assert_eq!(sim.node_status(c), NodeStatus::Down, "and the first restart the second crash");
        assert_eq!(sim.net_mut().loss_probability(), 0.25, "and the first clear the second rate");
        sim.run_until(ms(8_000));
        assert!(!sim.is_paused(p));
        assert_eq!(sim.node_status(c), NodeStatus::Up);
        assert_eq!(sim.net_mut().loss_probability(), 0.0);
    }

    #[test]
    fn unplug_cycle() {
        let (mut sim, d) = idle_group(2);
        let (a, b) = (d.groups[0].members[0], d.groups[0].members[1]);
        inject(
            &mut sim,
            &d,
            SimTime(1_000_000),
            FaultKind::Unplug { node: member(0), heal_ms: 1_000 },
        );
        sim.run_until(SimTime(1_100_000));
        assert!(!sim.net_mut().connected(a, b));
        sim.run_until(SimTime(2_100_000));
        assert!(sim.net_mut().connected(a, b));
    }

    #[test]
    fn partition_cuts_only_between_named_sides() {
        let (mut sim, d) = idle_group(3);
        let m = d.groups[0].members.clone();
        let (a, b, c) = (m[0], m[1], m[2]);
        let kind =
            FaultKind::Partition { a: vec![member(0)], b: vec![member(1)], heal_ms: Some(1_000) };
        inject(&mut sim, &d, SimTime(1_000_000), kind);
        sim.run_until(SimTime(1_100_000));
        assert!(!sim.net_mut().connected(a, b));
        assert!(sim.net_mut().connected(a, c), "third parties unaffected");
        assert!(sim.net_mut().connected(b, c));
        sim.run_until(SimTime(2_100_000));
        assert!(sim.net_mut().connected(a, b), "healed");
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let (mut sim, d) = idle_group(2);
        let (a, b) = (d.groups[0].members[0], d.groups[0].members[1]);
        let kind =
            FaultKind::OneWay { from: vec![member(0)], to: vec![member(1)], heal_ms: Some(1_000) };
        inject(&mut sim, &d, SimTime(1_000_000), kind);
        sim.run_until(SimTime(1_100_000));
        assert!(!sim.net_mut().connected(a, b), "a→b cut");
        assert!(sim.net_mut().connected(b, a), "b→a flows");
        sim.run_until(SimTime(2_100_000));
        assert!(sim.net_mut().connected(a, b), "healed");
    }
}
