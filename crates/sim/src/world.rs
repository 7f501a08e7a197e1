//! The simulation world: node registry, lifecycle, and the event loop.

use std::collections::{HashMap, HashSet};

use crate::event::{EventKind, EventQueue};
use crate::net::{LatencyModel, Network};
use crate::node::{Ctx, Message, Node, NodeId, TimerId, EXTERNAL};
use crate::rng::DetRng;
use crate::time::{Duration, SimTime};
use crate::trace::{Event, Trace};

/// What the kernel itself records: the lifecycle actions a harness or a
/// fault injector takes on a node, each with the name the node was
/// registered under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimTrace {
    Crashed(String),
    Paused(String),
    Resumed(String),
    Restarted(String),
}

impl Event for SimTrace {}

/// Whether a node's process is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    Up,
    /// Process killed: in-memory state lost, timers invalidated, messages
    /// dropped. Can be brought back with [`Sim::restart`] if a factory was
    /// registered.
    Down,
}

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the single deterministic random stream.
    pub seed: u64,
    /// Whether to record trace events.
    pub trace: bool,
    /// Default link-latency model.
    pub latency: LatencyModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0x0C10_75F5, trace: true, latency: LatencyModel::lan() }
    }
}

struct NodeMeta {
    name: String,
    epoch: u64,
    status: NodeStatus,
    started: bool,
}

/// The part of the world visible to nodes through [`Ctx`]: clock, queue,
/// network, randomness, traces, and node liveness metadata.
pub struct Kernel {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) net: Network,
    pub(crate) rng: DetRng,
    pub(crate) trace: Trace,
    meta: Vec<NodeMeta>,
    /// Nodes that are alive but not being scheduled (long GC pause / stop
    /// signal). Their events accumulate in `backlog` and replay on resume.
    paused: HashSet<NodeId>,
    backlog: HashMap<NodeId, Vec<EventKind>>,
    /// Per-node multiplier on timer delays (clock skew: >1 = slow clock,
    /// timers fire late; <1 = fast clock).
    timer_scale: HashMap<NodeId, f64>,
}

impl Kernel {
    pub(crate) fn send_message(&mut self, from: NodeId, dst: NodeId, msg: Message) {
        if dst == EXTERNAL {
            // Replies to environment-injected messages go nowhere.
            return;
        }
        assert!((dst as usize) < self.meta.len(), "send to unknown node {dst}");
        if from == EXTERNAL {
            let latency = self.net_latency_external();
            self.queue.push(self.now + latency, EventKind::Deliver { from, dst, msg });
            return;
        }
        let fate = self.net.route_fate(from, dst, &mut self.rng);
        if let Some(dup_latency) = fate.duplicate {
            self.queue.push(
                self.now + dup_latency,
                EventKind::Deliver { from, dst, msg: msg.duplicate() },
            );
        }
        if let Some(latency) = fate.deliver {
            self.queue.push(self.now + latency, EventKind::Deliver { from, dst, msg });
        }
    }

    fn net_latency_external(&mut self) -> Duration {
        LatencyModel::local().sample(&mut self.rng)
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, delay: Duration, token: u64) -> TimerId {
        let delay = match self.timer_scale.get(&node) {
            Some(&k) => delay.mul_f64(k),
            None => delay,
        };
        let epoch = self.meta[node as usize].epoch;
        self.queue.arm_timer(self.now + delay, node, epoch, token)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

type Factory = Box<dyn FnMut() -> Box<dyn Node> + Send>;

/// A deterministic discrete-event simulation of a cluster.
///
/// ```
/// use mams_sim::{Sim, SimConfig, Node, Ctx, Message, NodeId, Duration};
///
/// #[derive(Debug)]
/// struct Echo;
/// impl Node for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
///         if from != mams_sim::node::EXTERNAL {
///             ctx.send(from, "pong".to_string());
///         }
///     }
/// }
///
/// let mut sim = Sim::new(SimConfig::default());
/// let a = sim.add_node("a", Box::new(Echo));
/// let b = sim.add_node("b", Box::new(Echo));
/// sim.send_external(a, "kick".to_string());
/// sim.run_for(Duration::from_secs(1));
/// assert!(sim.now() >= mams_sim::SimTime::ZERO);
/// # let _ = (a, b);
/// ```
pub struct Sim {
    kernel: Kernel,
    nodes: Vec<Option<Box<dyn Node>>>,
    factories: Vec<Option<Factory>>,
    /// Some node was added or restarted and has not had `on_start` yet; only
    /// then does `start_pending` need to look at the node slots.
    awaiting_start: bool,
}

impl Sim {
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            kernel: Kernel {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                net: Network::new(cfg.latency),
                rng: DetRng::seed_from_u64(cfg.seed),
                trace: Trace::new(cfg.trace),
                meta: Vec::new(),
                paused: HashSet::new(),
                backlog: HashMap::new(),
                timer_scale: HashMap::new(),
            },
            nodes: Vec::new(),
            factories: Vec::new(),
            awaiting_start: false,
        }
    }

    /// Register a node. It starts (receives `on_start`) when the simulation
    /// next advances.
    pub fn add_node(&mut self, name: impl Into<String>, node: Box<dyn Node>) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Some(node));
        self.factories.push(None);
        self.kernel.meta.push(NodeMeta {
            name: name.into(),
            epoch: 0,
            status: NodeStatus::Up,
            started: false,
        });
        self.awaiting_start = true;
        id
    }

    /// Register a node with a factory so it can be restarted after a crash
    /// (fresh in-memory state, as a real process restart would produce).
    pub fn add_restartable(
        &mut self,
        name: impl Into<String>,
        mut factory: impl FnMut() -> Box<dyn Node> + Send + 'static,
    ) -> NodeId {
        let node = factory();
        let id = self.add_node(name, node);
        self.factories[id as usize] = Some(Box::new(factory));
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Network model handle (for partitions / loss injection).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.kernel.net
    }

    /// Recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.kernel.trace
    }

    /// Record a trace event on behalf of `node` from outside any callback (a
    /// control action); `event` is evaluated only when tracing is on.
    pub fn record<E: Event>(&mut self, node: NodeId, event: impl FnOnce() -> E) {
        self.kernel.trace.record(self.kernel.now, node, event);
    }

    /// Record a control action on a node, named as it was registered.
    fn trace_control(&mut self, id: NodeId, action: fn(String) -> SimTrace) {
        let Kernel { now, trace, meta, .. } = &mut self.kernel;
        trace.record(*now, id, || action(meta[id as usize].name.clone()));
    }

    pub fn node_status(&self, id: NodeId) -> NodeStatus {
        self.kernel.meta[id as usize].status
    }

    /// How many times the node has crashed or restarted: an action scheduled
    /// for one incarnation of a process compares it to skip the next.
    pub fn epoch(&self, id: NodeId) -> u64 {
        self.kernel.meta[id as usize].epoch
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Read a node's state back between events: `None` when the node is
    /// down or is not a `T`.
    pub fn node<T: Node>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Node = self.nodes.get(id as usize)?.as_deref()?;
        (node as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Events the kernel holds: the queue (a cancelled timer's entry counts
    /// until it is swept or popped) and the backlogs of paused nodes. However
    /// many timers were cancelled, their entries never outnumber the live
    /// events by more than a constant when a cancel returns.
    pub fn queued_events(&self) -> usize {
        self.kernel.queue.len() + self.kernel.backlog.values().map(Vec::len).sum::<usize>()
    }

    /// Inject a message from outside the cluster.
    pub fn send_external<T: crate::node::AnyMessage>(&mut self, dst: NodeId, payload: T) {
        self.kernel.send_message(EXTERNAL, dst, Message::new(payload));
    }

    /// Schedule a control action (fault injection, measurement probe) at an
    /// absolute virtual time.
    pub fn at(&mut self, when: SimTime, f: impl FnOnce(&mut Sim) + Send + 'static) {
        assert!(when >= self.kernel.now, "control action scheduled in the past");
        self.kernel.queue.push(when, EventKind::Control(Box::new(f)));
    }

    /// Schedule a control action `delay` from now.
    pub fn after(&mut self, delay: Duration, f: impl FnOnce(&mut Sim) + Send + 'static) {
        let when = self.kernel.now + delay;
        self.kernel.queue.push(when, EventKind::Control(Box::new(f)));
    }

    /// Kill a node's process: state and timers are lost, queued deliveries
    /// will be dropped.
    pub fn crash(&mut self, id: NodeId) {
        let m = &mut self.kernel.meta[id as usize];
        if m.status == NodeStatus::Down {
            return;
        }
        m.status = NodeStatus::Down;
        m.epoch += 1;
        self.nodes[id as usize] = None;
        // A crash also ends any pause and discards buffered events: the
        // process is gone, nothing will drain its socket buffers. Its timers
        // still in the queue are dropped as they come due; the ones that came
        // due during the pause end here.
        self.kernel.paused.remove(&id);
        for ev in self.kernel.backlog.remove(&id).unwrap_or_default() {
            if let EventKind::Timer { id: timer, .. } = ev {
                self.kernel.queue.cancel_timer(timer);
            }
        }
        self.trace_control(id, SimTrace::Crashed);
    }

    /// Freeze a node without killing it (long GC pause, SIGSTOP): its state
    /// survives, but no callbacks run until [`Sim::resume`]. Messages and
    /// timers that come due meanwhile are buffered and replayed — all at
    /// once, in arrival order — when the node wakes. No-op if down.
    pub fn pause(&mut self, id: NodeId) {
        if self.node_status(id) != NodeStatus::Up {
            return;
        }
        if self.kernel.paused.insert(id) {
            self.trace_control(id, SimTrace::Paused);
        }
    }

    /// Wake a paused node and replay its buffered events at the current
    /// virtual time. No-op if the node was not paused.
    pub fn resume(&mut self, id: NodeId) {
        if !self.kernel.paused.remove(&id) {
            return;
        }
        self.trace_control(id, SimTrace::Resumed);
        let now = self.kernel.now;
        if let Some(events) = self.kernel.backlog.remove(&id) {
            // Pushed at `now` in buffered order; the queue keeps same-time
            // events FIFO by insertion sequence, so the backlog drains in
            // original arrival order. A timer cancelled while it waited here
            // is left out.
            for ev in events {
                self.kernel.queue.unpark(now, ev);
            }
        }
    }

    /// Whether the node is currently paused.
    pub fn is_paused(&self, id: NodeId) -> bool {
        self.kernel.paused.contains(&id)
    }

    /// Skew a node's clock: every timer it arms from now on has its delay
    /// multiplied by `factor` (>1 = slow clock, heartbeats and timeouts fire
    /// late). `1.0` removes the skew.
    pub fn set_clock_skew(&mut self, id: NodeId, factor: f64) {
        assert!(factor > 0.0, "clock skew factor must be positive");
        if factor == 1.0 {
            self.kernel.timer_scale.remove(&id);
        } else {
            self.kernel.timer_scale.insert(id, factor);
        }
    }

    /// Restart a crashed node from its factory (fresh state). Panics if the
    /// node is up or was registered without a factory.
    pub fn restart(&mut self, id: NodeId) {
        assert_eq!(self.node_status(id), NodeStatus::Down, "restart of a live node");
        let factory =
            self.factories[id as usize].as_mut().expect("restart requires add_restartable");
        let node = factory();
        self.nodes[id as usize] = Some(node);
        let m = &mut self.kernel.meta[id as usize];
        m.status = NodeStatus::Up;
        m.epoch += 1;
        m.started = false;
        self.awaiting_start = true;
        self.trace_control(id, SimTrace::Restarted);
        self.start_pending();
    }

    fn start_pending(&mut self) {
        if !std::mem::take(&mut self.awaiting_start) {
            return;
        }
        for id in 0..self.nodes.len() {
            let meta = &self.kernel.meta[id];
            if meta.status == NodeStatus::Up && !meta.started {
                self.kernel.meta[id].started = true;
                self.with_node(id as NodeId, |node, ctx| node.on_start(ctx));
            }
        }
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        let mut node = match self.nodes[id as usize].take() {
            Some(n) => n,
            None => return,
        };
        {
            let mut ctx = Ctx { kernel: &mut self.kernel, id };
            f(node.as_mut(), &mut ctx);
        }
        // The node may have been crashed by a control action only outside
        // this callback, so the slot is still ours to restore.
        self.nodes[id as usize] = Some(node);
    }

    /// Virtual time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.kernel.queue.peek_time()
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_pending();
        let ev = match self.kernel.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(ev.at >= self.kernel.now, "time went backwards");
        self.kernel.now = ev.at;
        match ev.kind {
            EventKind::Deliver { from, dst, msg } => {
                let meta = &self.kernel.meta[dst as usize];
                if meta.status != NodeStatus::Up {
                    return true;
                }
                // Messages in flight are lost if the cable is pulled before
                // delivery.
                if from != EXTERNAL && !self.kernel.net.connected(from, dst) {
                    return true;
                }
                // A paused destination buffers the message (socket buffer of
                // a frozen process); it replays on resume.
                if self.kernel.paused.contains(&dst) {
                    self.kernel.backlog.entry(dst).or_default().push(EventKind::Deliver {
                        from,
                        dst,
                        msg,
                    });
                    return true;
                }
                self.with_node(dst, |node, ctx| node.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, epoch, id, token } => {
                // A timer that comes due during a pause stays armed and
                // fires (late) at resume, with cancellation and epoch
                // re-checked then.
                let paused = self.kernel.paused.contains(&node);
                if !self.kernel.queue.take_due(id, paused) {
                    return true;
                }
                if paused {
                    let parked = EventKind::Timer { node, epoch, id, token };
                    self.kernel.backlog.entry(node).or_default().push(parked);
                    return true;
                }
                let meta = &self.kernel.meta[node as usize];
                if meta.status != NodeStatus::Up || meta.epoch != epoch {
                    return true;
                }
                self.with_node(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::Control(f) => f(self),
        }
        true
    }

    /// Run until the queue drains or virtual time reaches `deadline`
    /// (whichever is first); the clock is then advanced to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_pending();
        while let Some(t) = self.kernel.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.kernel.now < deadline {
            self.kernel.now = deadline;
        }
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.kernel.now + d;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::EXTERNAL;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Debug)]
    struct Counter {
        hits: Arc<AtomicU64>,
        peer: Option<NodeId>,
    }

    impl Node for Counter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _msg: Message) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if from != EXTERNAL {
                if let Some(p) = self.peer {
                    if p == from {
                        // no echo storm
                        return;
                    }
                }
            }
            if let Some(p) = self.peer {
                ctx.send(p, 1u32);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token, 1);
            self.hits.fetch_add(100, Ordering::Relaxed);
        }
    }

    fn mk(hits: Arc<AtomicU64>, peer: Option<NodeId>) -> Box<dyn Node> {
        Box::new(Counter { hits, peer })
    }

    #[test]
    fn timers_fire_once_at_the_right_time() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("n", mk(hits.clone(), None));
        sim.run_for(Duration::from_millis(5));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        sim.run_for(Duration::from_millis(10));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn messages_are_delivered_with_latency() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", mk(hits.clone(), None));
        sim.send_external(a, 0u32);
        sim.run_for(Duration::from_millis(1));
        assert_eq!(hits.load(Ordering::Relaxed) % 100, 1);
    }

    #[test]
    fn crash_drops_state_timers_and_messages() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let h = hits.clone();
        let a = sim.add_restartable("a", move || mk(h.clone(), None));
        sim.run_for(Duration::from_millis(1));
        sim.crash(a);
        sim.send_external(a, 0u32);
        sim.run_for(Duration::from_secs(1));
        // Neither the pending start timer nor the message should land.
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert_eq!(sim.node_status(a), NodeStatus::Down);
    }

    #[test]
    fn restart_re_runs_on_start_with_fresh_state() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let h = hits.clone();
        let a = sim.add_restartable("a", move || mk(h.clone(), None));
        sim.run_for(Duration::from_millis(20));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        sim.crash(a);
        sim.run_for(Duration::from_millis(5));
        sim.restart(a);
        sim.run_for(Duration::from_millis(20));
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        assert_eq!(sim.node_status(a), NodeStatus::Up);
    }

    #[test]
    fn a_live_node_reads_back_by_its_type() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let h = hits.clone();
        let a = sim.add_restartable("a", move || mk(h.clone(), Some(7)));
        sim.run_for(Duration::from_millis(20));
        assert_eq!(sim.node::<Counter>(a).map(|c| c.peer), Some(Some(7)));
        struct Other;
        impl Node for Other {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        assert!(sim.node::<Other>(a).is_none(), "another type");
        assert!(sim.node::<Counter>(a + 1).is_none(), "no such node");
        sim.crash(a);
        assert!(sim.node::<Counter>(a).is_none(), "a crashed node has no state");
    }

    #[test]
    fn partition_blocks_messages_in_flight() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", mk(hits.clone(), None));
        let b = sim.add_node("b", mk(Arc::new(AtomicU64::new(0)), Some(a)));
        // b forwards external pokes to a; cut the link first.
        sim.net_mut().cut(a, b);
        sim.send_external(b, 0u32);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(hits.load(Ordering::Relaxed), 100, "only a's own timer");
    }

    #[test]
    fn control_actions_run_at_their_time() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", mk(Arc::new(AtomicU64::new(0)), None));
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        sim.at(SimTime(5_000_000), move |sim| {
            s.store(sim.now().micros(), Ordering::Relaxed);
            sim.crash(a);
        });
        sim.run_for(Duration::from_secs(10));
        assert_eq!(seen.load(Ordering::Relaxed), 5_000_000);
        assert_eq!(sim.node_status(a), NodeStatus::Down);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn run(seed: u64) -> String {
            let hits = Arc::new(AtomicU64::new(0));
            let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
            let a = sim.add_node("a", mk(hits.clone(), None));
            let h2 = Arc::new(AtomicU64::new(0));
            let b = sim.add_node("b", mk(h2, Some(a)));
            sim.send_external(b, 0u32);
            sim.at(SimTime(2_000), move |s| s.crash(a));
            sim.run_for(Duration::from_secs(1));
            sim.trace().to_string()
        }
        assert_eq!(run(7), run(7));
        // And the run is not trivially empty.
        assert!(!run(7).is_empty());
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::new(SimConfig::default());
        sim.run_until(SimTime(123));
        assert_eq!(sim.now(), SimTime(123));
    }

    #[test]
    fn paused_node_buffers_and_replays_on_resume() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", mk(hits.clone(), None));
        sim.run_for(Duration::from_millis(20)); // start timer fired: 100
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        sim.pause(a);
        assert!(sim.is_paused(a));
        for _ in 0..3 {
            sim.send_external(a, 0u32);
        }
        sim.run_for(Duration::from_secs(1));
        // Frozen: nothing processed, nothing lost.
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        sim.resume(a);
        sim.run_for(Duration::from_millis(1));
        assert_eq!(hits.load(Ordering::Relaxed), 103, "backlog replays on resume");
    }

    #[test]
    fn crash_while_paused_discards_backlog() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let h = hits.clone();
        let a = sim.add_restartable("a", move || mk(h.clone(), None));
        sim.run_for(Duration::from_millis(20));
        sim.pause(a);
        sim.send_external(a, 0u32);
        sim.run_for(Duration::from_millis(10));
        sim.crash(a);
        assert!(!sim.is_paused(a));
        sim.restart(a);
        sim.run_for(Duration::from_secs(1));
        // Two start-timer firings, but the buffered message died with the
        // process.
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn clock_skew_delays_timers() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", mk(hits.clone(), None));
        sim.set_clock_skew(a, 10.0);
        // The 10ms start timer now takes 100ms of real (virtual) time.
        sim.run_for(Duration::from_millis(50));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        sim.run_for(Duration::from_millis(60));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        sim.set_clock_skew(a, 1.0); // removes the skew without panicking
    }

    #[test]
    fn network_duplication_delivers_twice() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node("a", mk(hits.clone(), None));
        let b = sim.add_node("b", mk(Arc::new(AtomicU64::new(0)), Some(a)));
        sim.net_mut().set_dup_probability(1.0);
        // b forwards the external poke to a; a receives it twice (external
        // sends bypass the network model, node-to-node sends do not).
        sim.send_external(b, 0u32);
        sim.run_for(Duration::from_millis(5));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    type Shared<T> = Arc<Mutex<T>>;

    /// Arms one timer (token 7) when it starts, leaves the id where the test
    /// and a [`Canceller`] can reach it, and logs what is delivered to it.
    /// On the message `"cancel"` it takes its own timer back.
    struct Owner {
        delay: Duration,
        id: Shared<Option<TimerId>>,
        log: Shared<Vec<&'static str>>,
    }

    impl Node for Owner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let id = ctx.set_timer(self.delay, 7);
            // The first incarnation's id is the one the tests cancel.
            self.id.lock().unwrap().get_or_insert(id);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token, 7);
            self.log.lock().unwrap().push("timer");
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: NodeId, msg: Message) {
            let what = msg.downcast::<&'static str>().unwrap();
            self.log.lock().unwrap().push(what);
            if what == "cancel" {
                ctx.cancel_timer(self.id.lock().unwrap().unwrap());
            }
        }
    }

    /// Cancels the shared id whenever it is poked.
    struct Canceller(Shared<Option<TimerId>>);

    impl Node for Canceller {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: NodeId, _: Message) {
            ctx.cancel_timer(self.0.lock().unwrap().expect("the owner started first"));
        }
    }

    struct Rig {
        sim: Sim,
        owner: NodeId,
        canceller: NodeId,
        log: Shared<Vec<&'static str>>,
    }

    /// A restartable [`Owner`] whose timer is due at `due_ms`, and a
    /// [`Canceller`] holding the first incarnation's id.
    fn rig(due_ms: u64) -> Rig {
        let mut sim = Sim::new(SimConfig::default());
        let (id, log) = (Shared::default(), Shared::default());
        let (i, l) = (id.clone(), log.clone());
        let owner = sim.add_restartable("owner", move || {
            Box::new(Owner { delay: Duration::from_millis(due_ms), id: i.clone(), log: l.clone() })
        });
        let canceller = sim.add_node("canceller", Box::new(Canceller(id)));
        Rig { sim, owner, canceller, log }
    }

    impl Rig {
        fn at_ms(&mut self, ms: u64, f: impl FnOnce(&mut Sim) + Send + 'static) {
            self.sim.at(SimTime(ms * 1_000), f);
        }
        fn poke_at_ms(&mut self, ms: u64, dst: NodeId, what: &'static str) {
            self.at_ms(ms, move |sim| sim.send_external(dst, what));
        }
        /// Run everything out and check that the kernel remembers no timer:
        /// no entry, live or dead, in the queue or a backlog, and no row of
        /// the timer table in use.
        fn finish(mut self) -> Vec<&'static str> {
            self.sim.run_for(Duration::from_secs(1));
            assert_eq!(self.sim.queued_events(), 0);
            assert!(self.sim.kernel.queue.holds_no_timer(), "{:?}", self.sim.kernel.queue);
            let log = self.log.lock().unwrap().clone();
            log
        }
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let mut r = rig(10);
        r.poke_at_ms(5, r.canceller, "");
        assert_eq!(r.finish(), Vec::<&str>::new());
    }

    /// At the parent the kernel kept the id of a timer cancelled after it
    /// fired for the life of the `Sim`.
    #[test]
    fn cancelling_a_fired_timer_is_a_noop_and_leaves_no_record() {
        let mut r = rig(2);
        // The fired timer's row of the table is free; the next incarnation's
        // timer (due at 6 ms) takes it under a new generation, and the stale
        // id must not reach it.
        let owner = r.owner;
        r.at_ms(4, move |sim| {
            sim.crash(owner);
            sim.restart(owner);
        });
        r.poke_at_ms(5, r.canceller, "");
        assert_eq!(r.finish(), ["timer", "timer"]);
    }

    #[test]
    fn cancelling_a_crashed_incarnations_timer_is_a_noop_and_leaves_no_record() {
        let mut r = rig(10);
        let owner = r.owner;
        r.at_ms(1, move |sim| sim.crash(owner));
        r.poke_at_ms(2, r.canceller, "");
        // The new incarnation's timer reuses the row while the old one's
        // entry is still queued.
        r.at_ms(3, move |sim| sim.restart(owner));
        assert_eq!(r.finish(), ["timer"]);
    }

    #[test]
    fn a_timer_cancelled_in_a_paused_nodes_backlog_is_suppressed_at_resume() {
        // Who cancels: nobody, another node during the pause, or the owner
        // itself on a message that was buffered ahead of the timer.
        let cases: [(&str, &[&str]); 3] = [
            ("nobody", &["m1", "timer", "m2"]),
            ("canceller", &["m1", "m2"]),
            ("owner", &["cancel", "m2"]),
        ];
        for (who, delivered) in cases {
            let mut r = rig(10);
            let owner = r.owner;
            r.at_ms(5, move |sim| sim.pause(owner));
            r.poke_at_ms(8, owner, if who == "owner" { "cancel" } else { "m1" });
            r.poke_at_ms(12, owner, "m2");
            if who == "canceller" {
                r.poke_at_ms(15, r.canceller, "");
            }
            r.at_ms(20, move |sim| {
                assert_eq!(sim.queued_events(), 3, "two messages and the timer wait");
                sim.resume(owner);
            });
            assert_eq!(r.finish(), delivered, "cancelled by {who}");
        }
    }

    #[test]
    fn a_crash_while_paused_ends_the_backlogs_timers() {
        let mut r = rig(10);
        let owner = r.owner;
        r.at_ms(5, move |sim| sim.pause(owner));
        r.at_ms(15, move |sim| {
            let held = sim.queued_events();
            sim.crash(owner);
            assert_eq!(sim.queued_events(), held - 1, "the timer came due during the pause");
            sim.restart(owner);
        });
        // Nothing is left to cancel.
        r.poke_at_ms(16, r.canceller, "");
        assert_eq!(r.finish(), ["timer"]);
    }

    /// Many more cancels than the sweep threshold: the queue stays the size
    /// of what is live, and what is live fires.
    #[test]
    fn cancelled_entries_are_swept_once_they_outnumber_live_ones() {
        struct Churn {
            fired: Shared<Vec<u64>>,
        }
        impl Node for Churn {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..10_000 {
                    let id = ctx.set_timer(Duration::from_millis(1 + i % 50), i);
                    if i % 100 != 0 {
                        ctx.cancel_timer(id);
                    }
                }
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.fired.lock().unwrap().push(token);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        let fired = Shared::default();
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("churn", Box::new(Churn { fired: fired.clone() }));
        sim.run_for(Duration::ZERO);
        let live = 100;
        assert!(sim.queued_events() <= live + live.max(crate::event::SWEEP_MIN_DEAD));
        sim.run_for(Duration::from_secs(1));
        let mut fired = fired.lock().unwrap().clone();
        assert_eq!(fired.len(), live);
        // Same due time: in the order armed. (i % 50, then i.)
        assert!(fired.windows(2).all(|w| (w[0] % 50, w[0]) < (w[1] % 50, w[1])));
        fired.sort_unstable();
        assert!(fired.iter().all(|i| i % 100 == 0));
        assert!(sim.kernel.queue.holds_no_timer());
    }
}
