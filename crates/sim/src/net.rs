//! Network model: per-link latency, message loss, partitions, and gray
//! failures.
//!
//! The paper's Test B ("take out / plug back network wires", Table II and
//! Figure 8b) is reproduced through [`Network::cut`] / [`Network::heal`] and
//! [`Network::isolate`] / [`Network::rejoin`]. Beyond those binary faults,
//! the chaos engine drives *gray* failures: one-way cuts
//! ([`Network::cut_one_way`]), per-link and per-node [`LinkShape`]s
//! (slowdown, extra delay, probabilistic loss), and message duplication —
//! a duplicate is delivered later than the original, so duplication doubles
//! as reordering.

use std::collections::{HashMap, HashSet};

use crate::node::NodeId;
use crate::rng::DetRng;
use crate::time::Duration;

/// How long a message takes from one node to another.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed one-way base latency.
    pub base: Duration,
    /// Additional uniformly distributed jitter in `[0, jitter]`.
    pub jitter: Duration,
}

impl LatencyModel {
    /// Gigabit-LAN profile used for the paper's 20-node testbed: ~100 µs
    /// one-way plus small jitter.
    pub fn lan() -> Self {
        LatencyModel { base: Duration::from_micros(100), jitter: Duration::from_micros(50) }
    }

    /// Same-host loopback (co-located processes).
    pub fn local() -> Self {
        LatencyModel { base: Duration::from_micros(10), jitter: Duration::from_micros(5) }
    }

    /// Sample a one-way latency.
    pub fn sample(&self, rng: &mut DetRng) -> Duration {
        if self.jitter.micros() == 0 {
            self.base
        } else {
            self.base + Duration::from_micros(rng.below(self.jitter.micros() + 1))
        }
    }
}

/// Gray-failure shaping applied to messages on a link or node: the link is
/// *up* but degraded. Identity by default (no effect).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkShape {
    /// Multiplier on the sampled base latency (1.0 = unchanged).
    pub latency_factor: f64,
    /// Fixed extra delay added after scaling.
    pub extra: Duration,
    /// Independent per-message loss probability on this link.
    pub loss: f64,
    /// Probability a delivered message is also duplicated; the copy arrives
    /// later than the original (duplication implies reordering).
    pub dup: f64,
}

impl Default for LinkShape {
    fn default() -> Self {
        LinkShape { latency_factor: 1.0, extra: Duration::ZERO, loss: 0.0, dup: 0.0 }
    }
}

impl LinkShape {
    /// Slow link: latency multiplied by `factor`.
    pub fn slow(factor: f64) -> Self {
        LinkShape { latency_factor: factor, ..LinkShape::default() }
    }

    /// Lossy link: each message dropped with probability `p`.
    pub fn lossy(p: f64) -> Self {
        LinkShape { loss: p, ..LinkShape::default() }
    }
}

/// The sampled fate of one message: deliver (after a latency), possibly
/// with a later duplicate, or drop (`deliver == None`).
#[derive(Debug, Clone, Copy)]
pub struct RouteFate {
    /// `Some(latency)` to deliver the original, `None` to drop it.
    pub deliver: Option<Duration>,
    /// `Some(latency)` to also deliver a duplicate copy (always later than
    /// the original).
    pub duplicate: Option<Duration>,
}

impl RouteFate {
    const DROPPED: RouteFate = RouteFate { deliver: None, duplicate: None };
}

/// The cluster interconnect.
#[derive(Debug)]
pub struct Network {
    default_latency: LatencyModel,
    /// Unordered pairs (stored as (min,max)) whose link is cut.
    cut_links: HashSet<(NodeId, NodeId)>,
    /// Ordered pairs (from, to) cut in one direction only (asymmetric
    /// partition: `from` can be heard by nobody on the other side, or vice
    /// versa, depending on which directions are cut).
    cut_one_way: HashSet<(NodeId, NodeId)>,
    /// Nodes whose NIC is unplugged entirely.
    isolated: HashSet<NodeId>,
    /// Independent per-message loss probability (0 by default: TCP-like
    /// links; protocols still tolerate loss, exercised in tests).
    loss_probability: f64,
    /// Independent per-message duplication probability.
    dup_probability: f64,
    /// Gray shaping per directed link (from, to).
    link_shapes: HashMap<(NodeId, NodeId), LinkShape>,
    /// Gray shaping per node, applied to all of its traffic both ways
    /// (a "gray-slow" or lossy-NIC node).
    node_shapes: HashMap<NodeId, LinkShape>,
}

impl Network {
    pub fn new(default_latency: LatencyModel) -> Self {
        Network {
            default_latency,
            cut_links: HashSet::new(),
            cut_one_way: HashSet::new(),
            isolated: HashSet::new(),
            loss_probability: 0.0,
            dup_probability: 0.0,
            link_shapes: HashMap::new(),
            node_shapes: HashMap::new(),
        }
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Cut the bidirectional link between `a` and `b`.
    pub fn cut(&mut self, a: NodeId, b: NodeId) {
        self.cut_links.insert(Self::key(a, b));
    }

    /// Restore the link between `a` and `b` (both directions).
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.cut_links.remove(&Self::key(a, b));
        self.cut_one_way.remove(&(a, b));
        self.cut_one_way.remove(&(b, a));
    }

    /// Cut only the `from -> to` direction; `to -> from` keeps working
    /// (asymmetric partition — e.g. a node that can send heartbeats but not
    /// hear replies).
    pub fn cut_one_way(&mut self, from: NodeId, to: NodeId) {
        self.cut_one_way.insert((from, to));
    }

    /// Restore the `from -> to` direction.
    pub fn heal_one_way(&mut self, from: NodeId, to: NodeId) {
        self.cut_one_way.remove(&(from, to));
    }

    /// Unplug a node from the network entirely (Test B).
    pub fn isolate(&mut self, n: NodeId) {
        self.isolated.insert(n);
    }

    /// Plug the node's cable back in.
    pub fn rejoin(&mut self, n: NodeId) {
        self.isolated.remove(&n);
    }

    /// Remove all partitions (symmetric, one-way, and isolations).
    pub fn heal_all(&mut self) {
        self.cut_links.clear();
        self.cut_one_way.clear();
        self.isolated.clear();
    }

    /// Remove all gray shaping (per-link and per-node).
    pub fn clear_shapes(&mut self) {
        self.link_shapes.clear();
        self.node_shapes.clear();
    }

    /// Set independent message-loss probability.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_probability = p;
    }

    /// Set independent message-duplication probability.
    pub fn set_dup_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "dup probability out of range");
        self.dup_probability = p;
    }

    /// Shape the link between `a` and `b` in both directions.
    pub fn shape_link(&mut self, a: NodeId, b: NodeId, shape: LinkShape) {
        self.link_shapes.insert((a, b), shape);
        self.link_shapes.insert((b, a), shape);
    }

    /// Remove shaping from the link between `a` and `b` (both directions).
    pub fn clear_link_shape(&mut self, a: NodeId, b: NodeId) {
        self.link_shapes.remove(&(a, b));
        self.link_shapes.remove(&(b, a));
    }

    /// Shape all traffic to and from `n` (gray-degraded node).
    pub fn shape_node(&mut self, n: NodeId, shape: LinkShape) {
        self.node_shapes.insert(n, shape);
    }

    /// Remove node shaping.
    pub fn clear_node_shape(&mut self, n: NodeId) {
        self.node_shapes.remove(&n);
    }

    /// Whether a message from `a` can currently reach `b`.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        !self.isolated.contains(&a)
            && !self.isolated.contains(&b)
            && !self.cut_links.contains(&Self::key(a, b))
            && !self.cut_one_way.contains(&(a, b))
    }

    /// Sample the fate of a message: `Some(latency)` to deliver, `None` to
    /// drop (partitioned or lost).
    pub fn route(&self, from: NodeId, to: NodeId, rng: &mut DetRng) -> Option<Duration> {
        self.route_fate(from, to, rng).deliver
    }

    /// Sample the full fate of a message including gray shaping and
    /// duplication. Allocation-free; the caller schedules the deliveries.
    pub fn route_fate(&self, from: NodeId, to: NodeId, rng: &mut DetRng) -> RouteFate {
        if !self.connected(from, to) {
            return RouteFate::DROPPED;
        }
        let mut lost = self.loss_probability > 0.0 && rng.chance(self.loss_probability);
        let mut latency = self.default_latency.sample(rng);
        let mut dup_p = self.dup_probability;
        if !self.link_shapes.is_empty() || !self.node_shapes.is_empty() {
            for shape in [
                self.node_shapes.get(&from),
                self.node_shapes.get(&to),
                self.link_shapes.get(&(from, to)),
            ]
            .into_iter()
            .flatten()
            {
                if shape.loss > 0.0 && rng.chance(shape.loss) {
                    lost = true;
                }
                latency = latency.mul_f64(shape.latency_factor) + shape.extra;
                dup_p = dup_p.max(shape.dup);
            }
        }
        if lost {
            return RouteFate::DROPPED;
        }
        // A duplicate arrives strictly later than the original: model the
        // copy taking another (scaled-up) trip through the network, which
        // also reorders it past messages sent in between.
        let duplicate = if dup_p > 0.0 && rng.chance(dup_p) {
            Some(latency + self.default_latency.sample(rng).mul_f64(4.0))
        } else {
            None
        };
        RouteFate { deliver: Some(latency), duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_within_bounds() {
        let m = LatencyModel::lan();
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= m.base && d <= m.base + m.jitter);
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let m = LatencyModel { base: Duration::from_micros(42), jitter: Duration::ZERO };
        let mut rng = DetRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng), Duration::from_micros(42));
    }

    #[test]
    fn cut_and_heal_are_symmetric() {
        let mut n = Network::new(LatencyModel::lan());
        assert!(n.connected(1, 2));
        n.cut(2, 1);
        assert!(!n.connected(1, 2));
        assert!(!n.connected(2, 1));
        n.heal(1, 2);
        assert!(n.connected(2, 1));
    }

    #[test]
    fn isolation_blocks_all_traffic() {
        let mut n = Network::new(LatencyModel::lan());
        n.isolate(3);
        assert!(!n.connected(3, 1));
        assert!(!n.connected(1, 3));
        assert!(n.connected(1, 2));
        n.rejoin(3);
        assert!(n.connected(3, 1));
    }

    #[test]
    fn one_way_cut_is_asymmetric() {
        let mut n = Network::new(LatencyModel::lan());
        n.cut_one_way(1, 2);
        assert!(!n.connected(1, 2));
        assert!(n.connected(2, 1));
        n.heal_one_way(1, 2);
        assert!(n.connected(1, 2));
        // heal() clears one-way cuts too.
        n.cut_one_way(1, 2);
        n.cut_one_way(2, 1);
        n.heal(1, 2);
        assert!(n.connected(1, 2) && n.connected(2, 1));
    }

    #[test]
    fn slow_link_scales_latency() {
        let mut n =
            Network::new(LatencyModel { base: Duration::from_micros(100), jitter: Duration::ZERO });
        let mut rng = DetRng::seed_from_u64(3);
        let extra = Duration::from_micros(7);
        n.shape_link(1, 2, LinkShape { extra, ..LinkShape::slow(10.0) });
        let d = n.route(1, 2, &mut rng).unwrap();
        assert_eq!(d, Duration::from_micros(1007));
        // The other direction is shaped too; an unrelated link is not.
        assert_eq!(n.route(2, 1, &mut rng).unwrap(), Duration::from_micros(1007));
        assert_eq!(n.route(1, 3, &mut rng).unwrap(), Duration::from_micros(100));
        n.clear_link_shape(1, 2);
        assert_eq!(n.route(1, 2, &mut rng).unwrap(), Duration::from_micros(100));
    }

    #[test]
    fn node_shape_applies_both_directions() {
        let mut n =
            Network::new(LatencyModel { base: Duration::from_micros(100), jitter: Duration::ZERO });
        let mut rng = DetRng::seed_from_u64(4);
        n.shape_node(5, LinkShape::slow(3.0));
        assert_eq!(n.route(1, 5, &mut rng).unwrap(), Duration::from_micros(300));
        assert_eq!(n.route(5, 1, &mut rng).unwrap(), Duration::from_micros(300));
        assert_eq!(n.route(1, 2, &mut rng).unwrap(), Duration::from_micros(100));
        n.clear_node_shape(5);
        assert_eq!(n.route(1, 5, &mut rng).unwrap(), Duration::from_micros(100));
    }

    #[test]
    fn lossy_shape_drops_and_dup_duplicates() {
        let mut n = Network::new(LatencyModel::lan());
        let mut rng = DetRng::seed_from_u64(5);
        n.shape_link(1, 2, LinkShape::lossy(1.0));
        assert!(n.route(1, 2, &mut rng).is_none());
        n.clear_shapes();
        n.shape_link(1, 2, LinkShape { dup: 1.0, ..LinkShape::default() });
        let fate = n.route_fate(1, 2, &mut rng);
        let (orig, dup) = (fate.deliver.unwrap(), fate.duplicate.unwrap());
        assert!(dup > orig, "duplicate must arrive after the original");
        // Global dup probability works without any shapes.
        n.clear_shapes();
        n.set_dup_probability(1.0);
        assert!(n.route_fate(1, 2, &mut rng).duplicate.is_some());
        n.set_dup_probability(0.0);
        assert!(n.route_fate(1, 2, &mut rng).duplicate.is_none());
    }

    #[test]
    fn route_drops_on_partition_and_loss() {
        let mut n = Network::new(LatencyModel::lan());
        let mut rng = DetRng::seed_from_u64(9);
        n.cut(1, 2);
        assert!(n.route(1, 2, &mut rng).is_none());
        n.heal_all();
        n.set_loss_probability(1.0);
        assert!(n.route(1, 2, &mut rng).is_none());
        n.set_loss_probability(0.0);
        assert!(n.route(1, 2, &mut rng).is_some());
    }
}
