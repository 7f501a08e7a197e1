//! The bench-owned node wrapper: a handle for reading a node's state from
//! outside the simulator, and — in a traced run — a span around every
//! callback, booked to the layer the node belongs to.
//!
//! The simulator owns its nodes as `Box<dyn Node>` and offers no way back to
//! them, so each wrapped node lives behind an `Arc<Mutex<_>>` the bench keeps
//! a clone of. An untraced run wraps only the metadata servers (their role
//! decides whom to crash and their state is audited at the end); a traced
//! run wraps every node.

use std::any::TypeId;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mams_cluster::{DataServer, FsClient};
use mams_coord::{CoordEvent, CoordReq, CoordResp, CoordServer};
use mams_core::{GroupMsg, MdsReq, MdsResp, MdsServer, Role};
use mams_sim::{Ctx, Message, Node, NodeId};
use mams_storage::{PoolNode, PoolReq, PoolResp};

/// A row of the layer table: the crate whose code a callback runs, with the
/// metadata server split by what it is doing at the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client,
    DataSrv,
    Active,
    Standby,
    Pool,
    Coord,
}

pub const LAYERS: [Layer; 6] =
    [Layer::Client, Layer::DataSrv, Layer::Active, Layer::Standby, Layer::Pool, Layer::Coord];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "cluster.client",
            Layer::DataSrv => "cluster.datasrv",
            Layer::Active => "core.active",
            Layer::Standby => "core.standby",
            Layer::Pool => "storage.pool",
            Layer::Coord => "coord",
        }
    }
}

/// What started a callback: the node's start, a timer, or a message of one
/// of the protocol vocabularies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Start,
    Timer,
    MdsReq,
    MdsResp,
    GroupMsg,
    PoolReq,
    PoolResp,
    CoordReq,
    CoordResp,
    CoordEvent,
    Other,
}

pub const KINDS: [Kind; 11] = [
    Kind::Start,
    Kind::Timer,
    Kind::MdsReq,
    Kind::MdsResp,
    Kind::GroupMsg,
    Kind::PoolReq,
    Kind::PoolResp,
    Kind::CoordReq,
    Kind::CoordResp,
    Kind::CoordEvent,
    Kind::Other,
];

impl Kind {
    fn of(msg: &Message) -> Kind {
        // The deref matters: `as_any` on the box itself reports the box.
        let id = (*msg.0).as_any().type_id();
        let is = |t: TypeId| id == t;
        if is(TypeId::of::<MdsReq>()) {
            Kind::MdsReq
        } else if is(TypeId::of::<MdsResp>()) || is(TypeId::of::<Arc<MdsResp>>()) {
            Kind::MdsResp
        } else if is(TypeId::of::<GroupMsg>()) {
            Kind::GroupMsg
        } else if is(TypeId::of::<PoolReq>()) {
            Kind::PoolReq
        } else if is(TypeId::of::<PoolResp>()) {
            Kind::PoolResp
        } else if is(TypeId::of::<CoordReq>()) {
            Kind::CoordReq
        } else if is(TypeId::of::<CoordResp>()) {
            Kind::CoordResp
        } else if is(TypeId::of::<CoordEvent>()) {
            Kind::CoordEvent
        } else {
            Kind::Other
        }
    }
}

/// One timed callback.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub at_us: u64,
    pub node: NodeId,
    pub kind: Kind,
    pub ns: u64,
}

/// Longest spans kept per layer.
pub const TOP_SPANS: usize = 64;

#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    pub busy_ns: u64,
    pub callbacks: u64,
    pub by_kind: [u64; KINDS.len()],
    /// The `TOP_SPANS` longest spans, unordered.
    pub top: Vec<Span>,
    /// Shortest span in `top` once it is full: the bar a new span must pass.
    top_floor: u64,
}

impl LayerStats {
    /// What was booked after `earlier` was read. The longest spans stay as
    /// they are: a span cannot be taken back out of a top list.
    pub fn since(&self, earlier: &LayerStats) -> LayerStats {
        let mut later = self.clone();
        later.busy_ns -= earlier.busy_ns;
        later.callbacks -= earlier.callbacks;
        for (k, k0) in later.by_kind.iter_mut().zip(earlier.by_kind) {
            *k -= k0;
        }
        later
    }

    fn book(&mut self, span: Span) {
        self.busy_ns += span.ns;
        self.callbacks += 1;
        self.by_kind[span.kind as usize] += 1;
        if self.top.len() < TOP_SPANS {
            self.top.push(span);
            if self.top.len() == TOP_SPANS {
                self.top_floor = self.top.iter().map(|s| s.ns).min().unwrap_or(0);
            }
        } else if span.ns > self.top_floor {
            let shortest = self.top.iter_mut().min_by_key(|s| s.ns).expect("TOP_SPANS is not zero");
            *shortest = span;
            self.top_floor = self.top.iter().map(|s| s.ns).min().unwrap_or(0);
        }
    }
}

/// What the pool nodes were asked to store, counted from the requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounts {
    pub appends: u64,
    pub appended_records: u64,
    pub journal_bytes: u64,
    pub image_writes: u64,
    pub image_bytes: u64,
    pub delta_writes: u64,
    pub delta_bytes: u64,
}

impl PoolCounts {
    pub fn since(self, earlier: PoolCounts) -> PoolCounts {
        PoolCounts {
            appends: self.appends - earlier.appends,
            appended_records: self.appended_records - earlier.appended_records,
            journal_bytes: self.journal_bytes - earlier.journal_bytes,
            image_writes: self.image_writes - earlier.image_writes,
            image_bytes: self.image_bytes - earlier.image_bytes,
            delta_writes: self.delta_writes - earlier.delta_writes,
            delta_bytes: self.delta_bytes - earlier.delta_bytes,
        }
    }
}

/// A metadata server seen in a new role.
#[derive(Debug, Clone, Copy)]
pub struct RoleChange {
    pub at_us: u64,
    pub node: NodeId,
    pub role: Role,
}

/// Everything a traced run records, shared by all of a cluster's nodes.
#[derive(Debug, Default)]
pub struct TraceLog {
    layers: [LayerStats; LAYERS.len()],
    pub pool: PoolCounts,
    pub roles: Vec<RoleChange>,
}

impl TraceLog {
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }
}

pub type SharedTrace = Arc<Mutex<TraceLog>>;

/// What the tracer needs to know about a node type.
pub trait Traced: Node + 'static {
    /// The row this node's time is booked to right now.
    fn layer(&self) -> Layer;

    /// The metadata server's role; `None` for every other node.
    fn mds_role(&self) -> Option<Role> {
        None
    }

    /// Count what a message asks for, before the node consumes it.
    fn count(_msg: &Message, _trace: &SharedTrace) {}
}

impl Traced for FsClient {
    fn layer(&self) -> Layer {
        Layer::Client
    }
}

impl Traced for DataServer {
    fn layer(&self) -> Layer {
        Layer::DataSrv
    }
}

impl Traced for CoordServer {
    fn layer(&self) -> Layer {
        Layer::Coord
    }
}

impl Traced for MdsServer {
    fn layer(&self) -> Layer {
        if self.role() == Role::Active {
            Layer::Active
        } else {
            Layer::Standby
        }
    }

    fn mds_role(&self) -> Option<Role> {
        Some(self.role())
    }
}

impl Traced for PoolNode {
    fn layer(&self) -> Layer {
        Layer::Pool
    }

    fn count(msg: &Message, trace: &SharedTrace) {
        let c = &mut lock(trace).pool;
        match msg.downcast_ref::<PoolReq>() {
            Some(PoolReq::AppendJournal { batch, .. }) => {
                c.appends += 1;
                c.appended_records += batch.records.len() as u64;
                c.journal_bytes += batch.wire().len() as u64;
            }
            Some(PoolReq::WriteImage { image, .. }) => {
                c.image_writes += 1;
                c.image_bytes += image.size_bytes();
            }
            Some(PoolReq::WriteDelta { delta, .. }) => {
                c.delta_writes += 1;
                c.delta_bytes += delta.size_bytes();
            }
            _ => {}
        }
    }
}

/// The bench's handle to a wrapped node.
pub type Handle<N> = Arc<Mutex<N>>;

/// Lock a node handle or the trace. A poisoned lock means a callback
/// panicked, which has already failed the run.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a node callback panicked")
}

/// The wrapper registered with the simulator in a node's place.
pub struct Probe<N: Traced> {
    node: Handle<N>,
    trace: Option<SharedTrace>,
    seen_role: Option<Role>,
}

impl<N: Traced> Probe<N> {
    /// Register-ready wrapper around the node in `handle`; `trace` turns
    /// timing on.
    pub fn boxed(handle: &Handle<N>, trace: Option<SharedTrace>) -> Box<dyn Node> {
        Box::new(Probe { node: handle.clone(), trace, seen_role: None })
    }

    /// Wrap a node the bench never reads back, for timing only.
    pub fn timed(node: N, trace: &SharedTrace) -> Box<dyn Node> {
        Probe::boxed(&Arc::new(Mutex::new(node)), Some(trace.clone()))
    }

    fn run(&mut self, ctx: &mut Ctx<'_>, kind: Kind, f: impl FnOnce(&mut N, &mut Ctx<'_>)) {
        let mut node = lock(&self.node);
        let Some(trace) = &self.trace else {
            return f(&mut node, ctx);
        };
        let started = Instant::now();
        f(&mut node, ctx);
        let ns = started.elapsed().as_nanos() as u64;
        let mut log = lock(trace);
        let span = Span { at_us: ctx.now().micros(), node: ctx.id(), kind, ns };
        log.layers[node.layer() as usize].book(span);
        let role = node.mds_role();
        if role != self.seen_role {
            self.seen_role = role;
            if let Some(role) = role {
                log.roles.push(RoleChange { at_us: span.at_us, node: span.node, role });
            }
        }
    }
}

impl<N: Traced> Node for Probe<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.run(ctx, Kind::Start, |n, ctx| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let kind = match &self.trace {
            Some(trace) => {
                N::count(&msg, trace);
                Kind::of(&msg)
            }
            None => Kind::Other,
        };
        self.run(ctx, kind, |n, ctx| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.run(ctx, Kind::Timer, |n, ctx| n.on_timer(ctx, token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(ns: u64) -> Span {
        Span { at_us: 0, node: 0, kind: Kind::Timer, ns }
    }

    #[test]
    fn top_keeps_the_longest_spans() {
        let mut s = LayerStats::default();
        for ns in 1..=1000 {
            s.book(span(ns));
        }
        assert_eq!(s.callbacks, 1000);
        assert_eq!(s.busy_ns, 500_500);
        assert_eq!(s.top.len(), TOP_SPANS);
        let shortest = s.top.iter().map(|x| x.ns).min().unwrap();
        assert_eq!(shortest, 1000 - TOP_SPANS as u64 + 1);
    }

    #[test]
    fn kind_tells_the_protocols_apart() {
        let owned = Message::new(MdsResp::NotActive { seq: 1 });
        let shared = Message::new(Arc::new(MdsResp::NotActive { seq: 1 }));
        assert_eq!(Kind::of(&owned), Kind::MdsResp);
        assert_eq!(Kind::of(&shared), Kind::MdsResp);
        assert_eq!(Kind::of(&Message::new(CoordReq::Heartbeat)), Kind::CoordReq);
        assert_eq!(Kind::of(&Message::new(7u32)), Kind::Other);
    }
}
