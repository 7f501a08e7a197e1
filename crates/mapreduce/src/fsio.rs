//! An embedded file-system port: lets any node issue metadata operations
//! with the same routing/retry/reconciliation behaviour as the standalone
//! client, supporting multiple outstanding requests.

use std::collections::HashMap;

use mams_coord::{CoordEvent, CoordReq, CoordResp};
use mams_core::{FsOp, MdsReq, MdsResp, OpOutput};
use mams_namespace::Partitioner;
use mams_sim::{Ctx, Duration, Message, NodeId};

/// Timer tokens used by `FsIo` are `token_base + seq`; the owner must keep
/// its own tokens below `token_base`.
const DEFAULT_TOKEN_BASE: u64 = 1 << 32;

/// Outcome of feeding a message through [`FsIo::on_message`].
pub enum IoEvent {
    /// Operation `seq` finished.
    Completed { seq: u64, result: Result<OpOutput, String> },
    /// The message was FsIo-internal traffic.
    Consumed,
    /// Not ours; returned to the owner.
    NotMine(Message),
}

struct Pending {
    op: FsOp,
    attempts: u32,
    group: u32,
}

/// File-system access port.
pub struct FsIo {
    coord: NodeId,
    partitioner: Partitioner,
    timeout: Duration,
    actives: HashMap<u32, NodeId>,
    pending: HashMap<u64, Pending>,
    next_seq: u64,
}

impl FsIo {
    pub fn new(coord: NodeId, partitioner: Partitioner) -> Self {
        FsIo {
            coord,
            partitioner,
            timeout: Duration::from_millis(1_000),
            actives: HashMap::new(),
            pending: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Subscribe to the global view. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::Watch { prefix: "g/".into(), req: 0 });
        self.refresh(ctx);
    }

    fn refresh(&self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::List { prefix: "g/".into(), req: 0 });
    }

    /// Issue an operation; the completion arrives later via
    /// [`IoEvent::Completed`] with the returned seq.
    pub fn submit(&mut self, ctx: &mut Ctx<'_>, op: FsOp) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        let group = self.partitioner.owner(op.primary_path());
        self.pending.insert(seq, Pending { op, attempts: 0, group });
        self.attempt(ctx, seq);
        seq
    }

    fn attempt(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let p = match self.pending.get_mut(&seq) {
            Some(p) => p,
            None => return,
        };
        p.attempts += 1;
        let op = p.op.clone();
        let group = p.group;
        // Receipt watermark: seqs are issued in order, so everything below
        // the lowest still-pending seq has completed (cumulatively).
        let acked = self.pending.keys().copied().min().map_or(self.next_seq, |m| m - 1);
        match self.actives.get(&group) {
            Some(&a) => ctx.send(a, MdsReq::Op { op, seq, acked }),
            None => self.refresh(ctx),
        }
        ctx.set_timer(self.timeout, DEFAULT_TOKEN_BASE + seq);
    }

    /// Feed a timer through; `true` if it was ours.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        if token < DEFAULT_TOKEN_BASE {
            return false;
        }
        let seq = token - DEFAULT_TOKEN_BASE;
        if self.pending.contains_key(&seq) {
            self.refresh(ctx);
            self.attempt(ctx, seq);
        }
        true
    }

    fn reconcile(op: &FsOp, err: &str) -> bool {
        match op {
            FsOp::Create { .. } | FsOp::Mkdir { .. } => err.contains("already exists"),
            FsOp::Delete { .. } | FsOp::Rename { .. } => err.contains("no such file"),
            _ => false,
        }
    }

    fn absorb_active(&mut self, key: &str, value: Option<&str>) {
        if let Some(group) = mams_core::keys::parse_active_key(key) {
            match value.and_then(|v| v.parse().ok()) {
                Some(n) => {
                    self.actives.insert(group, n);
                }
                None => {
                    self.actives.remove(&group);
                }
            }
        }
    }

    /// Feed a message through.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) -> IoEvent {
        let msg = match MdsResp::from_message(msg) {
            Ok(MdsResp::Reply { seq, result }) => {
                let p = match self.pending.remove(&seq) {
                    Some(p) => p,
                    None => return IoEvent::Consumed, // stale reply
                };
                let result = match result {
                    Ok(out) => Ok(out),
                    Err(e) if p.attempts > 1 && Self::reconcile(&p.op, &e) => Ok(OpOutput::Done),
                    Err(e) => Err(e),
                };
                return IoEvent::Completed { seq, result };
            }
            Ok(MdsResp::NotActive { seq }) => {
                if self.pending.contains_key(&seq) {
                    self.refresh(ctx);
                    ctx.set_timer(Duration::from_millis(50), DEFAULT_TOKEN_BASE + seq);
                }
                return IoEvent::Consumed;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CoordEvent>() {
            Ok(ev) => {
                if let CoordEvent::KeyChanged { key, value, .. } = ev {
                    self.absorb_active(&key, value.as_deref());
                }
                return IoEvent::Consumed;
            }
            Err(m) => m,
        };
        match msg.downcast::<CoordResp>() {
            Ok(CoordResp::Listing { entries, .. }) => {
                for (k, v) in &entries {
                    self.absorb_active(k, Some(v));
                }
                IoEvent::Consumed
            }
            Ok(_) => IoEvent::Consumed,
            Err(m) => IoEvent::NotMine(m),
        }
    }
}
