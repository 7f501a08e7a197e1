//! The file-system client: partition routing, active discovery through the
//! global view, and transparent retry across failovers.
//!
//! "Benefiting from our namespace partition strategy, the client can
//! reconnect to the new active directly and automatically after
//! active-standby switching and resend requests when needed. As the process
//! is completely transparent to applications, the file system sees no
//! errors occur in the case of failures." (Section III-C.)

use std::collections::HashMap;
use std::sync::Arc;

use mams_coord::{CoordEvent, CoordReq, CoordResp};
use mams_core::{FsOp, MdsReq, MdsResp, OpOutput};
use mams_namespace::Partitioner;
use mams_sim::{Ctx, DetRng, Duration, Message, Node, NodeId, SimTime};

use crate::history::Recorder;
use crate::metrics::Metrics;
use crate::workload::Workload;

const T_START: u64 = 1;
const T_NEXT: u64 = 2;
/// Operation timers use the op's seq as token; seqs start above the control
/// token range.
const SEQ_BASE: u64 = 1_000;

/// Retry timers are scoped to `(seq, attempt)`: a firing only acts if the
/// op is still outstanding *on that same attempt*. Without the attempt
/// scope, a fast retry (NotActive backoff) and the per-attempt timeout both
/// stay armed for the same op, and each firing re-arms both — under a
/// persistently unavailable group the live timer chains double on every
/// round and the client melts down in an exponential retry storm.
fn op_token(seq: u64, attempts: u32) -> u64 {
    (seq << 20) | u64::from(attempts & 0xF_FFFF)
}

/// Per-attempt timeout before re-resolving the active and resending.
const OP_TIMEOUT: Duration = Duration::from_secs(1);

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub coord: NodeId,
    pub partitioner: Partitioner,
    /// Grace period before the first operation (cluster boot).
    pub start_delay: Duration,
    /// Stop after this many completed operations (`None` = run forever).
    pub max_ops: Option<u64>,
    /// Pause between a completion and the next operation (zero = closed
    /// loop at full speed). Chaos runs use this to pace bounded histories
    /// across long fault windows.
    pub think: Duration,
    /// When set, every operation's invocation/completion is logged for
    /// linearizability checking.
    pub history: Option<Recorder>,
}

impl ClientConfig {
    pub fn new(coord: NodeId, partitioner: Partitioner) -> Self {
        ClientConfig {
            coord,
            partitioner,
            start_delay: Duration::from_millis(500),
            max_ops: None,
            think: Duration::ZERO,
            history: None,
        }
    }
}

#[derive(Debug)]
struct Outstanding {
    op: FsOp,
    seq: u64,
    issued: SimTime,
    attempts: u32,
    group: u32,
    /// The private-directory setup mkdir (idempotent by construction).
    is_setup: bool,
    /// Index of this op's record in the history log, when recording.
    rec: Option<usize>,
}

/// A closed-loop client (one outstanding operation).
pub struct FsClient {
    cfg: ClientConfig,
    workload: Workload,
    metrics: Arc<Metrics>,
    rng: DetRng,
    seq: u64,
    actives: HashMap<u32, NodeId>,
    outstanding: Option<Outstanding>,
    setup: Option<String>,
    completed: u64,
    /// Cumulative receipt watermark piggybacked on every request: the
    /// client is closed-loop (one op outstanding), so the last completed
    /// seq means every reply at or below it has been received. The server
    /// evicts exactly those retry-cache entries.
    acked: u64,
}

impl FsClient {
    pub fn new(cfg: ClientConfig, workload: Workload, metrics: Arc<Metrics>, rng: DetRng) -> Self {
        let setup = workload.setup_dir();
        FsClient {
            cfg,
            workload,
            metrics,
            rng,
            seq: SEQ_BASE,
            actives: HashMap::new(),
            outstanding: None,
            setup,
            completed: 0,
            acked: 0,
        }
    }

    fn refresh_view(&self, ctx: &mut Ctx<'_>) {
        ctx.send(self.cfg.coord, CoordReq::List { prefix: "g/".into(), req: 0 });
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

    fn issue_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.outstanding.is_some() {
            return;
        }
        if let Some(max) = self.cfg.max_ops {
            if self.completed >= max {
                return;
            }
        }
        let mut is_setup = false;
        let op = if let Some(dir) = self.setup.take() {
            is_setup = true;
            FsOp::Mkdir { path: dir }
        } else {
            match self.workload.next_op(&mut self.rng) {
                Some(op) => op,
                None => return, // stream exhausted
            }
        };
        self.seq += 1;
        let group = self.cfg.partitioner.owner(op.primary_path());
        let rec = self
            .cfg
            .history
            .as_ref()
            .map(|h| h.log.invoke(h.client, op.clone(), is_setup, ctx.now().micros()));
        self.outstanding = Some(Outstanding {
            op,
            seq: self.seq,
            issued: ctx.now(),
            attempts: 0,
            group,
            is_setup,
            rec,
        });
        self.attempt(ctx);
    }

    fn attempt(&mut self, ctx: &mut Ctx<'_>) {
        let (seq, group, op, attempts) = match &mut self.outstanding {
            Some(o) => {
                o.attempts += 1;
                (o.seq, o.group, o.op.clone(), o.attempts)
            }
            None => return,
        };
        match self.actives.get(&group) {
            Some(&active) => {
                ctx.send(active, MdsReq::Op { op, seq, acked: self.acked });
            }
            None => {
                self.refresh_view(ctx);
            }
        }
        ctx.set_timer(OP_TIMEOUT, op_token(seq, attempts));
    }

    /// A retried mutation may hit the result of its own earlier, half-acked
    /// execution; reconcile those errors into successes.
    pub(crate) fn reconcile_retry(op: &FsOp, err: &str) -> bool {
        match op {
            FsOp::Create { .. } | FsOp::Mkdir { .. } => err.contains("already exists"),
            FsOp::Delete { .. } => err.contains("no such file"),
            FsOp::Rename { .. } => err.contains("no such file"),
            _ => false,
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, ok: bool, result: &Result<OpOutput, String>) {
        let o = self.outstanding.take().expect("outstanding op");
        // Closed loop: completing seq N means every reply ≤ N was received.
        self.acked = self.acked.max(o.seq);
        self.metrics.record(o.issued, ctx.now(), ok);
        if let (Some(idx), Some(h)) = (o.rec, self.cfg.history.as_ref()) {
            h.log.complete(idx, ctx.now().micros(), result, ok, o.attempts);
        }
        self.completed += 1;
        if self.cfg.think > Duration::ZERO {
            ctx.set_timer(self.cfg.think, T_NEXT);
        } else {
            self.issue_next(ctx);
        }
    }

    fn handle_reply(&mut self, ctx: &mut Ctx<'_>, seq: u64, result: Result<OpOutput, String>) {
        let (matches, attempts, is_setup) = match &self.outstanding {
            Some(o) => (o.seq == seq, o.attempts, o.is_setup),
            None => (false, 0, false),
        };
        if !matches {
            return;
        }
        let ok = match &result {
            Ok(_) => true,
            Err(e) => {
                (is_setup && e.contains("already exists"))
                    || (attempts > 1
                        && Self::reconcile_retry(
                            &self.outstanding.as_ref().expect("matched").op,
                            e,
                        ))
            }
        };
        if !ok {
            // A genuine error (e.g. AlreadyExists on a first attempt) is an
            // application-level failure; trace it for diagnosis.
            let err = result.as_ref().err().cloned().unwrap_or_default();
            let op = self.outstanding.as_ref().map(|o| format!("{:?}", o.op));
            ctx.trace("client.op_failed", || format!("{op:?}: {err}"));
        }
        self.finish(ctx, ok, &result);
    }
}

impl Node for FsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.cfg.coord, CoordReq::Watch { prefix: "g/".into(), req: 0 });
        self.refresh_view(ctx);
        ctx.set_timer(self.cfg.start_delay, T_START);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == T_START || token == T_NEXT {
            self.issue_next(ctx);
            return;
        }
        // Per-op timeout: if the op is still outstanding *on the attempt
        // this timer belongs to*, re-resolve the active and resend with the
        // same seq (server-side duplicate suppression makes this safe).
        // Timers for superseded attempts are inert, so at most one retry
        // chain is ever live per op.
        let (seq, attempt) = (token >> 20, (token & 0xF_FFFF) as u32);
        if self
            .outstanding
            .as_ref()
            .is_some_and(|o| o.seq == seq && o.attempts & 0xF_FFFF == attempt)
        {
            self.refresh_view(ctx);
            self.attempt(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        let msg = match MdsResp::from_message(msg) {
            Ok(resp) => {
                match resp {
                    MdsResp::Reply { seq, result } => self.handle_reply(ctx, seq, result),
                    MdsResp::NotActive { seq } => {
                        if let Some(o) = self.outstanding.as_ref().filter(|o| o.seq == seq) {
                            // Stale routing: refresh and retry shortly. The
                            // fast timer shares the current attempt's token,
                            // so whichever of it and the full timeout fires
                            // first supersedes the other.
                            let token = op_token(seq, o.attempts);
                            self.refresh_view(ctx);
                            ctx.set_timer(Duration::from_millis(50), token);
                        }
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CoordEvent>() {
            Ok(ev) => {
                if let CoordEvent::KeyChanged { key, value, .. } = ev {
                    self.absorb_active(&key, value.as_deref());
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(CoordResp::Listing { entries, .. }) = msg.downcast::<CoordResp>() {
            for (k, v) in &entries {
                self.absorb_active(k, Some(v));
            }
            // If an op was blocked on routing, push it out now.
            if let Some(o) = &self.outstanding {
                if o.attempts == 1 && self.actives.contains_key(&o.group) {
                    // First attempt may have been swallowed by missing
                    // routing; resend immediately rather than waiting for
                    // the timeout.
                    let (seq, group, op) = (o.seq, o.group, o.op.clone());
                    if let Some(&active) = self.actives.get(&group) {
                        ctx.send(active, MdsReq::Op { op, seq, acked: self.acked });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::workload::Workload;
    use mams_coord::{CoordConfig, CoordServer};
    use mams_core::OpOutput;
    use mams_sim::{Sim, SimConfig};

    #[test]
    fn reconcile_only_accepts_own_echoes() {
        let create = FsOp::Create { path: "/f".into(), replication: 1 };
        assert!(FsClient::reconcile_retry(&create, "/f: already exists"));
        assert!(!FsClient::reconcile_retry(&create, "/f: no such file or directory"));
        let del = FsOp::Delete { path: "/f".into(), recursive: false };
        assert!(FsClient::reconcile_retry(&del, "/f: no such file or directory"));
        assert!(!FsClient::reconcile_retry(&del, "/f: directory not empty"));
        let read = FsOp::GetFileInfo { path: "/f".into() };
        assert!(!FsClient::reconcile_retry(&read, "/f: already exists"));
    }

    /// A fake MDS that ignores the first `drop_n` requests (forcing client
    /// timeouts + same-seq resends), then answers; duplicate seqs must not
    /// be double-counted by the client.
    struct FlakyMds {
        drop_n: usize,
        seen: Vec<u64>,
        coord: NodeId,
        published: bool,
    }

    impl Node for FlakyMds {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.coord, mams_coord::CoordReq::Register);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if msg.is::<mams_coord::CoordResp>() {
                if !self.published {
                    self.published = true;
                    ctx.send(
                        self.coord,
                        mams_coord::CoordReq::Multi {
                            ops: vec![mams_coord::KeyOp::Set {
                                key: mams_core::keys::active(0),
                                value: ctx.id().to_string(),
                                ephemeral: true,
                            }],
                            req: 1,
                        },
                    );
                    ctx.send(self.coord, mams_coord::CoordReq::Heartbeat);
                }
                return;
            }
            if let Ok(mams_core::MdsReq::Op { seq, .. }) = msg.downcast::<mams_core::MdsReq>() {
                self.seen.push(seq);
                if self.drop_n > 0 {
                    self.drop_n -= 1;
                    return; // swallow: client must time out and resend
                }
                ctx.send(from, MdsResp::Reply { seq, result: Ok(OpOutput::Done) });
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
    }

    #[test]
    fn client_resends_with_the_same_seq_after_timeout() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let mds = sim.add_node(
            "mds",
            Box::new(FlakyMds { drop_n: 2, seen: Vec::new(), coord, published: false }),
        );
        let m = Metrics::new(true);
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.max_ops = Some(1);
        sim.add_node(
            "client",
            Box::new(FsClient::new(
                cfg,
                Workload::script(vec![FsOp::Mkdir { path: "/x".into() }]),
                m.clone(),
                DetRng::seed_from_u64(1),
            )),
        );
        sim.run_for(Duration::from_secs(10));
        assert_eq!(m.ok_count(), 1, "exactly one completion");
        // Latency includes the two dropped attempts (two 1 s timeouts).
        let c = m.completions();
        assert!(c[0].latency_us() >= 2_000_000, "latency {}us", c[0].latency_us());
        let _ = mds;
    }
}
