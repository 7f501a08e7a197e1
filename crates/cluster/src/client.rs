//! The file-system client: partition routing, active discovery through the
//! global view, and transparent retry across failovers.
//!
//! "Benefiting from our namespace partition strategy, the client can
//! reconnect to the new active directly and automatically after
//! active-standby switching and resend requests when needed. As the process
//! is completely transparent to applications, the file system sees no
//! errors occur in the case of failures." (Section III-C.)
#![deny(clippy::disallowed_types)]

use std::sync::Arc;

use mams_coord::{CoordEvent, CoordReq, CoordResp};
use mams_core::{FsOp, MdsReq, MdsResp, NsError, OpOutput, ViewKey};
use mams_namespace::Partitioner;
use mams_sim::{Ctx, DetRng, Duration, Event, Message, Node, NodeId, SimTime, TimerId};

use crate::history::Recorder;
use crate::metrics::Metrics;
use crate::workload::Workload;

const T_START: u64 = 1;
const T_NEXT: u64 = 2;
/// Seqs start above this. Any base keeps [`op_token`] clear of an owner's
/// own tokens; this one is what `FsClient` has always sent.
const SEQ_BASE: u64 = 1_000;

/// Retry timers are scoped to `(seq, attempt)`: a firing only acts if the
/// op is still outstanding *on that same attempt*. Without the attempt
/// scope, a fast retry (NotActive backoff) and the per-attempt timeout both
/// stay armed for the same op, and each firing re-arms both — under a
/// persistently unavailable group the live timer chains double on every
/// round and the client melts down in an exponential retry storm.
///
/// The scope is the guard; [`Pending::disarm`] is the economy. An op takes
/// its timers back when it is answered or moves to its next attempt, so the
/// guard is left with the firings no cancel reaches (a second `NotActive`
/// for one attempt overwrites the handle of the first's backoff).
fn op_token(seq: u64, attempts: u32) -> u64 {
    (seq << 20) | u64::from(attempts & 0xF_FFFF)
}

/// Per-attempt timeout before re-resolving the active and resending.
const OP_TIMEOUT: Duration = Duration::from_secs(1);
/// Pause before retrying an op a member refused as `NotActive`.
const NOT_ACTIVE_BACKOFF: Duration = Duration::from_millis(50);

/// Outcome of feeding a message through [`FsIo::on_message`].
pub enum IoEvent {
    /// Operation `seq` finished after `attempts` sends. `result` is the
    /// server's answer as it arrived; `reconciled` says an error in it is
    /// the echo of the op's own earlier, half-acked execution (a retried
    /// create finding its file) and counts as success.
    Completed {
        seq: u64,
        op: FsOp,
        attempts: u32,
        result: Result<OpOutput, NsError>,
        reconciled: bool,
    },
    /// The message was FsIo-internal traffic.
    Consumed,
    /// Not ours; returned to the owner.
    NotMine(Message),
}

struct Pending {
    seq: u64,
    op: FsOp,
    attempts: u32,
    group: u32,
    /// The current attempt's timeout, and the backoff the latest `NotActive`
    /// armed on it; both carry the attempt's token.
    timeout: Option<TimerId>,
    backoff: Option<TimerId>,
}

impl Pending {
    /// Take back whatever the current attempt still has armed. One of the
    /// two may be the timer that is firing right now, which costs nothing.
    fn disarm(&mut self, ctx: &mut Ctx<'_>) {
        for id in [self.timeout.take(), self.backoff.take()].into_iter().flatten() {
            ctx.cancel_timer(id);
        }
    }
}

/// The client state machine — partition routing, active discovery, retry
/// and reconciliation — for any number of outstanding operations. A node
/// embeds one and feeds it its messages and timers; [`FsClient`] is the
/// closed-loop driver over it. Timer tokens are `seq << 20 | attempt` with
/// seqs above 1000, so the owner's own tokens must stay below `1 << 20`.
pub struct FsIo {
    coord: NodeId,
    partitioner: Partitioner,
    /// Each group's active as the global view last named it, by group.
    actives: Vec<Option<NodeId>>,
    /// Ascending by seq (the order of submission), so that one seed gives
    /// one run. A vector, not a map: a closed-loop owner holds one entry,
    /// and this keeps its allocation from one op to the next.
    pending: Vec<Pending>,
    next_seq: u64,
    /// Cumulative receipt watermark piggybacked on every request: seqs are
    /// issued in order, so once an op completes every reply below the
    /// lowest seq still pending has been received. The server evicts
    /// exactly those retry-cache entries.
    acked: u64,
}

impl FsIo {
    pub fn new(coord: NodeId, partitioner: Partitioner) -> Self {
        FsIo {
            coord,
            partitioner,
            actives: vec![None; partitioner.groups() as usize],
            pending: Vec::new(),
            next_seq: SEQ_BASE,
            acked: 0,
        }
    }

    /// Subscribe to the global view. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::Watch { prefix: ViewKey::all_groups(), req: 0 });
        self.refresh_view(ctx);
    }

    fn refresh_view(&self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::List { prefix: ViewKey::all_groups(), req: 0 });
    }

    /// A view key for a group this deployment does not have is ignored.
    fn absorb_active(&mut self, key: &str, value: Option<&str>) {
        if let Some(ViewKey::Active(group)) = ViewKey::parse(key) {
            if let Some(active) = self.actives.get_mut(group as usize) {
                *active = value.and_then(|v| v.parse().ok());
            }
        }
    }

    /// Issue an operation; the completion arrives later via
    /// [`IoEvent::Completed`] with the returned seq.
    pub fn submit(&mut self, ctx: &mut Ctx<'_>, op: FsOp) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        let group = self.partitioner.owner(op.primary_path());
        self.pending.push(Pending { seq, op, attempts: 0, group, timeout: None, backoff: None });
        self.attempt(ctx, self.pending.len() - 1);
        seq
    }

    /// Where `seq` is in `pending`, if it is still outstanding.
    fn position(&self, seq: u64) -> Option<usize> {
        self.pending.binary_search_by_key(&seq, |p| p.seq).ok()
    }

    /// Send an op to its group's active, if one is known.
    fn send_op(&self, ctx: &mut Ctx<'_>, p: &Pending) -> bool {
        let active = self.actives[p.group as usize];
        if let Some(active) = active {
            ctx.send(active, MdsReq::Op { op: p.op.clone(), seq: p.seq, acked: self.acked });
        }
        active.is_some()
    }

    /// One more attempt of the op at `at` in `pending`; it supersedes the
    /// timers of the one before.
    fn attempt(&mut self, ctx: &mut Ctx<'_>, at: usize) {
        self.pending[at].disarm(ctx);
        self.pending[at].attempts += 1;
        let p = &self.pending[at];
        if !self.send_op(ctx, p) {
            self.refresh_view(ctx);
        }
        let timeout = ctx.set_timer(OP_TIMEOUT, op_token(p.seq, p.attempts));
        self.pending[at].timeout = Some(timeout);
    }

    /// Feed a timer through; `true` if it was an op's.
    ///
    /// Per-op timeout: if the op is still outstanding *on the attempt this
    /// timer belongs to*, re-resolve the active and resend with the same
    /// seq (server-side duplicate suppression makes this safe). Timers for
    /// superseded attempts are taken back, and inert if one fires all the
    /// same, so at most one retry chain is ever live per op.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        let (seq, attempt) = (token >> 20, (token & 0xF_FFFF) as u32);
        if seq <= SEQ_BASE {
            return false;
        }
        if let Some(at) = self.position(seq) {
            if self.pending[at].attempts & 0xF_FFFF == attempt {
                self.refresh_view(ctx);
                self.attempt(ctx, at);
            }
        }
        true
    }

    /// A retried mutation may hit the result of its own earlier, half-acked
    /// execution; reconcile those errors into successes.
    fn reconcile(op: &FsOp, err: &NsError) -> bool {
        matches!(
            (op, err),
            (FsOp::Create { .. } | FsOp::Mkdir { .. }, NsError::AlreadyExists(_))
                | (FsOp::Delete { .. } | FsOp::Rename { .. }, NsError::NotFound(_))
        )
    }

    /// Feed a message through.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) -> IoEvent {
        let msg = match MdsResp::from_message(msg) {
            Ok(MdsResp::Reply { seq, result }) => {
                let Some(at) = self.position(seq) else {
                    return IoEvent::Consumed; // stale reply
                };
                let mut p = self.pending.remove(at);
                p.disarm(ctx);
                let Pending { op, attempts, .. } = p;
                self.acked = self.pending.first().map_or(self.next_seq, |low| low.seq - 1);
                let reconciled =
                    attempts > 1 && result.as_ref().is_err_and(|e| Self::reconcile(&op, e));
                return IoEvent::Completed { seq, op, attempts, result, reconciled };
            }
            Ok(MdsResp::NotActive { seq }) => {
                if let Some(at) = self.position(seq) {
                    // Stale routing: refresh and retry shortly. The fast
                    // timer shares the current attempt's token, so
                    // whichever of it and the full timeout fires first
                    // supersedes the other.
                    let token = op_token(seq, self.pending[at].attempts);
                    self.refresh_view(ctx);
                    self.pending[at].backoff = Some(ctx.set_timer(NOT_ACTIVE_BACKOFF, token));
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
                // A first attempt may have been swallowed by missing
                // routing; push it out now rather than wait for the timeout.
                for p in self.pending.iter().filter(|p| p.attempts == 1) {
                    self.send_op(ctx, p);
                }
                IoEvent::Consumed
            }
            Ok(_) => IoEvent::Consumed,
            Err(m) => IoEvent::NotMine(m),
        }
    }
}

/// What a client records: an operation that ended in a genuine error.
#[derive(Debug)]
pub enum ClientTrace {
    OpFailed { op: FsOp, error: NsError },
}

impl Event for ClientTrace {}

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

/// What the driver remembers of the one operation it has submitted.
#[derive(Debug)]
struct Outstanding {
    issued: SimTime,
    /// The private-directory setup mkdir (idempotent by construction).
    is_setup: bool,
    /// Index of this op's record in the history log, when recording.
    rec: Option<usize>,
}

/// A closed-loop client: a workload, think time, metrics and history over
/// an [`FsIo`] with at most one operation submitted.
pub struct FsClient {
    cfg: ClientConfig,
    workload: Workload,
    metrics: Arc<Metrics>,
    rng: DetRng,
    io: FsIo,
    outstanding: Option<Outstanding>,
    setup: Option<String>,
    completed: u64,
}

impl FsClient {
    pub fn new(cfg: ClientConfig, workload: Workload, metrics: Arc<Metrics>, rng: DetRng) -> Self {
        let setup = workload.setup_dir();
        let io = FsIo::new(cfg.coord, cfg.partitioner);
        FsClient { cfg, workload, metrics, rng, io, outstanding: None, setup, completed: 0 }
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
        let rec = self
            .cfg
            .history
            .as_ref()
            .map(|h| h.log.invoke(h.client, op.clone(), is_setup, ctx.now().micros()));
        self.outstanding = Some(Outstanding { issued: ctx.now(), is_setup, rec });
        self.io.submit(ctx, op);
    }

    fn finish(
        &mut self,
        ctx: &mut Ctx<'_>,
        op: &FsOp,
        attempts: u32,
        result: Result<OpOutput, NsError>,
        reconciled: bool,
    ) {
        let o = self.outstanding.take().expect("outstanding op");
        let ok = match &result {
            Ok(_) => true,
            Err(e) if reconciled || (o.is_setup && matches!(e, NsError::AlreadyExists(_))) => true,
            Err(e) => {
                // A genuine error (e.g. AlreadyExists on a first attempt) is
                // an application-level failure; trace it for diagnosis.
                ctx.trace(|| ClientTrace::OpFailed { op: op.clone(), error: e.clone() });
                false
            }
        };
        self.metrics.record(o.issued, ctx.now(), ok);
        if let (Some(idx), Some(h)) = (o.rec, self.cfg.history.as_ref()) {
            h.log.complete(idx, ctx.now().micros(), result, ok, attempts);
        }
        self.completed += 1;
        if self.cfg.think > Duration::ZERO {
            ctx.set_timer(self.cfg.think, T_NEXT);
        } else {
            self.issue_next(ctx);
        }
    }
}

impl Node for FsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.io.start(ctx);
        ctx.set_timer(self.cfg.start_delay, T_START);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == T_START || token == T_NEXT {
            self.issue_next(ctx);
        } else {
            self.io.on_timer(ctx, token);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if let IoEvent::Completed { op, attempts, result, reconciled, .. } =
            self.io.on_message(ctx, msg)
        {
            self.finish(ctx, &op, attempts, result, reconciled);
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "FakeMds and a bare coordinator, no group")]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::workload::Workload;
    use mams_coord::{CoordConfig, CoordServer};
    use mams_core::OpOutput;
    use mams_sim::{LatencyModel, Sim, SimConfig};
    use std::sync::Mutex;

    #[test]
    fn reconcile_only_accepts_own_echoes() {
        let create = FsOp::Create { path: "/f".into(), replication: 1 };
        let (exists, missing) =
            (NsError::AlreadyExists("/f".into()), NsError::NotFound("/f".into()));
        assert!(FsIo::reconcile(&create, &exists));
        assert!(!FsIo::reconcile(&create, &missing));
        let del = FsOp::Delete { path: "/f".into(), recursive: false };
        assert!(FsIo::reconcile(&del, &missing));
        assert!(!FsIo::reconcile(&del, &NsError::NotEmpty("/f".into())));
        let read = FsOp::GetFileInfo { path: "/f".into() };
        assert!(!FsIo::reconcile(&read, &exists));
        // A path may hold spaces, so an error's text can say what its
        // variant does not. Neither of these is an echo.
        let dir = "/hot/no such file";
        let not_empty = NsError::NotEmpty(dir.into());
        assert_eq!(not_empty.to_string(), "/hot/no such file: directory not empty");
        assert!(!FsIo::reconcile(&FsOp::Delete { path: dir.into(), recursive: false }, &not_empty));
        let odd = "/hot/already exists/";
        let invalid = NsError::from(mams_namespace::path::validate(odd).unwrap_err());
        assert_eq!(
            invalid.to_string(),
            r#"invalid path: "/hot/already exists/" has a trailing slash"#
        );
        assert!(!FsIo::reconcile(&FsOp::Create { path: odd.into(), replication: 1 }, &invalid));
    }

    /// What a [`FakeMds`] does with a request.
    enum Answer {
        /// Answer `Done`, but first ignore `n` requests for the `op`-th
        /// operation it sees (from 0): the client must time out and resend
        /// under the same seq.
        DoneAfterDropping {
            op: u64,
            n: usize,
        },
        NotActive,
    }

    /// Every request a [`FakeMds`] received: when, and for which seq.
    type Requests = Arc<Mutex<Vec<(SimTime, u64)>>>;

    /// A fake MDS that publishes itself as group 0's active, keeps its
    /// session alive, and logs the requests it gets.
    struct FakeMds {
        answer: Answer,
        requests: Requests,
        coord: NodeId,
        published: bool,
    }

    impl Node for FakeMds {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.coord, mams_coord::CoordReq::Register);
            ctx.set_timer(Duration::from_secs(1), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if msg.is::<mams_coord::CoordResp>() {
                if !self.published {
                    self.published = true;
                    ctx.send(
                        self.coord,
                        mams_coord::CoordReq::Multi {
                            ops: vec![mams_coord::KeyOp::Set {
                                key: ViewKey::Active(0).to_string(),
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
                let mut requests = self.requests.lock().unwrap();
                requests.push((ctx.now(), seq));
                match self.answer {
                    Answer::DoneAfterDropping { op, n } => {
                        let seen = requests.iter().filter(|r| r.1 == seq).count();
                        if seq - requests[0].1 != op || seen > n {
                            ctx.send(from, MdsResp::Reply { seq, result: Ok(OpOutput::Done) })
                        }
                    }
                    Answer::NotActive => ctx.send(from, MdsResp::NotActive { seq }),
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            ctx.send(self.coord, mams_coord::CoordReq::Heartbeat);
            ctx.set_timer(Duration::from_secs(1), 0);
        }
    }

    /// One way, every message: with no jitter a resend reaches the server
    /// exactly one timeout after the attempt it follows.
    const LINK: Duration = Duration::from_micros(100);

    /// A coordinator and a [`FakeMds`]; returns the request log.
    fn sim_with(answer: Answer) -> (Sim, NodeId, Requests) {
        let latency = LatencyModel { base: LINK, jitter: Duration::ZERO };
        let mut sim = Sim::new(SimConfig { latency, ..SimConfig::default() });
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let requests = Requests::default();
        let mds = FakeMds { answer, requests: requests.clone(), coord, published: false };
        sim.add_node("mds", Box::new(mds));
        (sim, coord, requests)
    }

    /// A closed-loop client over `mkdir /d0 … /d{ops-1}`, its first op issued
    /// at `START`.
    fn add_client(sim: &mut Sim, coord: NodeId, ops: u64) -> (NodeId, Arc<Metrics>) {
        let m = Metrics::new(true);
        let script = (0..ops).map(|i| FsOp::Mkdir { path: format!("/d{i}") }).collect();
        let mut cfg = ClientConfig::new(coord, Partitioner::new(1));
        cfg.start_delay = Duration::from_micros(START.micros());
        let client =
            FsClient::new(cfg, Workload::script(script), m.clone(), DetRng::seed_from_u64(1));
        (sim.add_node("client", Box::new(client)), m)
    }

    const START: SimTime = SimTime(500_000);

    /// (b) A lost request, or a lost reply: the same seq again, one timeout
    /// after the attempt before, until one answer completes the op.
    #[test]
    fn client_resends_with_the_same_seq_after_timeout() {
        let (mut sim, coord, requests) = sim_with(Answer::DoneAfterDropping { op: 0, n: 2 });
        let (_, m) = add_client(&mut sim, coord, 1);
        sim.run_for(Duration::from_secs(10));
        assert_eq!(m.ok_count(), 1, "exactly one completion");
        let first = START + LINK;
        let seq = requests.lock().unwrap()[0].1;
        assert_eq!(
            *requests.lock().unwrap(),
            [(first, seq), (first + OP_TIMEOUT, seq), (first + OP_TIMEOUT + OP_TIMEOUT, seq)],
            "two dropped, one answered"
        );
        // Latency includes the two dropped attempts (two 1 s timeouts).
        let c = m.completions();
        assert_eq!(c[0].latency_us(), 2 * OP_TIMEOUT.micros() + 2 * LINK.micros());
    }

    /// (a) An answered op takes its timeout with it: the event queue holds
    /// what is live and a bounded number of cancelled entries, not one inert
    /// timer for every op of the last second.
    #[test]
    fn answered_ops_leave_no_timers_queued() {
        const OPS: u64 = 20_000;
        let (mut sim, coord, requests) = sim_with(Answer::DoneAfterDropping { op: 0, n: 0 });
        let (_, m) = add_client(&mut sim, coord, OPS);
        let mut peak = 0;
        while m.ok_count() < OPS {
            assert!(sim.now() < SimTime::ZERO + Duration::from_secs(10), "{} ops", m.ok_count());
            sim.run_for(Duration::from_millis(5));
            peak = peak.max(sim.queued_events());
        }
        assert_eq!(requests.lock().unwrap().len() as u64, OPS, "every op on its first attempt");
        // Live: the coordinator's scan, the server's heartbeat, one request
        // or reply, one timeout. At 1ec8bb4 the peak is the 5 000 ops of a
        // second on this link.
        assert!(peak <= 8 + mams_sim::event::SWEEP_MIN_DEAD, "{peak} events queued");
    }

    /// The smallest owner of an [`FsIo`]: one op, submitted at start.
    struct OneOp {
        io: FsIo,
        op: Option<FsOp>,
    }

    impl Node for OneOp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.io.start(ctx);
            self.io.submit(ctx, self.op.take().expect("started once"));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            self.io.on_message(ctx, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.io.on_timer(ctx, token);
        }
    }

    /// (c) A member that keeps answering `NotActive` (a group mid-failover)
    /// costs one request per back-off, not a chain per attempt: the copy of
    /// this state machine `mams-mapreduce` used to carry armed unscoped
    /// timers and sent 22 245 requests for this one op in these 5 s.
    #[test]
    fn a_refusing_member_does_not_start_a_retry_storm() {
        let (mut sim, coord, requests) = sim_with(Answer::NotActive);
        let io = FsIo::new(coord, Partitioner::new(1));
        let op = Some(FsOp::Mkdir { path: "/x".into() });
        sim.add_node("owner", Box::new(OneOp { io, op }));
        sim.run_for(Duration::from_secs(5));
        // The first attempt finds no route and waits out its timeout; from
        // then on a round is the backoff and the two ways of the link, and
        // each backoff takes the timeout of its attempt back. The count is
        // 1ec8bb4's, where those timeouts fired and were ignored.
        let rounds =
            (5_000_000 - OP_TIMEOUT.micros()) / (NOT_ACTIVE_BACKOFF + LINK + LINK).micros();
        assert_eq!(requests.lock().unwrap().len() as u64, rounds + 1);
        // A timeout taken back 50 ms into its second: twenty at a time, too
        // few to be worth a sweep.
        let queued = sim.queued_events();
        assert!(queued <= 8 + mams_sim::event::SWEEP_MIN_DEAD, "{queued} events queued");
    }

    /// (d) Replies duplicated by the network arrive after their op is done,
    /// while the next op's timeout sits in the row of the timer table the
    /// first one's was taken from. They must not reach it: that op's request
    /// is lost, and its resend has to come one timeout after it, no sooner
    /// and no later.
    #[test]
    fn a_duplicated_reply_does_not_touch_the_next_ops_timer() {
        // Every message twice, so the first attempt of the second op is two
        // requests to ignore.
        let (mut sim, coord, requests) = sim_with(Answer::DoneAfterDropping { op: 1, n: 2 });
        let (_, m) = add_client(&mut sim, coord, 2);
        sim.run_for(Duration::from_millis(450));
        // The coordinator's scan, the server's heartbeat — and the client's
        // start timer, which will be gone.
        let idle = sim.queued_events() - 1;
        sim.net_mut().set_dup_probability(1.0);
        sim.run_for(Duration::from_millis(3_000));
        assert_eq!(m.ok_count(), 2);
        let requests = requests.lock().unwrap().clone();
        let (first, second) = (requests[0].1, requests[0].1 + 1);
        let of = |seq| requests.iter().filter(|r| r.1 == seq).map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(of(first).len(), 2, "{requests:?}");
        // The second op went out when the first reply came in.
        let sent = START + LINK + LINK;
        let copy = LINK.mul_f64(4.0);
        assert_eq!(
            of(second),
            [
                sent + LINK,
                sent + LINK + copy,
                sent + OP_TIMEOUT + LINK,
                sent + OP_TIMEOUT + LINK + copy
            ],
            "{requests:?}"
        );
        let c = m.completions();
        assert_eq!(c[1].latency_us(), OP_TIMEOUT.micros() + 2 * LINK.micros());
        sim.net_mut().set_dup_probability(0.0);
        sim.run_for(Duration::from_millis(50));
        assert_eq!(sim.queued_events(), idle, "nothing of the two ops is left");
    }

    /// (e) A client frozen between its request and the reply: the reply, then
    /// the timeout that came due, wait in the backlog and replay in that
    /// order, so the op completes at resume and is not resent.
    #[test]
    fn a_reply_and_a_timeout_buffered_by_one_pause_replay_in_arrival_order() {
        let (mut sim, coord, requests) = sim_with(Answer::DoneAfterDropping { op: 0, n: 0 });
        let (client, m) = add_client(&mut sim, coord, 2);
        let frozen = START + LINK + Duration::from_micros(50);
        let woken = START + OP_TIMEOUT + Duration::from_millis(200);
        sim.at(frozen, move |sim| sim.pause(client));
        sim.at(woken, move |sim| {
            assert!(sim.queued_events() >= 2, "the reply and the timeout wait");
            sim.resume(client);
        });
        sim.run_for(Duration::from_secs(4));
        assert_eq!(m.ok_count(), 2);
        let c = m.completions();
        assert_eq!((c[0].issued_us, c[0].at_us), (START.micros(), woken.micros()));
        assert_eq!(c[1].latency_us(), 2 * LINK.micros());
        let seq = requests.lock().unwrap()[0].1;
        assert_eq!(
            *requests.lock().unwrap(),
            [(START + LINK, seq), (woken + LINK, seq + 1)],
            "one request each"
        );
    }
}
