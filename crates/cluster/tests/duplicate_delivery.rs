//! Duplicate-delivery safety: a client resend of an already-applied (or
//! still in-flight) mutation must never double-apply.
//!
//! The cluster client retries an op with the *same* seq after a timeout; if
//! the first delivery was applied but the reply lost, the server must answer
//! the retry from its per-client retry cache — the very same `Arc<MdsResp>`
//! — and must not journal or execute the mutation a second time. A read is
//! the other way round: it changes nothing, so its reply is never cached
//! and its resend is executed again.

// clippy.toml's hash map is banned from `FsIo` alone (client.rs).
#![allow(clippy::disallowed_types)]

use std::sync::{Arc, Mutex};

use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_core::{FsOp, MdsReq, MdsResp, NsError, OpOutput};
use mams_sim::{Ctx, Duration, Message, Node, NodeId, Sim, SimConfig};

const T_FIRST: u64 = 1;
const T_RESEND: u64 = 2;
const T_NEXT: u64 = 3;
const T_LATE_COPY: u64 = 4;

/// Sends the same `MdsReq::Op` seq four times: twice back-to-back (an
/// in-flight duplicate, e.g. a delayed network copy), once again after
/// the op has long completed (a client resend after a reply timeout), and
/// once more after its *next* request — a delete of the same path, whose
/// receipt watermark covers seq 7 — has been answered: a network copy that
/// trailed its original past the point where the cache forgot the reply.
struct Resender {
    active: NodeId,
    replies: Arc<Mutex<Vec<Arc<MdsResp>>>>,
}

impl Resender {
    fn op(&self) -> MdsReq {
        MdsReq::Op {
            op: FsOp::Create { path: "/dup-target".into(), replication: 3 },
            seq: 7,
            acked: 0,
        }
    }

    fn next_op(&self) -> MdsReq {
        let op = FsOp::Delete { path: "/dup-target".into(), recursive: false };
        MdsReq::Op { op, seq: 8, acked: 7 }
    }
}

impl Node for Resender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Let the group elect its active first.
        ctx.set_timer(Duration::from_secs(2), T_FIRST);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            T_FIRST => {
                // Original + immediate duplicate while the first is still
                // in flight (ack waits for SSP durability, so the second
                // delivery arrives well before completion).
                ctx.send(self.active, self.op());
                ctx.send(self.active, self.op());
                ctx.set_timer(Duration::from_millis(500), T_RESEND);
            }
            T_RESEND => {
                ctx.send(self.active, self.op());
                ctx.set_timer(Duration::from_millis(500), T_NEXT);
            }
            T_NEXT => {
                ctx.send(self.active, self.next_op());
                ctx.set_timer(Duration::from_millis(500), T_LATE_COPY);
            }
            // The path is gone again: executed, this create would succeed.
            T_LATE_COPY => ctx.send(self.active, self.op()),
            _ => {}
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if let Ok(resp) = msg.downcast::<Arc<MdsResp>>() {
            self.replies.lock().unwrap().push(resp);
        }
    }
}

#[test]
fn duplicate_delivery_is_answered_from_cache_without_reapply() {
    let mut s = Sim::new(SimConfig { seed: 42, ..SimConfig::default() });
    let mut d = build(&mut s, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
    // Background traffic so the duplicate arrives into a working, busy
    // active rather than an idle one.
    let m = Metrics::new(false);
    d.add_client(&mut s, Workload::create_only(0), m.clone());

    let replies: Arc<Mutex<Vec<Arc<MdsResp>>>> = Arc::new(Mutex::new(Vec::new()));
    let active = d.initial_active(0);
    s.add_node("resender", Box::new(Resender { active, replies: replies.clone() }));
    s.run_for(Duration::from_secs(10));

    // The in-flight duplicate is suppressed outright (no second execution,
    // no second reply); the post-completion resend is answered from the
    // retry cache. So: exactly two replies, both successful, and both the
    // *same allocation* — the cached `Arc` re-shipped, not a re-execution.
    // Then the delete is answered, and the copy that arrives behind it gets
    // no reply at all: the client said it holds that one.
    let replies = replies.lock().unwrap();
    assert_eq!(replies.len(), 3, "one reply per distinct outcome, got {replies:?}");
    for (r, seq) in replies.iter().zip([7, 7, 8]) {
        match &**r {
            MdsResp::Reply { seq: got, result } if *got == seq => {
                assert!(result.is_ok(), "duplicate create must not observe itself: {result:?}")
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(
        Arc::ptr_eq(&replies[0], &replies[1]),
        "retry must be served from the cache (identical Arc), not re-executed"
    );

    // No double-apply: the shared journal holds exactly one Create for the
    // target path across all four deliveries.
    let pool = d.shared_pool.lock();
    let g = pool.group(0).expect("group 0 journal");
    let mut creates = 0;
    if let Some(batches) = g.read_journal(0, usize::MAX) {
        for b in batches {
            for r in &b.records {
                if let mams_journal::Txn::Create { path, .. } = r {
                    if path == "/dup-target" {
                        creates += 1;
                    }
                }
            }
        }
    }
    assert_eq!(creates, 1, "the duplicated create was journaled {creates} times");
}

/// What a client received: the reply, and whether it came as the shared
/// `Arc` the retry cache keeps or as an owned value nobody else holds.
type Received = Arc<Mutex<Vec<(bool, MdsResp)>>>;

/// Creates `/r` (seq 1) and reads it (seq 2), then deletes it with a
/// watermark of 1, as if the read's reply had been lost, and resends the
/// read under seq 2. One step every 500 ms, after the group's election.
struct ReadResender {
    active: NodeId,
    step: usize,
    received: Received,
}

impl Node for ReadResender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration::from_secs(2), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
        let path = || "/r".to_string();
        let (op, seq, acked) = match self.step {
            0 => (FsOp::Create { path: path(), replication: 3 }, 1, 0),
            1 => (FsOp::GetFileInfo { path: path() }, 2, 1),
            2 => (FsOp::Delete { path: path(), recursive: false }, 3, 1),
            3 => (FsOp::GetFileInfo { path: path() }, 2, 1),
            _ => return,
        };
        ctx.send(self.active, MdsReq::Op { op, seq, acked });
        self.step += 1;
        ctx.set_timer(Duration::from_millis(500), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        let got = match msg.downcast::<Arc<MdsResp>>() {
            Ok(shared) => (true, (*shared).clone()),
            Err(msg) => match msg.downcast::<MdsResp>() {
                Ok(owned) => (false, owned),
                Err(_) => return,
            },
        };
        self.received.lock().unwrap().push(got);
    }
}

#[test]
fn a_resent_read_is_executed_again() {
    let mut s = Sim::new(SimConfig { seed: 42, ..SimConfig::default() });
    let d = build(&mut s, DeploySpec { standbys_per_group: 2, ..DeploySpec::default() });
    let received = Received::default();
    let active = d.initial_active(0);
    s.add_node("reader", Box::new(ReadResender { active, step: 0, received: received.clone() }));
    s.run_for(Duration::from_secs(5));

    let received = received.lock().unwrap();
    let summary: Vec<_> = received
        .iter()
        .map(|(shared, r)| match r {
            MdsResp::Reply { seq, result } => (*shared, *seq, result.clone()),
            other => panic!("unexpected reply {other:?}"),
        })
        .collect();
    assert_eq!(summary.len(), 4, "{summary:?}");
    // Mutations' replies are cached, so they travel as the shared `Arc`.
    assert!(matches!(&summary[0], (true, 1, Ok(OpOutput::Info(_)))), "{summary:?}");
    assert!(matches!(&summary[1], (false, 2, Ok(OpOutput::Info(_)))), "{summary:?}");
    assert_eq!(summary[2], (true, 3, Ok(OpOutput::Done)));
    // The resent read sees the delete: it ran again, it was not replayed
    // from a cache.
    assert_eq!(summary[3], (false, 2, Err(NsError::NotFound("/r".into()))));
}
